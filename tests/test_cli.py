import io
import itertools
import tracemalloc

import numpy as np
import pytest
from conftest import overflowing_a

from balsel import cli, evaluation, gramian, matkernel, models, selection, statespace
from balsel.errors import FormatError, SynthesisError


def run(argv):
    return cli.main(argv)


def write_scalar_model(path):
    m = statespace.StateSpaceModel([[-1.0]], [[1.0]], [[1.0]])
    with open(path, "w") as fh:
        cli.write_model(fh, m)
    return path


def write_symmetric_model(path, n=6, seed=61):
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((n, n))
    a = 0.5 * (a + a.T)
    a -= (np.linalg.eigvalsh(a).max() + 0.3) * np.eye(n)
    m = statespace.StateSpaceModel(a, np.eye(n), np.eye(n))
    with open(path, "w") as fh:
        cli.write_model(fh, m)
    return path


class TestMatrixFormat:
    def test_round_trip_real(self):
        a = np.array([[1.0, -2.5], [1e-17, 3.0]])
        buf = io.StringIO()
        cli.write_matrix(buf, a)
        back = cli.read_matrix(buf.getvalue())
        np.testing.assert_array_equal(back.real, a)
        assert "real" in buf.getvalue().splitlines()[0]

    def test_round_trip_complex(self):
        a = np.array([[1 + 2j, -0.5j], [3.0, 4 - 1e-13j]])
        buf = io.StringIO()
        cli.write_matrix(buf, a)
        back = cli.read_matrix(buf.getvalue())
        np.testing.assert_array_equal(back, a)

    def test_comments_ignored(self):
        text = "# header comment\nmatrix 1 2 real\n1 2 # trailing\n"
        np.testing.assert_array_equal(cli.read_matrix(text).real, [[1.0, 2.0]])

    def test_bad_header(self):
        with pytest.raises(FormatError):
            cli.read_matrix("matrice 2 2 real\n1 2 3 4")

    def test_negative_dimensions(self):
        with pytest.raises(FormatError, match="malformed matrix header"):
            cli.read_matrix("matrix -1 -2 real\n1 2")

    def test_truncated_block(self):
        with pytest.raises(FormatError):
            cli.read_matrix("matrix 2 2 real\n1 2 3")

    def test_block_ending_mid_line(self):
        text = "model discrete matrix 1 1 real 0.5 matrix 1 1 real 2 matrix 1 1 real 3"
        m = cli.read_model(text)
        assert (m.a[0, 0], m.b[0, 0], m.c[0, 0]) == (0.5, 2.0, 3.0)

    def test_row_split_across_lines(self):
        text = "matrix 2 3 real\n1 2\n3 4 5\n6\n"
        np.testing.assert_array_equal(cli.read_matrix(text).real, [[1, 2, 3], [4, 5, 6]])

    def test_mid_line_comment(self):
        text = "matrix 2 2 complex\n1,2 3,-4 # 9,9 x\n-5,6 # comment\n7,0\n"
        back = cli.read_matrix(text)
        np.testing.assert_array_equal(back, [[1 + 2j, 3 - 4j], [-5 + 6j, 7]])

    def test_bad_token_mid_row(self):
        with pytest.raises(FormatError, match=r"^bad matrix entry 'x'$"):
            cli.read_matrix("matrix 2 2 real\n1 x 3 y\n")

    def test_three_parts_in_complex_block(self):
        with pytest.raises(FormatError, match=r"^bad matrix entry '1,2,3'$"):
            cli.read_matrix("matrix 1 2 complex\n1,2 1,2,3\n")

    def test_short_block(self):
        with pytest.raises(FormatError, match=r"^matrix block ended early$"):
            cli.read_matrix("matrix 2 2 real\n1 2\n3 # 4\n")

    @pytest.mark.parametrize(
        "text, extra",
        [
            ("matrix 1 1 real\n1 2 3", "2"),
            ("matrix 1 1 real\n1\nmatrix 1 1 real\n2\n", "matrix"),
            ("matrix 1 1 complex\n1,0 # ok\n\n junk # more\n", "junk"),
        ],
        ids=["same-line", "second-block", "after-comment"],
    )
    def test_trailing_input_rejected(self, text, extra):
        with pytest.raises(FormatError, match=rf"^unexpected trailing input '{extra}'$"):
            cli.read_matrix(text)

    def test_trailing_comments_and_blank_lines_allowed(self):
        text = "matrix 1 1 real\n1 # one\n\n   \n# the end\n"
        np.testing.assert_array_equal(cli.read_matrix(text).real, [[1.0]])

    @pytest.mark.parametrize(
        "field, row",
        [("real", "nan 1"), ("real", "inf 1"), ("real", "1 -inf"), ("complex", "nan,0 1,0")],
    )
    def test_non_finite_entry_rejected(self, field, row):
        with pytest.raises(FormatError, match="non-finite"):
            cli.read_matrix(f"matrix 1 2 {field}\n{row}\n")


class TestModelFormat:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "m.txt"
        m = models.random_stable_system(4, 2, 3, seed=9, time_domain="discrete")
        with open(path, "w") as fh:
            cli.write_model(fh, m)
        back = cli.read_model(path.read_text())
        np.testing.assert_array_equal(back.a, m.a)
        np.testing.assert_array_equal(back.b, m.b)
        np.testing.assert_array_equal(back.c, m.c)
        assert back.time_domain == "discrete"

    @pytest.mark.parametrize("field, dtype", [("real", np.float64), ("complex", np.complex128)])
    def test_block_keeps_its_field(self, field, dtype):
        entry = "0.5" if field == "real" else "0.5,0"
        m = cli.read_model("model discrete\n" + f"matrix 1 1 {field}\n{entry}\n" * 3)
        assert m.a.dtype == m.b.dtype == m.c.dtype == dtype


class TestKeyValueConfig:
    def test_parse(self):
        cfg = cli.read_keyvalue_config("n = 32\nkernel_width=0.2 # width\n\n# c\n")
        assert cfg == {"n": "32", "kernel_width": "0.2"}
        params = cli.gl_params_from_config(cfg)
        assert params.n == 32
        assert params.kernel_width == 0.2

    def test_bad_line(self):
        with pytest.raises(FormatError):
            cli.read_keyvalue_config("novalue\n")

    def test_unknown_key_is_named(self):
        with pytest.raises(FormatError, match="kernel_widht"):
            cli.gl_params_from_config({"n": "32", "kernel_widht": "0.9"})


class TestModelInputErrors:
    @pytest.mark.parametrize(
        "command, extra",
        [
            ("gramians", []),
            ("select", ["--rank", "1"]),
            ("bruteforce", ["--budget", "1"]),
            ("bench-random", ["--rank", "1"]),
        ],
        ids=["gramians", "select", "bruteforce", "bench-random"],
    )
    def test_unstable_model_exit_2(self, tmp_path, capsys, command, extra):
        path = tmp_path / "u.txt"
        m = statespace.StateSpaceModel([[1.0]], [[1.0]], [[1.0]])
        with open(path, "w") as fh:
            cli.write_model(fh, m)
        out = tmp_path / "out"
        argv = [command, "--model", str(path), "--out", str(out)] + extra
        assert run(argv) == 2
        assert "unstable" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "command, extra",
        [
            ("select", ["--rank", "5"]),
            ("select", ["--rank", "5", "--budget", "5"]),
            ("bruteforce", ["--budget", "5"]),
            ("bench-random", ["--rank", "5"]),
            ("bench-random", ["--ranks", "1-5"]),
        ],
    )
    def test_rank_above_n_exit_2(self, tmp_path, capsys, command, extra):
        out = tmp_path / "out"
        argv = [command, "--generate", "4,4,4,1", "--out", str(out)] + extra
        assert run(argv) == 2
        assert capsys.readouterr().err.startswith("error: rank must be between 1 and 4")
        assert not out.exists()

    @pytest.mark.parametrize(
        "command, extra",
        [("gramians", []), ("select", ["--rank", "1"])],
        ids=["gramians", "select"],
    )
    @pytest.mark.parametrize(
        "field, a, b, c",
        [
            ("real", "nan", "1", "1"),
            ("real", "-1", "inf", "1"),
            ("real", "-1", "1", "-inf"),
            ("complex", "-1,nan", "1,0", "1,0"),
        ],
    )
    def test_non_finite_model_exit_3(
        self, tmp_path, capsys, command, extra, field, a, b, c
    ):
        path = tmp_path / "nf.txt"
        blocks = "".join(f"matrix 1 1 {field}\n{x}\n" for x in (a, b, c))
        path.write_text("model continuous\n" + blocks)
        assert run([command, "--model", str(path)] + extra) == 3
        err = capsys.readouterr().err
        assert err.startswith("parse error:") and "non-finite" in err

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("scale", [1e3, 1e6])
    @pytest.mark.parametrize("domain", [statespace.CONTINUOUS, statespace.DISCRETE])
    @pytest.mark.parametrize(
        "command, extra",
        [("gramians", []), ("select", ["--rank", "2"])],
        ids=["gramians", "select"],
    )
    def test_overflowing_gramians_exit_2(self, tmp_path, capsys, command, extra, domain, scale):
        a, rng = overflowing_a(domain, scale)
        n = len(a)
        m = statespace.StateSpaceModel(a, rng.standard_normal((n, 3)),
                                       rng.standard_normal((2, n)), domain)
        path = tmp_path / "m.txt"
        with open(path, "w") as fh:
            cli.write_model(fh, m)
        out = tmp_path / "out"
        assert run([command, "--model", str(path), "--out", str(out)] + extra) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: the controllability gramian is not finite")
        assert len(captured.err.splitlines()) == 1
        assert not out.exists()


class TestUndecodableInput:
    # files are read as bytes: a comment may hold any bytes, and an entry or
    # a config file that is not ASCII / UTF-8 is a parse error naming it
    def test_non_ascii_entry_exit_3(self, tmp_path, capsys):
        path = tmp_path / "m.txt"
        path.write_bytes(b"model continuous\nmatrix 1 1 real\n\xff\n" + b"matrix 1 1 real\n1\n" * 2)
        assert run(["select", "--model", str(path), "--rank", "1"]) == 3
        assert capsys.readouterr().err == "parse error: bad matrix entry '\\xff'\n"

    @pytest.mark.parametrize("entry", ["1_0", "\uff11", "\u0661", "1\xa02"],
                             ids=["underscore", "fullwidth-digit", "arabic-digit", "nbsp"])
    def test_tokens_outside_the_ascii_grammar_exit_3(self, tmp_path, capsys, entry):
        path = tmp_path / "m.txt"
        path.write_text("model continuous\nmatrix 1 1 real\n-1\nmatrix 1 1 real\n1\n"
                        f"matrix 1 1 real\n{entry}\n", encoding="utf-8")
        assert run(["select", "--model", str(path), "--rank", "1"]) == 3
        err = capsys.readouterr().err
        assert err.startswith("parse error: bad matrix entry '") and "Traceback" not in err

    def test_latin1_comment_is_ignored(self, tmp_path, capsys):
        path = tmp_path / "m.txt"
        write_scalar_model(path)
        plain = run(["select", "--model", str(path), "--rank", "1"]), capsys.readouterr()
        path.write_bytes(b"# mod\xe8le \xff\x00\n" + path.read_bytes().replace(b"\n", b" # caf\xe9\n"))
        assert (run(["select", "--model", str(path), "--rank", "1"]), capsys.readouterr()) == plain

    def test_undecodable_gl_params_exit_3_naming_the_path(self, tmp_path, capsys):
        cfgfile = tmp_path / "gl.cfg"
        cfgfile.write_bytes(b"n=28 # \xff\n")
        out = tmp_path / "gl"
        assert run(["gl-demo", "--gl-params", str(cfgfile), "--rank", "1", "--out", str(out)]) == 3
        err = capsys.readouterr().err
        assert err.startswith(f"parse error: cannot read {cfgfile}: ") and err.count("\n") == 1
        assert not out.exists()


class TestBadOptionValues:
    # malformed option, environment or config values end in FormatError
    # (exit 3) before anything is written
    @pytest.mark.parametrize(
        "argv, env, cfg",
        [
            (["gl-demo", "--rank", "1"], {}, "n = abc\n"),
            (["gl-demo", "--rank", "1"], {}, "kernel_width = x\n"),
            (["gl-demo", "--rank", "1"], {}, "mu_profile = 1,a,2\n"),
            (["gl-demo", "--rank", "1"], {}, "kernel_widht = 0.9\n"),
            (["gl-demo", "--rank", "1"], {}, "mu_profile = 0.37, 0, nan\n"),
            (["gl-demo", "--rank", "1"], {}, "nu = nan\n"),
            (["gl-demo", "--rank", "1"], {}, "beta_diff = 1-infj\n"),
            (["gl-demo", "--rank", "1"], {}, "kernel_width = inf\n"),
            (["gl-demo", "--rank", "1", "--freq-grid", "1,0.1,5"], {}, None),
            (["bruteforce", "--generate", "8,8,8,1", "--budget", "2"],
             {"BALSEL_CAP": "abc"}, None),
            (["bruteforce", "--generate", "8,8,8,1", "--budget", "2"],
             {"BALSEL_CAP": "0"}, None),
            (["bruteforce", "--generate", "8,8,8,1", "--budget", "2", "--cap", "-1"], {}, None),
            (["bruteforce", "--generate", "8,8,8,1", "--budget", "2", "--cap", "0"], {}, None),
            (["select", "--generate", "8,8,8,1", "--rank", "0"], {}, None),
            (["select", "--generate", "8,8,8,1", "--rank", "-1"], {}, None),
            (["select", "--generate", "8,8,8,1", "--rank", "2", "--budget", "3"], {}, None),
            (["bruteforce", "--generate", "8,8,8,1", "--budget", "-2"], {}, None),
            (["bruteforce", "--generate", "8,8,8,1", "--rank", "2", "--budget", "3"], {}, None),
            (["bench-random", "--generate", "8,8,8,1", "--rank", "-3"], {}, None),
            (["bench-random", "--generate", "8,8,8,1", "--rank", "0"], {}, None),
            (["bench-random", "--generate", "8,8,8,1", "--ranks", "0-2"], {}, None),
            (["bench-random", "--generate", "8,8,8,1", "--rank", "2", "--ranks", "1-3",
              "--ensemble-count", "3"], {}, None),
            (["select", "--generate", "8,8,8,1", "--rank", "2", "--metric", "h2",
              "--freq-grid", "1,0.1,5"], {}, None),
            (["select", "--generate", "8,8,8,1", "--rank", "2", "--metric", "h2",
              "--freq-grid=-1,10,5"], {}, None),
            (["bench-random", "--generate", "8,8,8,1", "--rank", "2",
              "--ensemble-count", "-1"], {}, None),
            (["bench-random", "--generate", "8,8,8,1", "--rank", "2",
              "--ensemble-count", "0"], {}, None),
            (["gl-demo", "--rank", "-1"], {}, None),
            (["gl-demo", "--rank", "0"], {}, None),
            (["scaling", "--rank", "-3"], {}, None),
            (["scaling", "--rank", "0"], {}, None),
        ],
        ids=["gl-n", "gl-kernel-width", "gl-mu-profile", "gl-unknown-key", "gl-mu-profile-nan",
             "gl-nu-nan", "gl-beta-diff-inf", "gl-kernel-width-inf", "gl-freq-grid",
             "cap-env", "cap-env-zero", "cap-neg", "cap-zero", "select-rank-zero",
             "select-rank-neg",
             "select-rank-budget-differ", "bruteforce-budget-neg",
             "bruteforce-rank-budget-differ", "bench-rank-neg", "bench-rank-zero",
             "bench-ranks-zero", "bench-rank-and-ranks",
             "select-freq-grid", "select-freq-grid-negative", "ensemble-count-neg",
             "ensemble-count-zero", "gl-rank-neg", "gl-rank-zero", "scaling-rank-neg",
             "scaling-rank-zero"],
    )
    def test_exit_3_without_output(self, tmp_path, capsys, monkeypatch, argv, env, cfg):
        for key, value in env.items():
            monkeypatch.setenv(key, value)
        out = tmp_path / "out"
        argv = argv + ["--out", str(out)]
        if cfg is not None:
            cfgfile = tmp_path / "gl.cfg"
            cfgfile.write_text(cfg)
            argv += ["--gl-params", str(cfgfile)]
        assert run(argv) == 3
        captured = capsys.readouterr()
        assert captured.err.startswith("parse error:")
        assert "Traceback" not in captured.err
        assert not out.exists()

    # every command line argparse rejects exits 3 as well, with no usage text
    @pytest.mark.parametrize(
        "argv",
        [
            [],
            ["frobnicate"],
            ["select", "--generate", "8,8,8,1", "--rank", "x"],
            ["select", "--generate", "8,8,8,1", "--rank"],
            ["select", "--generate", "8,8,8,1", "--rnak", "3"],
            ["select", "--generate", "8,8,8,1", "--rank", "2", "--metric", "foo"],
            ["select", "--generate", "8,8,8,1", "--rank", "2", "--freq-grid", "garbage"],
            ["select", "--rank", "2"],
            ["select", "--model", "m.txt", "--generate", "8,8,8,1", "--rank", "2"],
            ["select", "--generate", "8,8,8", "--rank", "2"],
            ["select", "--generate", "8,8,8,1,weird", "--rank", "2"],
            ["select", "--generate", "8,8,8,-1", "--rank", "2"],
            ["bruteforce", "--generate", "8,8,8,1", "--budget", "x"],
            ["bruteforce", "--generate", "8,8,8,1", "--budget", "2", "--cap", "1.5"],
            ["bruteforce", "--generate", "8,8,8,1", "--budget", "2", "--metric", "h2"],
            ["bench-random", "--generate", "8,8,8,1", "--ensemble-count", "many"],
            ["bench-random", "--generate", "8,8,8,1", "--seeds", "-1"],
            ["bench-random", "--generate", "8,8,8,1", "--ranks", "1-2-3"],
            ["gl-demo", "--rank", "1", "--freq-grid", "1,2"],
            ["scaling", "--seed-value", "x"],
        ],
        ids=["empty", "unknown-command", "rank-x", "rank-missing-value", "unknown-option",
             "metric-foo", "freq-grid-without-h2", "no-source", "both-sources",
             "generate-short", "generate-domain", "generate-seed-neg", "budget-x",
             "cap-fraction", "bruteforce-metric-h2", "ensemble-count-many", "seeds-neg",
             "ranks-three-parts", "gl-freq-grid-short", "seed-value-x"],
    )
    def test_argparse_rejection_exit_3(self, tmp_path, capsys, argv):
        out = tmp_path / "out"
        assert run(argv + ["--out", str(out)]) == 3
        err = capsys.readouterr().err
        assert err.startswith("parse error:") and err.count("\n") == 1
        assert "usage:" not in err
        assert not out.exists()

    def test_freq_grid_count_bounded_by_the_cap(self, capsys):
        # refused before the 74.5 GiB grid is allocated
        argv = ["select", "--generate", "6,4,4,1", "--rank", "2", "--metric", "h2"]
        assert run(argv + ["--freq-grid", "1,10,10000000000"]) == 3
        assert f"count <= {evaluation.DEFAULT_CAP}" in capsys.readouterr().err
        assert cli._freq_grid(f"1,10,{evaluation.DEFAULT_CAP}").points.size == evaluation.DEFAULT_CAP

    def test_generate_sizes_stay_a_domain_error(self, capsys):
        assert run(["select", "--generate", "0,2,2,1", "--rank", "1"]) == 2
        assert capsys.readouterr().err == "error: n, p, q must all be at least 1\n"


class TestUnwritableOutput:
    @pytest.mark.parametrize(
        "argv",
        [
            ["select", "--generate", "6,4,4,0", "--rank", "2"],
            ["bruteforce", "--generate", "6,4,4,0", "--budget", "2"],
            ["bench-random", "--generate", "6,4,4,0", "--rank", "2", "--ensemble-count", "3"],
            ["gramians", "--generate", "6,4,4,0"],
            ["gl-demo", "--rank", "1"],
            ["scaling", "--rank", "2"],
        ],
        ids=["select", "bruteforce", "bench-random", "gramians", "gl-demo", "scaling"],
    )
    def test_exit_3_naming_the_path(self, tmp_path, capsys, monkeypatch, argv):
        monkeypatch.setattr(
            matkernel, "_pivoting_times", lambda cases, seed: [1e-6 * n * r for n, r in cases]
        )
        if argv[0] == "gl-demo":
            cfgfile = tmp_path / "gl.cfg"
            cfgfile.write_text("n=28\n")
            argv = argv + ["--gl-params", str(cfgfile)]
        blocker = tmp_path / "file"
        blocker.write_text("")
        out = blocker / "out"  # under a regular file: neither a file nor a directory fits
        assert run(argv + ["--out", str(out)]) == 3
        err = capsys.readouterr().err
        assert err.startswith("parse error: cannot write output:") and str(out) in err
        assert err.count("\n") == 1


class TestGramiansCommand:
    def test_scalar_file(self, tmp_path, capsys):
        path = write_scalar_model(tmp_path / "m.txt")
        out = tmp_path / "g"
        assert run(["gramians", "--model", str(path), "--out", str(out)]) == 0
        wc = cli.read_matrix((out / "Wc.txt").read_text())
        np.testing.assert_allclose(wc.real, [[0.5]])

    def test_corrupt_model_exit_3(self, tmp_path, capsys):
        bad = tmp_path / "bad.txt"
        bad.write_text("model continuous\nmatrix 1 1 real\n")
        assert run(["gramians", "--model", str(bad)]) == 3

    def test_header_sizes_no_allocation(self, tmp_path, capsys):
        # 10^10 entries announced and one given: the block ends early
        # instead of allocating 75 GiB from the header
        big = tmp_path / "big.txt"
        big.write_text("model continuous\nmatrix 100000 100000 real\n1\n")
        assert run(["gramians", "--model", str(big), "--out", str(tmp_path / "g")]) == 3
        assert capsys.readouterr().err == "parse error: matrix block ended early\n"
        assert not (tmp_path / "g").exists()

    @pytest.mark.parametrize(
        "tail, extra",
        [("matrix 9 9 real\n", "matrix"), ("garbage here\n", "garbage")],
        ids=["fourth-block", "garbage"],
    )
    def test_trailing_input_exit_3(self, tmp_path, capsys, tail, extra):
        path = write_scalar_model(tmp_path / "m.txt")
        with open(path, "a") as fh:
            fh.write("# a comment and a blank line are fine\n\n" + tail)
        assert run(["gramians", "--model", str(path), "--out", str(tmp_path)]) == 3
        captured = capsys.readouterr()
        assert captured.err.startswith("parse error:")
        assert f"unexpected trailing input '{extra}'" in captured.err
        assert not (tmp_path / "Wc.txt").exists()

    def test_trailing_comments_and_blank_lines_allowed(self, tmp_path, capsys):
        path = write_scalar_model(tmp_path / "m.txt")
        with open(path, "a") as fh:
            fh.write("\n# written by hand\n   \n")
        assert run(["gramians", "--model", str(path), "--out", str(tmp_path)]) == 0

    def test_generated_outputs_reload_psd(self, tmp_path, capsys):
        out = tmp_path / "g"
        assert (
            run(
                [
                    "gramians",
                    "--generate",
                    "25,25,25,5,discrete",
                    "--out",
                    str(out),
                ]
            )
            == 0
        )
        for name in ("Wc.txt", "Wo.txt"):
            w = cli.read_matrix((out / name).read_text())
            lam = np.linalg.eigvalsh(0.5 * (w + w.conj().T))
            assert lam.min() >= -1e-10 * abs(lam).max()


class TestSelectCommand:
    def test_fixture_indices_one_based(self, tmp_path, capsys):
        # diagonal decays: modes concentrate on the slowest states
        m = statespace.StateSpaceModel(
            np.diag([-0.1, -4.0, -0.2, -5.0]), np.eye(4), np.eye(4)
        )
        path = tmp_path / "m.txt"
        with open(path, "w") as fh:
            cli.write_model(fh, m)
        assert run(["select", "--model", str(path), "--rank", "2"]) == 0
        lines = capsys.readouterr().out.splitlines()
        gamma_line = next(l for l in lines if l.startswith("gamma "))
        assert set(gamma_line.split()[1].split(",")) == {"1", "3"}

    def test_no_collocate_disjoint(self, tmp_path, capsys):
        path = write_symmetric_model(tmp_path / "m.txt")
        assert run(
            ["select", "--model", str(path), "--rank", "2", "--no-collocate"]
        ) == 0
        out = capsys.readouterr().out.splitlines()
        gamma = set(next(l for l in out if l.startswith("gamma ")).split()[1].split(","))
        beta = set(next(l for l in out if l.startswith("beta ")).split()[1].split(","))
        assert not gamma & beta

    def test_h2_discrete_grid_outside_0_pi_exit_2(self, capsys):
        # no grid point in (0, pi]: the error comes before any report line
        argv = ["select", "--generate", "10,4,4,1,discrete", "--rank", "2",
                "--metric", "h2", "--freq-grid", "4,5,10"]
        assert run(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error:") and "Traceback" not in captured.err

    def test_state_bound_samples_once(self, capsys, monkeypatch):
        # both printed forms of the state error bound share one C Psi_r,
        # its sigma_min and the norms
        calls = []

        def counting(c, psi_r, what, _inner=selection._sampled):
            calls.append(what)
            return _inner(c, psi_r, what)

        monkeypatch.setattr(selection, "_sampled", counting)
        assert run(["select", "--generate", "30,8,8,2", "--rank", "3"]) == 0
        # the state bound, then the sensor and actuator log-det bounds
        assert calls == ["sensors", "sensors", "actuators"]

    def test_csv_written(self, tmp_path, capsys):
        out = tmp_path / "sel.csv"
        assert (
            run(["select", "--generate", "8,8,8,3", "--rank", "3", "--out", str(out)])
            == 0
        )
        lines = out.read_text().splitlines()
        assert lines[0] == "side,pivot_rank,index,abs_r_diag"
        assert len(lines) == 1 + 6

    def test_memory_error_exit_4(self, capsys):
        # an n x n float64 A of n = 1e8 asks for 71.1 PiB, refused before
        # anything is allocated
        assert run(["select", "--generate", "100000000,2,2,0", "--rank", "1"]) == 4
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("cap exceeded: ") and "PiB" in captured.err
        assert captured.err.count("\n") == 1

    @pytest.mark.parametrize(
        "argv",
        [
            ["select", "--generate", "3000000000,2,2,0", "--rank", "1"],
            ["select", "--generate", "100000000000000000000,2,2,0", "--rank", "1"],
            ["select", "--generate", "2,2,3000000000000000000,0,discrete", "--rank", "1"],
            ["gramians", "--generate", "3000000000,2,2,0"],
            ["bruteforce", "--generate", "3000000000,2,2,0", "--budget", "1"],
            ["bench-random", "--generate", "3000000000,2,2,0", "--rank", "1"],
        ],
        ids=["select", "select-past-intp", "select-wide-b", "gramians", "bruteforce",
             "bench-random"],
    )
    def test_sizes_numpy_refuses_exit_4(self, tmp_path, capsys, argv):
        # numpy refuses these shapes with a ValueError; the sizes are
        # checked before anything is allocated
        assert run(argv + ["--out", str(tmp_path / "out")]) == 4
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("cap exceeded: an array of shape (")
        assert captured.err.endswith("exceeds numpy's largest array size\n")
        assert captured.err.count("\n") == 1
        assert not (tmp_path / "out").exists()


class TestBruteforceCommand:
    def test_deterministic_csv_and_summary(self, tmp_path, capsys):
        out1 = tmp_path / "a.csv"
        out2 = tmp_path / "b.csv"
        args = ["bruteforce", "--generate", "10,10,10,4,discrete", "--budget", "3"]
        assert run(args + ["--out", str(out1)]) == 0
        assert run(args + ["--out", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()
        lines = out1.read_text().splitlines()
        assert lines[0] == "value"
        assert len(lines) == 1 + 120 + 1  # header + C(10,3) + summary
        assert lines[-1].startswith("# best=")

    def test_cap_exit_4(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("BALSEL_CAP", "10")
        out = tmp_path / "c.csv"
        code = run(
            [
                "bruteforce",
                "--generate",
                "10,10,10,4,discrete",
                "--budget",
                "3",
                "--out",
                str(out),
            ]
        )
        assert code == 4

    @pytest.mark.parametrize("metric", ["logdet", "trace"])
    @pytest.mark.parametrize("seed", [2, 4, 10])
    def test_qr_subset_not_below_its_own_entry(self, tmp_path, capsys, seed, metric):
        # the QR subset is scored exactly as its enumerated entry, so that
        # entry never counts as strictly below the QR value
        out = tmp_path / "bf.csv"
        spec = f"12,12,12,{seed},discrete"
        assert run(["bruteforce", "--generate", spec, "--budget", "4",
                    "--metric", metric, "--out", str(out)]) == 0
        fields = dict(line.split(" ", 1) for line in capsys.readouterr().out.splitlines())
        qr_value = float(fields["qr_value"])
        values = np.array([float(v) for v in out.read_text().splitlines()[1:-1]])
        m = models.random_stable_system(12, 12, 12, seed, time_domain="discrete")
        gamma = tuple(sorted(cli._select_on_model(m, 4, False)[2].gamma.tolist()))
        own = list(itertools.combinations(range(12), 4)).index(gamma)
        assert values[own] == qr_value
        assert float(fields["percentile"]) == 100.0 * np.mean(values < qr_value)


class TestBenchRandomCommand:
    def test_row_count_and_determinism(self, tmp_path, capsys):
        out1 = tmp_path / "r1.csv"
        out2 = tmp_path / "r2.csv"
        args = [
            "bench-random",
            "--generate",
            "12,12,12,6",
            "--rank",
            "2",
            "--seeds",
            "0",
            "--ensemble-count",
            "200",
        ]
        assert run(args + ["--out", str(out1)]) == 0
        assert run(args + ["--out", str(out2)]) == 0
        lines = out1.read_text().splitlines()
        assert lines[0] == "seed,r,qr_value,sample_id,sample_value"
        assert len(lines) == 1 + 200
        assert out1.read_bytes() == out2.read_bytes()


    @pytest.mark.parametrize(
        "option, value",
        [("--ranks", "a-b"), ("--ranks", "1,x"), ("--ranks", "5-2"), ("--seeds", "0,x")],
    )
    def test_bad_rank_or_seed_list_exit_3(self, tmp_path, capsys, option, value):
        out = tmp_path / "r.csv"
        args = ["bench-random", "--generate", "10,10,10,1", option, value, "--out", str(out)]
        assert run(args) == 3
        assert capsys.readouterr().err.startswith("parse error:")
        assert not out.exists()

    def test_huge_rank_range_names_the_largest_rank(self, tmp_path, capsys):
        # the range is never listed: a 10^9-entry list would take gigabytes
        out = tmp_path / "r.csv"
        tracemalloc.start()
        try:
            code = run(["bench-random", "--generate", "6,4,4,1", "--ranks", "1-1000000000",
                        "--out", str(out)])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 2
        assert capsys.readouterr().err == "error: rank must be between 1 and 6, got 1000000000\n"
        assert peak < 2**20
        assert not out.exists()

    def test_gramians_solved_once_for_all_seeds(self, tmp_path, capsys, schur_calls):
        out = tmp_path / "r.csv"
        args = ["bench-random", "--generate", "10,10,10,1", "--ranks", "1-3"]
        args += ["--seeds", "0,1,2", "--ensemble-count", "20", "--out", str(out)]
        assert run(args) == 0
        assert schur_calls == [10]
        # the same bytes as one independent sweep per seed
        m = models.random_stable_system(10, 10, 10, 1)
        lines = ["seed,r,qr_value,sample_id,sample_value\n"]
        for seed in (0, 1, 2):
            for row in evaluation.rank_sweep(m, [1, 2, 3], count=20, seed=seed):
                for sid, sval in enumerate(row["samples"]):
                    lines.append(
                        f"{seed},{row['r']},{row['qr_value']:.17g},{sid},{sval:.17g}\n"
                    )
        assert out.read_text() == "".join(lines)

class TestGLDemoCommand:
    def test_small_run(self, tmp_path, capsys):
        cfgfile = tmp_path / "gl.cfg"
        cfgfile.write_text("n=28\n")
        out = tmp_path / "gl"
        assert (
            run(
                [
                    "gl-demo",
                    "--gl-params",
                    str(cfgfile),
                    "--rank",
                    "2",
                    "--out",
                    str(out),
                ]
            )
            == 0
        )
        placement = (out / "placement.csv").read_text().splitlines()
        assert placement[0] == (
            "r,pair,sensor_index,sensor_xi,actuator_index,actuator_xi,h2,stable"
        )
        assert len(placement) == 1 + 1 + 2  # header + r=1 row + r=2 rows
        gain = (out / "lqg_gain.csv").read_text().splitlines()
        assert gain[0] == "omega,actuator_row,sensor_col,gain_db"
        assert len(gain) == 1 + 3 * 2 * 2

    def test_controller_synthesized_once_per_plant(self, tmp_path, capsys, monkeypatch):
        counts = {"solve_care": 0, "compute_gramians": 0}
        for name in counts:

            def counting(*args, _inner=getattr(gramian, name), _name=name):
                counts[_name] += 1
                return _inner(*args)

            monkeypatch.setattr(gramian, name, counting)
        cfgfile = tmp_path / "gl.cfg"
        cfgfile.write_text("n=28\n")
        out = tmp_path / "gl"
        assert run(["gl-demo", "--gl-params", str(cfgfile), "--rank", "3", "--out", str(out)]) == 0
        # control and filter Riccati plus the controller's gramians once,
        # then one closed-loop gramian pair per rank
        assert counts == {"solve_care": 2, "compute_gramians": 1 + 3}
        pipe = models.gl_pipeline(models.GinzburgLandauParams(n=28), r=3)
        last = (out / "placement.csv").read_text().splitlines()[-1]
        assert last.split(",")[-2:] == [f"{pipe['h2']:.17g}", str(int(pipe["stable"]))]

    def test_failed_synthesis_reported_for_every_rank(self, tmp_path, capsys, monkeypatch):
        calls = []

        def failing(*args):
            calls.append(args)
            raise SynthesisError("no stabilizing solution")

        monkeypatch.setattr(models, "lqg_synthesize", failing)
        # no rank has a result: a domain error
        assert run(["gl-demo", "--rank", "3", "--out", str(tmp_path)]) == 2
        err = capsys.readouterr().err.splitlines()
        assert err == [f"r={r}: synthesis failed: no stabilizing solution" for r in (1, 2, 3)]
        assert len(calls) == 1
        assert not (tmp_path / "lqg_gain.csv").exists()

    def test_unstable_plant_exit_2(self, tmp_path, capsys):
        # a kernel this wide makes the plant unstable, so every rank fails
        cfgfile = tmp_path / "gl.cfg"
        cfgfile.write_text("n = 28\nkernel_width = 1e300\n")
        out = tmp_path / "gl"
        assert run(["gl-demo", "--gl-params", str(cfgfile), "--rank", "2", "--out", str(out)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        err = captured.err.splitlines()
        assert len(err) == 2
        for r, line in enumerate(err, 1):
            assert line.startswith(f"r={r}: synthesis failed: model is unstable")
        assert (out / "placement.csv").read_text().count("\n") == 1  # the header
        assert not (out / "lqg_gain.csv").exists()


class TestScalingCommand:
    def test_trivial_run_writes_csv(self, tmp_path, capsys, monkeypatch):
        # shrink the sweeps through the module hooks for a smoke run
        out = tmp_path / "s.csv"
        assert run(["scaling", "--rank", "4", "--out", str(out)]) == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "sweep,n,r,seconds"
        assert len(lines) == 1 + 4 + 4
