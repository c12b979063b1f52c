"""Derandomized fuzzing of the command line.

Mutated model files and mutated option values run through `cli.main` in
process.  Every run must end in a documented exit code (0, 2, 3 or 4)
with no exception escaping, and a command line with a malformed option
value must exit 3 without writing its output.  `--generate` sizes stay at
or below 12: a valid large spec really allocates.
"""

import contextlib
import io
import tempfile
from pathlib import Path

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from balsel import cli, models, statespace

FUZZ = settings(
    max_examples=300,
    deadline=None,
    derandomize=True,
    database=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)

EXIT_CODES = {0, 2, 3, 4}


def run_quietly(argv):
    """Exit code of `cli.main(argv)`, its stdout and stderr captured."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        return cli.main(argv)


# ------------------------------------------------------------ model files


def _model_tokens(seed, domain, complex_field):
    m = models.random_stable_system(3, 2, 2, seed, time_domain=domain)
    if complex_field:  # A becomes a block of "re,im" entries
        m = statespace.StateSpaceModel(m.a + 1e-3j * np.eye(3), m.b, m.c, time_domain=domain)
    buf = io.StringIO()
    cli.write_model(buf, m)
    return [tok for line in buf.getvalue().splitlines() for tok in line.split("#")[0].split()]


# half of them still parse as a real entry
_STRAY_TOKENS = ["nan", "inf", "-inf", "1,nan", "inf,0", ",", "1,", ",1", "1,2,3", "x",
                 "#", "matrix", "model", "real", "complex", "continuous", "discrete",
                 "0", "-1", "1e308", "1e-320", "99999", "100000", "0.5", "-0.5", "3",
                 "-3", "1e-8", "1e8", "-1e8", "2.5e-3", "7", "-7", "0.0", "-0.0",
                 "1e-300", "-2", "0.25", "4", "1e3", "-1e3", "1e-3"]


@st.composite
def model_texts(draw):
    tokens = _model_tokens(
        draw(st.integers(0, 3)),
        draw(st.sampled_from(["continuous", "discrete"])),
        draw(st.booleans()),
    )
    for _ in range(draw(st.integers(0, 3))):
        i = draw(st.integers(0, len(tokens) - 1))
        kind = draw(st.sampled_from(["drop", "duplicate", "replace", "replace", "size"]))
        if kind == "drop":
            del tokens[i]
        elif kind == "duplicate":
            tokens.insert(i, tokens[i])
        elif kind == "replace":
            tokens[i] = draw(st.sampled_from(_STRAY_TOKENS))
        else:  # a header size, up to 10^5 x 10^5
            headers = [j for j, tok in enumerate(tokens) if tok == "matrix"]
            if headers:
                j = draw(st.sampled_from(headers)) + draw(st.sampled_from([1, 2]))
                if j < len(tokens):
                    tokens[j] = str(draw(st.integers(0, 10**5)))
        if not tokens:
            break
    return draw(st.sampled_from([" ", "\n"])).join(tokens) + "\n"


class TestModelFileFuzz:
    @FUZZ
    @given(
        model_texts(),
        st.sampled_from([
            ["gramians"],
            ["select", "--rank", "1"],
            ["select", "--rank", "2", "--metric", "h2", "--freq-grid", "0.1,10,5"],
            ["bruteforce", "--budget", "2"],
        ]),
    )
    def test_documented_exit_code(self, tmp_path, text, command):
        workdir = Path(tempfile.mkdtemp(dir=tmp_path))
        path = workdir / "m.txt"
        path.write_text(text)
        out = workdir / "out"
        code = run_quietly(command + ["--model", str(path), "--out", str(out)])
        assert code in EXIT_CODES
        if code == 3:
            assert not out.exists()


# ------------------------------------------------------------ option values


def _tagged(good, bad):
    """(value, malformed) pairs: one in ten drawn from `bad`, the rest from `good`."""
    return st.tuples(st.integers(0, 9), good, bad).map(
        lambda t: (t[2], True) if t[0] == 5 else (t[1], False)
    )


def _ints(lo, hi):
    return st.integers(lo, hi).map(str)


_BAD_INT = st.sampled_from(["x", "", "1.5", "0", "-1", "1e3", "2,3", "nan", "--rank"])
RANK = _tagged(st.one_of(_ints(1, 3), _ints(1, 12)), _BAD_INT)
CAP = _tagged(_ints(1, 10**6), _BAD_INT)
COUNT = _tagged(_ints(1, 30), _BAD_INT)
GENERATE = _tagged(
    st.tuples(_ints(3, 12), _ints(1, 12), _ints(1, 12), _ints(0, 5),
              st.sampled_from(["", ",continuous", ",discrete"]))
    .map(lambda t: ",".join(t[:4]) + t[4]),
    st.sampled_from(["8,8,8", "8,8,8,1,weird", "a,b,c,d", "8,8,8,-1", "", "8,8,8,1,discrete,x",
                     "8.0,8,8,1"]),
)
FREQ_GRID = _tagged(
    st.sampled_from(["0.01,100,20", "0.1,10,5", "1,1,1", "0.5,2,3"]),
    st.sampled_from(["garbage", "1,0.1,5", "-1,10,5", "0,1,5", "1,10", "1,10,0", "1,10,x",
                     "inf,inf,1", "nan,1,2", "1,1,3", ""]),
)
RANKS = _tagged(
    st.sampled_from(["1-3", "2", "1,3", "1-12", "3,1"]),
    st.sampled_from(["a-b", "1,x", "5-2", "0-2", "", "-3", "1-2-3", "0", ","]),
)
SEEDS = _tagged(
    st.sampled_from(["0", "0,1", "7"]),
    st.sampled_from(["0,x", "-1", "", "1.5", ","]),
)
_UNKNOWN = [(["--rnak", "3"], True), (["--bogus"], True)]


@st.composite
def command_lines(draw):
    """(argv, malformed) for select, bruteforce or bench-random."""
    command = draw(st.sampled_from(["select", "bruteforce", "bench-random"]))
    metrics = ["logdet", "trace", "h2"] if command == "select" else ["logdet", "trace"]
    options = {"--generate": GENERATE}
    if command == "bench-random":
        options.update({"--rank": RANK, "--ranks": RANKS, "--seeds": SEEDS,
                        "--ensemble-count": COUNT})
    else:
        options.update({
            "--rank": RANK,
            "--budget": RANK,
            "--metric": _tagged(st.sampled_from(metrics), st.sampled_from(["foo", "", "h3"])),
        })
    if command == "select":
        options["--freq-grid"] = FREQ_GRID
    if command == "bruteforce":
        options["--cap"] = CAP
    # a model source and a rank are always given, the rest at random
    required = {"--generate", "--ranks" if command == "bench-random" else "--rank"}
    argv, malformed = [command], False
    for option, values in options.items():
        if option in required or draw(st.booleans()):
            value, bad = draw(values)
            argv += [option, value]
            malformed |= bad
    if command != "bench-random" and draw(st.booleans()):
        argv.append("--no-collocate")
    if draw(st.integers(0, 9)) == 0:
        extra, bad = draw(st.sampled_from(_UNKNOWN))
        argv += extra
        malformed |= bad
    return argv, malformed


class TestOptionFuzz:
    @FUZZ
    @given(command_lines())
    def test_malformed_values_exit_3(self, tmp_path, monkeypatch, case):
        monkeypatch.delenv("BALSEL_CAP", raising=False)
        argv, malformed = case
        out = Path(tempfile.mkdtemp(dir=tmp_path)) / "out.csv"
        code = run_quietly(argv + ["--out", str(out)])
        assert code in EXIT_CODES
        if malformed:
            assert code == 3
        if code == 3:
            assert not out.exists()
