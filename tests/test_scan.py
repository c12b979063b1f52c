"""The compiled number scanner of the matrix text format, and its build.

Every number the scanner converts must be bit-identical to Python's
`float()` of the same token; the cases aim at its exact fast path (at most
19 significant digits, decimal exponent within +-27), at the edges of that
path, and at decimal strings next to the midpoints between two doubles,
where rounding twice would go wrong.
"""

import ctypes
import os
import re
import shutil
import struct
import subprocess
import sys
import sysconfig
from decimal import Decimal, localcontext
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import balsel
from balsel import _native, cli
from balsel.errors import BuildError, FormatError

EXACT = settings(max_examples=300, deadline=None, derandomize=True, database=None)


def scan_reals(tokens):
    """`tokens` read as one real matrix row by `cli.read_matrix`."""
    return cli.read_matrix(f"matrix 1 {len(tokens)} real\n" + " ".join(tokens) + "\n")[0]


def raw_scan(buf, count, length=None):
    """Entries read, values and stop offset of one direct real-block scanner call."""
    out = np.zeros(count)
    stop = ctypes.c_ssize_t()
    length = len(buf) if length is None else length
    n = _native.scanner()(buf, length, 0, 0, out.ctypes.data, count, ctypes.byref(stop))
    return n, out, stop.value


def assert_as_float(tokens):
    got = scan_reals(tokens)
    want = np.array([float(t) for t in tokens])
    same = got.view(np.uint64) == want.view(np.uint64)
    assert same.all(), [(t, g, w) for t, g, w, ok in zip(tokens, got, want, same) if not ok]


def _finite_double(bits):
    return struct.unpack("<d", struct.pack("<Q", bits))[0]


def _midpoint(x, below=False):
    """The exact midpoint between double `x > 0` and its neighbour above
    (below when `below`)."""
    y = float(np.nextafter(x, 0.0 if below else np.inf))
    return (Fraction(x) + Fraction(y)) / 2


def _decimal(q, digits):
    """Fraction `q` rounded to `digits` significant decimal digits."""
    with localcontext() as ctx:
        ctx.prec = digits
        return format(Decimal(q.numerator) / Decimal(q.denominator), "e")


class TestBitIdenticalToFloat:
    @EXACT
    @given(st.lists(st.integers(0, 2**64 - 1).map(_finite_double).filter(np.isfinite),
                    min_size=1, max_size=20))
    def test_printed_random_bit_patterns(self, xs):
        assert_as_float([f % x for x in xs for f in ("%.17g", "%r", "%.15g", "%.6e")])

    @EXACT
    @given(st.lists(st.tuples(st.sampled_from(["", "+", "-"]), st.integers(0, 3),
                              st.integers(0, 10**21 - 1), st.integers(0, 22),
                              st.integers(-40, 40)),
                    min_size=1, max_size=20))
    def test_signs_leading_zeros_and_long_mantissas(self, parts):
        tokens = []
        for sign, zeros, mantissa, point, exp in parts:
            digits = "0" * zeros + str(mantissa)
            point = min(point, len(digits))
            tokens.append(f"{sign}{digits[:point]}.{digits[point:]}e{exp}")
            tokens.append(f"{sign}{digits}")
        assert_as_float(tokens)

    @EXACT
    @given(st.lists(st.tuples(st.integers(1, 10**19 - 1),
                              st.sampled_from([-28, -27, -26, 0, 22, 23, 26, 27, 28])),
                    min_size=1, max_size=20))
    def test_exponents_at_the_fast_path_edge(self, parts):
        tokens = []
        for mantissa, k in parts:
            tokens += [f"{mantissa}e{k}", f"-{mantissa}E{k:+d}", f"0.{mantissa}e{k}"]
        assert_as_float(tokens)

    def test_extremes(self):
        assert_as_float([
            "1e-320", "-1e-320", "4.9406564584124654e-324", "2.4703282292062328e-324",
            "2.4703282292062327e-324", "2.2250738585072011e-308", "2.2250738585072014e-308",
            "1.7976931348623157e308", "-1.7976931348623157e308", "1.7976931348623158e308",
            "1e-400", "0", "-0", "0.000", "-0.0e999999999999999999999", ".5", "5.", "-.5e-0",
            "1e+0000000000000000000000000000000000000002", "0." + "0" * 400 + "1",
            "1" + "0" * 400 + "e-400", "123456789012345678901234567890",
            "9007199254740993", "9007199254740992.5", "1e23", "9999999999999999999",
            "18446744073709551615", "18446744073709551616",
        ])

    @EXACT
    @given(st.lists(st.tuples(st.floats(1.0, 2.0), st.integers(-40, 150), st.booleans()),
                    min_size=1, max_size=20))
    def test_near_midpoints(self, parts):
        tokens = []
        for frac, exp, below_power in parts:
            x = 2.0**exp if below_power else frac * 2.0**exp
            mid = _midpoint(x, below=below_power)
            # 17-19 digits: the fast path, within 5e-18 of the midpoint
            tokens += [_decimal(mid, digits) for digits in (17, 18, 19)]
            # within 1e-25 (relative) on either side, and the midpoint itself
            tokens += [_decimal(mid * (1 + Fraction(s, 10**25)), 30) for s in (-1, 1)]
            tokens.append(_decimal(mid, 60))
        assert_as_float(tokens)

    @EXACT
    @given(st.lists(st.tuples(st.floats(1.0, 10.0, exclude_max=True),
                              st.sampled_from([-28, -27, 27, 28]), st.integers(17, 19)),
                    min_size=1, max_size=20))
    def test_near_midpoints_at_the_fast_path_edge(self, parts):
        # `digits` significant digits of a midpoint near frac * 10^(k + digits - 1):
        # a mantissa of that many digits times 10^k
        assert_as_float([_decimal(_midpoint(frac * 10.0 ** (k + digits - 1)), digits)
                         for frac, k, digits in parts])

    def test_exact_ties_round_to_even(self):
        # 2^53 + 1 and 2^53 + 3 are exact midpoints with 16 digits
        assert_as_float(["9007199254740993", "9007199254740995", "4503599627370496.5"])


class TestGrammar:
    @pytest.mark.parametrize(
        "token, value",
        [("inf", np.inf), ("-Infinity", -np.inf), ("+INF", np.inf), ("1.", 1.0),
         ("-.25", -0.25), ("1E+2", 100.0), ("0e5", 0.0)],
    )
    def test_accepted(self, token, value):
        n, out, _ = raw_scan(token.encode() + b" 1", 2)
        assert n == 2 and out.tolist() == [value, 1.0]

    @pytest.mark.parametrize("token", ["nan", "-NaN", "inf", "-Infinity"])
    def test_non_finite_scanned_then_rejected(self, token):
        assert raw_scan(token.encode(), 1)[0] == 1
        with pytest.raises(FormatError, match="non-finite"):
            scan_reals([token])

    @pytest.mark.parametrize(
        "token",
        ["1_0", "1e", "1e+", ".", "+", "e5", "infinit", "infx", "nana", "0x10", "1d5",
         "1.5f", "--1", "1..2", "nan(1)", "\uff11", "\u0661"],
    )
    def test_rejected_with_the_token_named(self, token):
        quoted = repr(token.encode())[1:]
        with pytest.raises(FormatError, match=rf"^bad matrix entry {re.escape(quoted)}$"):
            scan_reals(["1", token, "2"])

    @pytest.mark.parametrize("sep", ["\t", "\n", "\v", "\f", "\r", "\x1c", "\x1d", "\x1e",
                                     "\x1f", " ", "\r\n"])
    def test_ascii_separators(self, sep):
        text = f"matrix{sep}1{sep}2{sep}real{sep}1{sep}2{sep}"
        np.testing.assert_array_equal(cli.read_matrix(text), [[1.0, 2.0]])

    @pytest.mark.parametrize("sep", ["\xa0", "\u2003", "\x85", "\u2028", "\u3000"])
    def test_non_ascii_whitespace_is_not_a_separator(self, sep):
        with pytest.raises(FormatError, match="^bad matrix entry"):
            cli.read_matrix(f"matrix 1 2 real\n1{sep}2\n")

    @pytest.mark.parametrize("end", ["\n", "\r", "\v", "\f", "\x1c", "\x1d", "\x1e"])
    def test_comment_ends_at_ascii_line_ends(self, end):
        text = f"matrix 1 2 real # x{end}1 # \x1f 9 9{end}2"
        np.testing.assert_array_equal(cli.read_matrix(text), [[1.0, 2.0]])

    def test_comments_hold_any_bytes(self):
        text = b"matrix 1 2 complex # caf\xe9 \xff\x00\n1,2 # \xc3\xa9\n3,-4 #\x80"
        np.testing.assert_array_equal(cli.read_matrix(text), [[1 + 2j, 3 - 4j]])

    def test_entry_ends_at_a_comment(self):
        np.testing.assert_array_equal(cli.read_matrix("matrix 1 2 real\n1#x\n2"), [[1.0, 2.0]])

    @pytest.mark.parametrize("token", ["1", "1,2,3", ",1", "1,", "1, 2", "inf,", "1;2"])
    def test_complex_needs_exactly_one_comma(self, token):
        with pytest.raises(FormatError, match="^bad matrix entry"):
            cli.read_matrix(f"matrix 1 2 complex\n0,0 {token}\n")

    def test_str_and_bytes_read_alike(self):
        text = "model discrete\nmatrix 1 1 complex\n0.5,-1e-3 # é\nmatrix 1 1 real 2 matrix 1 1 real 3"
        a, b = cli.read_model(text), cli.read_model(text.encode())
        for x, y in ((a.a, b.a), (a.b, b.b), (a.c, b.c)):
            assert x.dtype == y.dtype
            np.testing.assert_array_equal(x, y)

    @pytest.mark.parametrize(
        "buf, length, read, values",
        [(b"12345 6", 3, 1, [123.0, 0.0]),
         (b"1.5e10", 4, 0, [0.0, 0.0]),  # "1.5e" has no exponent digits
         (b"1 infinity", 5, 2, [1.0, np.inf]),
         (b"1 # 2", 2, 1, [1.0, 0.0])],
    )
    def test_never_reads_past_the_given_length(self, buf, length, read, values):
        n, out, stop = raw_scan(buf, 2, length)
        assert n == read and stop <= length
        np.testing.assert_array_equal(out, values)

    def test_exponent_digits_saturate(self):
        big = "9" * 5000
        np.testing.assert_array_equal(scan_reals([f"1e-{big}", f"0e{big}"]), [0.0, 0.0])
        with pytest.raises(FormatError, match="non-finite"):
            scan_reals([f"1e{big}"])


# ------------------------------------------------------------------ build


@pytest.fixture
def fresh_build(monkeypatch, tmp_path):
    """Library caches cleared, and the build cache moved to an empty
    directory, for the test and restored after it."""
    monkeypatch.setattr(_native, "_CACHE", str(tmp_path / "cache"))
    _native.library.cache_clear()
    _native.scanner.cache_clear()
    yield tmp_path / "cache"
    _native.library.cache_clear()
    _native.scanner.cache_clear()


@pytest.fixture
def compiler_calls(monkeypatch):
    calls = []
    real = subprocess.run

    def counting(cmd, *args, **kwargs):
        calls.append(cmd)
        return real(cmd, *args, **kwargs)

    monkeypatch.setattr(subprocess, "run", counting)
    return calls


def _set_compiler(monkeypatch, command):
    real = sysconfig.get_config_var
    monkeypatch.setattr(sysconfig, "get_config_var",
                        lambda name: command if name == "CC" else real(name))


class TestBuild:
    def test_import_runs_no_compiler(self):
        code = (
            "import subprocess\n"
            "def refuse(*args, **kwargs):\n"
            "    raise AssertionError('a process was started')\n"
            "subprocess.run = subprocess.Popen = refuse\n"
            "import balsel, balsel.cli\n"
            "from balsel import _native\n"
            "assert _native.library.cache_info().currsize == 0\n"
            "print('ok')\n"
        )
        src = os.path.dirname(os.path.dirname(balsel.__file__))
        env = dict(os.environ, PYTHONPATH=src)
        proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                              text=True, check=False)
        assert proc.stdout == "ok\n", proc.stderr

    def test_second_read_reuses_the_built_library(self, fresh_build, compiler_calls):
        text = "matrix 1 1 real\n1.5\n"
        assert cli.read_matrix(text)[0, 0] == 1.5
        assert len(compiler_calls) == 1
        _native.library.cache_clear()
        _native.scanner.cache_clear()
        assert cli.read_matrix(text)[0, 0] == 1.5
        assert len(compiler_calls) == 1
        assert [p.suffix for p in fresh_build.iterdir()] == [".so"]

    def test_a_new_source_hash_builds_a_new_file(self, tmp_path, compiler_calls):
        source = tmp_path / "_scan.c"
        shutil.copy(os.path.join(os.path.dirname(_native.__file__), "_scan.c"), source)
        first = _native._build(str(source), str(tmp_path))
        assert _native._build(str(source), str(tmp_path)) == first
        assert len(compiler_calls) == 1
        with open(source, "a") as fh:
            fh.write("/* edited */\n")
        second = _native._build(str(source), str(tmp_path))
        assert second != first and os.path.exists(first) and os.path.exists(second)
        assert len(compiler_calls) == 2
        assert not [p for p in tmp_path.iterdir() if p.suffix == ".tmp"]

    def test_unwritable_cache_builds_in_a_temporary_directory(
        self, tmp_path, monkeypatch, fresh_build, compiler_calls
    ):
        blocker = tmp_path / "a-file"
        blocker.write_text("")
        monkeypatch.setattr(_native, "_CACHE", str(blocker / "cache"))
        assert cli.read_matrix("matrix 1 1 real\n2\n")[0, 0] == 2.0
        assert len(compiler_calls) == 1

    @pytest.mark.parametrize(
        "command, message",
        [("sh -c 'echo cc: fatal error: no input >&2; echo second >&2; exit 1' --",
          "failed: cc: fatal error: no input$"),
         ("false", "failed: exit code 1$"),
         ("/nonexistent/cc", "^cannot run /nonexistent/cc -O2")],
        ids=["compiler-error", "silent-failure", "no-compiler"],
    )
    def test_failing_compiler_raises_build_error(self, monkeypatch, fresh_build, command,
                                                 message):
        _set_compiler(monkeypatch, command)
        with pytest.raises(BuildError, match=message):
            cli.read_matrix("matrix 1 1 real\n1\n")
        assert not fresh_build.exists() or not list(fresh_build.iterdir())

    def test_unloadable_library_raises_build_error(self, tmp_path):
        garbage = tmp_path / "_scan-0000000000000000.so"
        garbage.write_bytes(b"not a shared library")
        with pytest.raises(BuildError, match="^cannot load "):
            _native._load(str(garbage))

    def test_failing_compiler_exits_5_without_traceback(self, tmp_path, monkeypatch, capsys,
                                                        fresh_build):
        model = tmp_path / "m.txt"
        model.write_text("model continuous\n" + "matrix 1 1 real\n-1\n" * 3)
        _set_compiler(monkeypatch, "false")
        assert cli.main(["select", "--model", str(model), "--rank", "1"]) == cli.EXIT_BUILD == 5
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("build error: false -O2 -shared -fPIC")
        assert captured.err.count("\n") == 1
