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
from balsel.errors import BalselError, FormatError

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


# raw bytes put inside a token: non-ASCII (Latin-1, UTF-8 letters, a no-break
# space, NEL and a fullwidth digit), NUL, two ASCII separators, and a comment
# holding a non-UTF-8 byte
_RAW_BYTES = [b"\xff", b"\xe9", b"\xc3\xa9", b"\xc2\xa0", b"\xc2\x85", b"\xef\xbc\x91",
              b"\x00", b"\r", b"\x1c", b" # caf\xe9\n"]


@st.composite
def model_texts(draw):
    """Model file bytes with up to three mutations."""
    tokens = [tok.encode() for tok in _model_tokens(
        draw(st.integers(0, 3)),
        draw(st.sampled_from(["continuous", "discrete"])),
        draw(st.booleans()),
    )]
    for _ in range(draw(st.integers(0, 3))):
        i = draw(st.integers(0, len(tokens) - 1))
        kind = draw(st.sampled_from(["drop", "duplicate", "replace", "replace", "size", "bytes"]))
        if kind == "drop":
            del tokens[i]
        elif kind == "duplicate":
            tokens.insert(i, tokens[i])
        elif kind == "replace":
            tokens[i] = draw(st.sampled_from(_STRAY_TOKENS)).encode()
        elif kind == "bytes":
            j = draw(st.integers(0, len(tokens[i])))
            tokens[i] = tokens[i][:j] + draw(st.sampled_from(_RAW_BYTES)) + tokens[i][j:]
        else:  # a header size, up to 10^5 x 10^5
            headers = [j for j, tok in enumerate(tokens) if tok == b"matrix"]
            if headers:
                j = draw(st.sampled_from(headers)) + draw(st.sampled_from([1, 2]))
                if j < len(tokens):
                    tokens[j] = str(draw(st.integers(0, 10**5))).encode()
        if not tokens:
            break
    return draw(st.sampled_from([b" ", b"\n"])).join(tokens) + b"\n"


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
        path.write_bytes(text)
        out = workdir / "out"
        code = run_quietly(command + ["--model", str(path), "--out", str(out)])
        assert code in EXIT_CODES
        if code == 3:
            assert not out.exists()


# ------------------------------------------------------------ reader oracle
#
# The str reader the compiled scanner replaced, kept here as an oracle: on the
# fuzz corpus both readers must give the same arrays, bit for bit, or the same
# FormatError message.  The exception is the documented tightening: a token
# float() accepts outside the ASCII grammar (underscores, non-ASCII digits)
# and non-ASCII whitespace or line ends are no longer read as numbers or
# separators, so an input with non-ASCII bytes or '_' may now be refused.


class _OracleTokens:
    def __init__(self, text):
        self._lines = iter(text.splitlines())
        self.capacity = (len(text) + 1) // 2
        self._line = []
        self._pos = 0

    def _current_line(self):
        while self._pos >= len(self._line):
            self._line = next(self._lines).split("#", 1)[0].split()
            self._pos = 0
        return self._line

    def __iter__(self):
        return self

    def __next__(self):
        line = self._current_line()
        self._pos += 1
        return line[self._pos - 1]

    def take(self, limit):
        try:
            line = self._current_line()
        except StopIteration:
            return []
        start = self._pos
        self._pos = min(len(line), start + limit)
        return line[start : self._pos]


def _oracle_entry(tok, field):
    try:
        if field == "complex":
            re_s, im_s = tok.split(",")
            return complex(float(re_s), float(im_s))
        return float(tok)
    except ValueError as exc:
        raise FormatError(f"bad matrix entry {tok!r}") from exc


def _oracle_entries(tokens, field, out):
    try:
        if field == "complex":
            parts = np.array([tok.split(",") for tok in tokens], dtype=float)
            if parts.shape[1] != 2:
                raise ValueError("complex entries need exactly one comma")
            out.real = parts[:, 0]
            out.imag = parts[:, 1]
        else:
            out[:] = np.array(tokens, dtype=float)
    except ValueError:
        out[:] = [_oracle_entry(tok, field) for tok in tokens]


def _oracle_matrix(tokens):
    try:
        head = next(tokens)
    except StopIteration as exc:
        raise FormatError("expected a matrix block") from exc
    if head != "matrix":
        raise FormatError(f"expected 'matrix' header, found {head!r}")
    try:
        rows = int(next(tokens))
        cols = int(next(tokens))
        field = next(tokens)
    except (StopIteration, ValueError) as exc:
        raise FormatError("malformed matrix header") from exc
    if rows < 0 or cols < 0:
        raise FormatError("malformed matrix header")
    if field not in ("real", "complex"):
        raise FormatError(f"unknown field tag {field!r}")
    total = rows * cols
    if total > tokens.capacity:
        raise FormatError("matrix block ended early")
    data = np.zeros(total, dtype=np.complex128 if field == "complex" else np.float64)
    filled = 0
    while filled < total:
        chunk = tokens.take(total - filled)
        if not chunk:
            raise FormatError("matrix block ended early")
        _oracle_entries(chunk, field, data[filled : filled + len(chunk)])
        filled += len(chunk)
    if not np.isfinite(data).all():
        raise FormatError("matrix has non-finite (nan or inf) entries")
    return data.reshape(rows, cols)


def oracle_read_model(text):
    tokens = _OracleTokens(text)
    try:
        head = next(tokens)
    except StopIteration as exc:
        raise FormatError("empty model file") from exc
    if head != "model":
        raise FormatError(f"expected 'model' header, found {head!r}")
    try:
        domain = next(tokens)
    except StopIteration as exc:
        raise FormatError("missing time-domain tag") from exc
    if domain not in (statespace.CONTINUOUS, statespace.DISCRETE):
        raise FormatError(f"unknown time domain {domain!r}")
    a = _oracle_matrix(tokens)
    b = _oracle_matrix(tokens)
    c = _oracle_matrix(tokens)
    extra = next(tokens, None)
    if extra is not None:
        raise FormatError(f"unexpected trailing input {extra!r}")
    try:
        return statespace.StateSpaceModel(a, b, c, time_domain=domain)
    except BalselError as exc:
        raise FormatError(str(exc)) from exc


def _outcome(read, text):
    """The model `read` makes of `text` as comparable bytes, or its FormatError message."""
    try:
        m = read(text)
    except FormatError as exc:
        return str(exc)
    return m.time_domain, [(x.dtype.str, x.shape, x.tobytes()) for x in (m.a, m.b, m.c)]


class TestReaderOracle:
    @FUZZ
    @given(model_texts())
    def test_same_arrays_or_message_as_the_str_reader(self, text):
        new = _outcome(cli.read_model, text)
        # the str reader was never handed undecodable text (its CLI ended in
        # a traceback); with U+FFFD for the bad bytes, a comment still reads
        old = _outcome(oracle_read_model, text.decode("utf-8", "replace"))
        if text.isascii() and b"_" not in text:
            assert new == old
        else:  # refused now, or read as before
            assert isinstance(new, str) or new == old


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
