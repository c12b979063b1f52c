"""The compiled formatter of the matrix text format, and its round trips.

Every number `balsel_format` writes must be byte-identical to Python's
`f"{x:.17g}"`; the cases aim at its exact integer path (decimal shifts k in
[-32, 32]), at the edges of that path, at exact decimal ties, and at the
switches between fixed and exponent form.  The scanner must read every
written file back bit for bit.
"""

import io
import os
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from balsel import _native, cli, gramian, statespace

EXACT = settings(max_examples=300, deadline=None, derandomize=True, database=None)


def _double(bits):
    return struct.unpack("<d", struct.pack("<Q", bits))[0]


def format_block(a, cap=None):
    """Result code and bytes of one direct formatter call on 2-D `a`."""
    a = np.ascontiguousarray(a)
    pairs = np.iscomplexobj(a)
    need = a.shape[0] * (a.shape[1] * (50 if pairs else 25) + 1)
    cap = need if cap is None else cap
    buf = np.full(cap + 64, 0xAB, dtype=np.uint8)  # guard bytes past cap
    n = _native.formatter()(a.ctypes.data, a.shape[0], a.shape[1], pairs, buf.ctypes.data, cap)
    assert (buf[cap:] == 0xAB).all(), "wrote past the capacity"
    return n, bytes(buf[:max(n, 0)])


def assert_as_fstring(xs):
    xs = np.asarray(xs, dtype=np.float64)
    n, text = format_block(xs[:, None])
    got = text.decode("ascii").split("\n")[:-1]
    want = [f"{x:.17g}" for x in xs]
    assert n == len(text) and len(got) == len(want)
    bad = [(x, g, w) for x, g, w in zip(xs, got, want) if g != w]
    assert not bad, bad[:10]


def old_write_matrix(fh, a, name=None):
    """The f-string writer the compiled formatter replaced: the oracle."""
    a = np.atleast_2d(np.asarray(a))
    a = a.astype(np.complex128 if np.iscomplexobj(a) else np.float64)
    field = "real" if not np.any(a.imag) else "complex"
    if name:
        fh.write(f"# {name}\n")
    fh.write(f"matrix {a.shape[0]} {a.shape[1]} {field}\n")
    for row in a:
        if field == "real":
            fh.write(" ".join(f"{z.real:.17g}" for z in row) + "\n")
        else:
            fh.write(" ".join(f"{z.real:.17g},{z.imag:.17g}" for z in row) + "\n")


def written(writer, a):
    fh = io.StringIO()
    writer(fh, a, "X")
    return fh.getvalue()


# an odd m with m * 5^j of 18 digits: m * 2^-j is an exact decimal tie at 17
def _tie(j):
    lo = -(-10**17 // 5**j) // 2
    hi = min((10**18 // 5**j - 1) // 2, 2**52 - 1)
    return st.integers(lo, hi).map(lambda i: (2 * i + 1) * 2.0**-j)


class TestSpelledAsFString:
    @EXACT
    @given(st.lists(st.integers(0, 2**64 - 1).map(_double), min_size=1, max_size=50))
    def test_random_bit_patterns(self, xs):
        assert_as_fstring(xs)

    @EXACT
    @given(st.lists(st.integers(0, 2**52 - 1).map(_double), min_size=1, max_size=50),
           st.booleans())
    def test_subnormals(self, xs, negative):
        assert_as_fstring([-x if negative else x for x in xs])

    def test_edge_values(self):
        assert_as_fstring([
            0.0, -0.0, np.inf, -np.inf, 5e-324, -5e-324, 1e-323, 2.2250738585072009e-308,
            2.2250738585072014e-308, 1.7976931348623157e308, -1.7976931348623157e308,
            1.0, -1.0, 0.1, 1 / 3, 2.0**53, 2.0**53 + 2, 2.0**63, 2.0**64, 2.0**-25,
        ])

    @pytest.mark.parametrize("bits", [0x7FF8000000000000, 0xFFF8000000000000,
                                      0x7FF0000000000001, 0xFFFFFFFFFFFFFFFF])
    def test_nan_of_either_sign_is_nan(self, bits):
        assert format_block(np.array([[_double(bits)]]))[1] == b"nan\n"

    def test_powers_of_ten_and_their_neighbours(self):
        xs = []
        for e in range(-30, 41):
            x = float(f"1e{e}")
            xs += [x, np.nextafter(x, 0), np.nextafter(x, np.inf), -x]
        assert_as_fstring(xs)

    @EXACT
    @given(st.lists(st.integers(2, 25).flatmap(_tie), min_size=1, max_size=50))
    def test_exact_decimal_ties(self, xs):
        assert_as_fstring(xs + [-x for x in xs] + [2.0**-25])

    @EXACT
    @given(st.lists(st.tuples(st.floats(1.0, 10.0, exclude_max=True),
                              st.sampled_from([-18, -17, -16, -15, 46, 47, 48, 49, 50])),
                    min_size=1, max_size=50))
    def test_ends_of_the_exact_range(self, parts):
        # decimal exponent X = 16 - k: the exact path covers X in [-16, 48]
        assert_as_fstring([frac * 10.0**x for frac, x in parts])

    @EXACT
    @given(st.lists(st.tuples(st.sampled_from([-5, -4, 16, 17]), st.integers(-3, 3)),
                    min_size=1, max_size=50))
    def test_fixed_and_exponent_form_switches(self, parts):
        xs = []
        for x, ulps in parts:
            v = float(f"1e{x}")
            for _ in range(abs(ulps)):
                v = np.nextafter(v, np.inf if ulps > 0 else 0)
            xs += [v, 9.5 * v / 10, 9.99999999999999999 * v / 10]
        assert_as_fstring(xs)

    @EXACT
    @given(st.lists(st.tuples(st.floats(-10.0, 10.0), st.integers(-40, 60)),
                    min_size=1, max_size=50))
    def test_scaled_values(self, parts):
        assert_as_fstring([frac * 10.0**x for frac, x in parts])


class TestBlocks:
    @pytest.mark.parametrize("shape", [(0, 3), (3, 0), (0, 0), (1, 1), (2, 5), (5, 2)])
    @pytest.mark.parametrize("dtype", [np.float64, np.complex128])
    def test_shapes_as_the_old_writer(self, shape, dtype):
        rng = np.random.default_rng(7)
        a = rng.standard_normal(shape).astype(dtype)
        if dtype == np.complex128:
            a += 1j * rng.standard_normal(shape)
        assert written(cli.write_matrix, a) == written(old_write_matrix, a)

    def test_layouts_and_dtypes_as_the_old_writer(self):
        rng = np.random.default_rng(8)
        base = rng.standard_normal((6, 8)) * 10.0 ** rng.integers(-20, 20, (6, 8))
        cbase = base + 1j * rng.standard_normal((6, 8))
        for a in (base.T, base[::2, 1::3], np.asfortranarray(base), cbase.T,
                  cbase[::-1, ::2], np.asfortranarray(cbase), cbase.real + 0j,
                  base.astype(np.float32), np.arange(12).reshape(3, 4), [1.5, -2.0], 3.0):
            assert written(cli.write_matrix, a) == written(old_write_matrix, a)

    def test_complex_entries_and_separators(self):
        a = np.array([[1 + 2j, -0.0 - 0.5j], [np.inf + 1e-5j, 3 + 0j]])
        n, text = format_block(a)
        assert text == b"1,2 -0,-0.5\ninf,1.0000000000000001e-05 3,0\n" and n == len(text)

    def test_rows_are_chunked(self, monkeypatch):
        monkeypatch.setattr(cli, "_CHUNK_BYTES", 100)
        a = np.random.default_rng(9).standard_normal((37, 3))
        assert written(cli.write_matrix, a) == written(old_write_matrix, a)

    @pytest.mark.parametrize("dtype", [np.float64, np.complex128])
    def test_too_small_a_capacity_is_refused(self, dtype):
        a = (np.arange(12, dtype=np.float64).reshape(3, 4) - 5.5) / 7
        a = a.astype(dtype) * (1 + 1j if dtype == np.complex128 else 1)
        n, text = format_block(a)
        for cap in (0, 1, n // 2, n - 1):
            assert format_block(a, cap)[0] == -1
        assert format_block(a, n) == (n, text)

    def test_rows_of_no_entries_need_room_for_their_newlines(self):
        a = np.empty((3, 0))
        assert format_block(a, 2)[0] == -1
        assert format_block(a, 3) == (3, b"\n\n\n")


def _random_model(rng, n, p, q, field, domain):
    def draw(*shape):
        x = rng.standard_normal(shape)
        return x + 1j * rng.standard_normal(shape) if field == "complex" else x

    a = draw(n, n)
    radius = np.abs(np.linalg.eigvals(a)).max()
    if domain == statespace.DISCRETE:
        a *= 0.9 / radius
    else:
        a -= (radius + 0.5) * np.eye(n)
    return statespace.StateSpaceModel(a, draw(n, q), draw(p, n), time_domain=domain)


class TestRoundTrip:
    @pytest.mark.parametrize("field", ["real", "complex"])
    @pytest.mark.parametrize("domain", [statespace.CONTINUOUS, statespace.DISCRETE])
    def test_models_read_back_bit_for_bit(self, field, domain):
        rng = np.random.default_rng(11)
        for n, p, q in ((1, 1, 1), (7, 3, 5), (30, 30, 2)):
            m = _random_model(rng, n, p, q, field, domain)
            fh = io.StringIO()
            cli.write_model(fh, m)
            back = cli.read_model(fh.getvalue())
            assert back.time_domain == m.time_domain
            for x, y in ((m.a, back.a), (m.b, back.b), (m.c, back.c)):
                assert x.dtype == y.dtype
                assert (x.view(np.uint64) == y.view(np.uint64)).all()

    @EXACT
    @given(st.integers(0, 6), st.integers(0, 6), st.booleans(), st.data())
    def test_bit_pattern_matrices_read_back_bit_for_bit(self, rows, cols, pairs, data):
        finite = st.integers(0, 2**64 - 1).map(_double).filter(np.isfinite)
        a = np.array(data.draw(st.lists(finite, min_size=rows * cols * (1 + pairs),
                                        max_size=rows * cols * (1 + pairs))),
                     dtype=np.float64)
        a = (a.view(np.complex128) if pairs else a).reshape(rows, cols)
        back = cli.read_matrix(written(cli.write_matrix, a))
        want = a if np.any(a.imag) else a.real
        assert back.shape == want.shape and back.dtype == want.dtype
        assert (back.view(np.uint64) == want.view(np.uint64)).all()

    @pytest.mark.parametrize("field", ["real", "complex"])
    def test_gramian_files_read_back_equal(self, tmp_path, field):
        m = _random_model(np.random.default_rng(12), 9, 4, 3, field, statespace.CONTINUOUS)
        with open(tmp_path / "m.txt", "w") as fh:
            cli.write_model(fh, m)
        assert cli.main(["gramians", "--model", str(tmp_path / "m.txt"),
                         "--out", str(tmp_path)]) == 0
        grams = gramian.compute_gramians(m)
        for name, want in (("Wc.txt", grams.w_c), ("Wo.txt", grams.w_o)):
            with open(os.path.join(tmp_path, name), "rb") as fh:
                back = cli.read_matrix(fh.read())
            assert (back.view(np.uint64) == want.view(np.uint64)).all()
