import numpy as np
import pytest
import scipy.linalg as sla
from hypothesis import given, settings
from hypothesis import strategies as st

from balsel import matkernel, models
from balsel.errors import DimensionError, NumericError, SingularMatrixError
from conftest import pivot_oracle


def random_complex(rng, m, n):
    return rng.standard_normal((m, n)) + 1j * rng.standard_normal((m, n))


def check_diag_dominance(r_factor):
    m, n = r_factor.shape
    for i in range(min(m, n)):
        lead = abs(r_factor[i, i]) ** 2
        for k in range(i, n):
            tail = np.sum(np.abs(r_factor[i : min(k + 1, m), k]) ** 2)
            assert lead >= tail, (i, k, lead, tail)


class TestPivotedQR:
    def test_wide_example(self):
        fac = matkernel.pivoted_qr([[1, 0, 2], [0, 1, 0]])
        assert fac.pivot_order.tolist() == [2, 1, 0]
        np.testing.assert_allclose(fac.r_diagonal, [2.0, 1.0, 0.0], atol=1e-14)

    def test_identity_tie_break(self):
        fac = matkernel.pivoted_qr(np.eye(3))
        assert fac.pivot_order.tolist() == [0, 1, 2]
        np.testing.assert_allclose(fac.r_diagonal, [1.0, 1.0, 1.0])

    def test_empty_raises(self):
        with pytest.raises(DimensionError):
            matkernel.pivoted_qr(np.zeros((0, 3)))

    def test_matches_projection_oracle_complex(self):
        rng = np.random.default_rng(7)
        v = random_complex(rng, 6, 10)
        fac = matkernel.pivoted_qr(v)
        assert fac.pivot_order[:6].tolist() == pivot_oracle(v, 6)

    @pytest.mark.parametrize("seed", range(25))
    def test_matches_oracle_many_shapes(self, seed):
        rng = np.random.default_rng(1000 + seed)
        m = int(rng.integers(2, 9))
        n = int(rng.integers(m, 16))
        v = random_complex(rng, m, n)
        fac = matkernel.pivoted_qr(v)
        assert fac.pivot_order[:m].tolist() == pivot_oracle(v, m)
        check_diag_dominance(fac.r_factor)

    def test_reconstruction_and_monotonicity(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            m = int(rng.integers(2, 51))
            n = int(rng.integers(2, 51))
            v = random_complex(rng, m, n)
            fac = matkernel.pivoted_qr(v)
            err = np.linalg.norm(v[:, fac.pivot_order] - fac.q_factor @ fac.r_factor)
            assert err <= 1e-9 * np.linalg.norm(v)
            q = fac.q_factor
            assert np.linalg.norm(q @ q.conj().T - np.eye(m)) < 1e-10
            steps = min(m, n)
            assert np.all(np.diff(fac.r_diagonal[:steps]) <= 1e-12)

    def test_unpivoted_refactorization_matches_r_diagonal(self):
        rng = np.random.default_rng(11)
        v = random_complex(rng, 5, 8)
        fac = matkernel.pivoted_qr(v)
        r_ref = np.linalg.qr(v[:, fac.pivot_order], mode="r")
        np.testing.assert_allclose(
            np.abs(np.diag(r_ref)), fac.r_diagonal[:5], atol=1e-10
        )

    def test_leading_volume_equals_rdiag_product(self):
        rng = np.random.default_rng(12)
        for seed in range(5):
            v = random_complex(np.random.default_rng(seed), 5, 8)
            fac = matkernel.pivoted_qr(v)
            lead = v[:, fac.pivot_order[:5]]
            vol = abs(np.linalg.det(lead))
            np.testing.assert_allclose(vol, np.prod(fac.r_diagonal[:5]), rtol=1e-9)

    def test_forbidden_columns_never_pivoted(self):
        rng = np.random.default_rng(4)
        v = random_complex(rng, 4, 9)
        forbidden = [0, 3, 5]
        fac = matkernel.pivoted_qr(v, forbidden=forbidden)
        assert not set(fac.pivot_order[: fac.n_steps].tolist()) & set(forbidden)
        err = np.linalg.norm(v[:, fac.pivot_order] - fac.q_factor @ fac.r_factor)
        assert err <= 1e-10 * np.linalg.norm(v)

    def test_duplicated_columns_tie_to_lowest_index(self):
        # a duplicated column ties exactly with its twin at every step
        for seed in range(40):
            rng = np.random.default_rng(seed)
            v = random_complex(rng, 10, 5) if seed % 2 else rng.standard_normal((10, 5))
            src, dst = rng.choice(5, size=2, replace=False)
            v[:, dst] = v[:, src]
            assert matkernel.pivoted_qr(v).pivot_order[:4].tolist() == pivot_oracle(v, 4)

    def test_stale_norms_are_recomputed(self):
        # two columns within 1e-8 of the first pivot: their downdated norms
        # are pure cancellation, and only the recomputed ones order them
        for seed in range(30):
            rng = np.random.default_rng(seed)
            a = rng.standard_normal(5)
            near = [a + 1e-8 * rng.standard_normal(5) for _ in range(2)]
            v = np.column_stack([a, *near, rng.standard_normal(5)])
            assert matkernel.pivoted_qr(v).pivot_order.tolist() == pivot_oracle(v, 4)

    def test_real_input_stays_real(self):
        fac = matkernel.pivoted_qr(np.random.default_rng(5).standard_normal((4, 6)))
        assert not np.any(fac.q_factor.imag)
        assert not np.any(fac.r_factor.imag)

    @pytest.mark.parametrize("layout", ["C", "F"])
    def test_input_is_not_aliased(self, layout):
        # the factors are formed on first read, from the result's own copy
        v = np.array(np.random.default_rng(19).standard_normal((5, 8)), order=layout)
        original = v.copy()
        fac = matkernel.pivoted_qr(v, max_pivots=3)
        np.testing.assert_array_equal(v, original)
        v[:] = 0.0
        q, r = fac.q_factor, fac.r_factor
        assert q.dtype == r.dtype == np.float64
        err = np.linalg.norm(original[:, fac.pivot_order] - q @ r)
        assert err <= 1e-12 * np.linalg.norm(original)

    def test_mostly_forbidden_still_factors_exactly(self):
        rng = np.random.default_rng(17)
        v = random_complex(rng, 5, 6)
        fac = matkernel.pivoted_qr(v, forbidden=[0, 1, 2, 3, 4])
        assert fac.n_steps == 1
        assert fac.pivot_order[0] == 5
        err = np.linalg.norm(v[:, fac.pivot_order] - fac.q_factor @ fac.r_factor)
        assert err <= 1e-10 * np.linalg.norm(v)
        assert np.linalg.norm(np.tril(fac.r_factor, -1)) == 0.0

    def test_max_pivots_completes_factorization(self):
        rng = np.random.default_rng(18)
        v = random_complex(rng, 8, 5)
        fac = matkernel.pivoted_qr(v, max_pivots=2)
        assert fac.n_steps == 2
        assert fac.r_diagonal.size == 2
        assert fac.pivot_order[:2].tolist() == pivot_oracle(v, 2)
        err = np.linalg.norm(v[:, fac.pivot_order] - fac.q_factor @ fac.r_factor)
        assert err <= 1e-10 * np.linalg.norm(v)
        assert np.linalg.norm(np.tril(fac.r_factor, -1)) == 0.0


class TestFactorizationResiduals:
    def test_hundred_seeded_matrices_up_to_50(self):
        # reconstruction residuals of all three factorizations stay below
        # 1e-9 relative across 100 seeded matrices with sizes up to 50x50
        rng = np.random.default_rng(2718)
        for _ in range(100):
            m = int(rng.integers(2, 51))
            n = int(rng.integers(2, 51))
            a = random_complex(rng, m, n)
            fac = matkernel.pivoted_qr(a)
            err = np.linalg.norm(a[:, fac.pivot_order] - fac.q_factor @ fac.r_factor)
            assert err <= 1e-9 * np.linalg.norm(a)
            u, s, v = matkernel.svd(a)
            sig = np.zeros((m, n))
            sig[: min(m, n), : min(m, n)] = np.diag(s)
            assert np.linalg.norm(a - u @ sig @ v.conj().T) <= 1e-9 * np.linalg.norm(a)
            sq = a[: min(m, n), : min(m, n)]
            uu, t = matkernel.schur(sq)
            assert np.linalg.norm(sq - uu @ t @ uu.conj().T) <= 1e-9 * max(
                np.linalg.norm(sq), 1e-300
            )


class TestSVD:
    def test_diagonal(self):
        _, s, _ = matkernel.svd(np.diag([3.0, 1.0]))
        np.testing.assert_allclose(s, [3.0, 1.0])

    def test_zero_matrix(self):
        _, s, _ = matkernel.svd(np.zeros((3, 2)))
        np.testing.assert_allclose(s, 0.0)

    def test_random_reconstruction_unitarity(self):
        rng = np.random.default_rng(8)
        a = random_complex(rng, 8, 5)
        u, s, v = matkernel.svd(a)
        sig = np.zeros((8, 5))
        sig[:5, :5] = np.diag(s)
        assert np.linalg.norm(a - u @ sig @ v.conj().T) <= 1e-10 * np.linalg.norm(a)
        assert np.linalg.norm(u.conj().T @ u - np.eye(8)) <= 1e-10
        assert np.linalg.norm(v.conj().T @ v - np.eye(5)) <= 1e-10
        # squared singular values are the eigenvalues of a* a
        lam = np.sort(np.linalg.eigvalsh(a.conj().T @ a))[::-1]
        np.testing.assert_allclose(s**2, lam, rtol=1e-10, atol=1e-12)

    @pytest.mark.parametrize("shape", [(8, 5), (5, 8), (6, 6)])
    def test_real_input_reconstructs(self, shape):
        # a real matrix is factored in real arithmetic and its factors
        # stay real, with the same contract
        a = np.random.default_rng(10).standard_normal(shape)
        u, s, v = matkernel.svd(a)
        assert u.dtype == v.dtype == np.float64
        sig = np.zeros(shape)
        k = min(shape)
        sig[:k, :k] = np.diag(s)
        assert np.linalg.norm(a - u @ sig @ v.conj().T) <= 1e-13 * np.linalg.norm(a)
        assert np.linalg.norm(u.conj().T @ u - np.eye(shape[0])) <= 1e-13
        assert np.linalg.norm(v.conj().T @ v - np.eye(shape[1])) <= 1e-13


class TestSchur:
    def test_diagonal(self):
        u, t = matkernel.schur(np.diag([-1.0, -2.0]))
        np.testing.assert_allclose(np.triu(t, 1), 0.0, atol=1e-14)
        np.testing.assert_allclose(sorted(np.diag(t).real), [-2.0, -1.0])

    def test_rotation_eigenvalues(self):
        _, t = matkernel.schur([[0.0, 1.0], [-1.0, 0.0]])
        np.testing.assert_allclose(sorted(np.diag(t).imag), [-1.0, 1.0], atol=1e-12)
        np.testing.assert_allclose(np.diag(t).real, 0.0, atol=1e-12)

    def test_random_residual(self):
        rng = np.random.default_rng(9)
        a = random_complex(rng, 10, 10)
        u, t = matkernel.schur(a)
        assert np.linalg.norm(a @ u - u @ t) <= 1e-9 * np.linalg.norm(a)
        assert np.linalg.norm(np.tril(t, -1)) <= 1e-12 * np.linalg.norm(a)

    @pytest.mark.parametrize(
        "a",
        [
            np.array([[0.0, 1.0], [-1.0, 0.0]]),
            np.diag([2.0, 2.0, 2.0]) + np.diag([1.0, 1.0], 1),
            np.random.default_rng(11).standard_normal((40, 40)),
        ],
        ids=["rotation", "jordan", "random"],
    )
    def test_real_input(self, a):
        # real Schur form split into 1x1 blocks by rsf2csf: the triangular
        # factor must be exactly upper triangular, as for complex input
        u, t = matkernel.schur(a)
        assert u.dtype == t.dtype == np.complex128
        assert not np.any(np.tril(t, -1))
        n = a.shape[0]
        assert np.linalg.norm(u.conj().T @ u - np.eye(n)) <= 1e-13
        assert np.linalg.norm(u @ t @ u.conj().T - a) <= 1e-13 * np.linalg.norm(a)

    def test_random_real_input_has_conjugate_pairs(self):
        a = np.random.default_rng(11).standard_normal((40, 40))
        lam = np.diag(matkernel.schur(a)[1])
        assert np.sum(np.abs(lam.imag) > 1e-8) >= 2
        # every eigenvalue (both members of each pair) is on the diagonal
        ref = np.linalg.eigvals(a)
        gap = np.abs(lam[:, None] - ref[None, :])
        assert gap.min(axis=0).max() <= 1e-10 * np.abs(ref).max()
        assert gap.min(axis=1).max() <= 1e-10 * np.abs(ref).max()


def _block_rich(n, seed):
    """A real n x n matrix with n // 2 complex-conjugate eigenvalue pairs,
    so its real Schur form has n // 2 2x2 blocks."""
    rng = np.random.default_rng(seed)
    d = np.zeros((n, n))
    for k in range(0, n - 1, 2):
        d[k : k + 2, k : k + 2] = [[-0.1 * k, 1.0 + k], [-(1.0 + k), -0.1 * k]]
    if n % 2:
        d[-1, -1] = -1.0
    q = np.linalg.qr(rng.standard_normal((n, n)))[0]
    return q @ (d + np.triu(rng.standard_normal((n, n)), 2)) @ q.T


class TestFold:
    """The real Schur form folded into the complex one against scipy's rsf2csf,
    which splits the same real form block by block in a Python loop."""

    @pytest.mark.parametrize(
        "a",
        [
            np.array([[0.0, 1.0], [-1.0, 0.0]]),
            _block_rich(41, 1),
            _block_rich(120, 2),
            np.random.default_rng(3).standard_normal((60, 60)),
            np.triu(np.random.default_rng(4).standard_normal((30, 30))),
            np.array([[2.0]]),
        ],
        ids=["rotation", "blocks-41", "blocks-120", "random-60", "triangular", "scalar"],
    )
    def test_matches_rsf2csf(self, a):
        form = matkernel.schur(a)
        with matkernel._one_lapack_thread():
            r, v = sla.schur(a, output="real")
        t_ref, u_ref = sla.rsf2csf(r, v)
        assert form.pairs.size == np.count_nonzero(np.diag(r, -1))
        scale = max(1.0, np.abs(a).max())
        assert np.abs(form.u - u_ref).max() <= 1e-13
        assert np.abs(form.t - t_ref).max() <= 1e-13 * scale
        assert not np.any(np.tril(form.t, -1))

    def test_no_blocks_leaves_the_real_form(self):
        a = np.triu(np.random.default_rng(6).standard_normal((20, 20)))
        form = matkernel.schur(a + a.T)  # symmetric: real eigenvalues only
        assert form.pairs.size == 0
        np.testing.assert_array_equal(form.u, form.v)
        assert not np.any(form.t.imag)

    def test_fold_unfold_and_adjoint(self):
        a = _block_rich(41, 7)
        form = matkernel.schur(a)
        x = np.random.default_rng(8).standard_normal((41, 41))
        np.testing.assert_allclose(form.fold(x), form.u.conj().T @ form.v @ x @ form.v.T @ form.u,
                                   atol=1e-13 * np.abs(x).max())
        np.testing.assert_allclose(form.unfold(form.fold(x)), x, atol=1e-14 * np.abs(x).max())
        adj = form.adjoint()
        np.testing.assert_allclose(adj.u, form.u[:, ::-1], atol=1e-15)
        u, t = adj
        assert not np.any(np.tril(t, -1))
        assert np.linalg.norm(u @ t @ u.conj().T - a.T) <= 1e-13 * np.linalg.norm(a)


class TestOneLapackThread:
    """Schur forms run with scipy's OpenBLAS at one thread; its count comes back."""

    @pytest.fixture
    def blas(self):
        blas = matkernel._scipy_openblas()
        if blas is None:
            pytest.skip("scipy bundles no OpenBLAS here")
        get, put = blas
        saved = get()
        put(2)  # a count the scope visibly changes
        yield blas
        put(saved)

    @pytest.fixture
    def schur_threads(self, monkeypatch, blas):
        """scipy's OpenBLAS thread count seen by every sla.schur and
        sla.eigvals call."""
        seen = []
        for name in ("schur", "eigvals"):

            def recording(*args, _inner=getattr(sla, name), **kwargs):
                seen.append(blas[0]())
                return _inner(*args, **kwargs)

            monkeypatch.setattr(sla, name, recording)
        return seen

    def test_gl_pipeline_restores_count(self, blas, schur_threads):
        models.gl_pipeline(models.GinzburgLandauParams(n=28), r=3)
        # the two Riccati closed-loop eigenvalue checks and both gramian
        # pairs; the Riccati solves themselves converge by doubling
        assert schur_threads == [1] * 4
        assert blas[0]() == 2

    def test_restored_when_body_raises(self, monkeypatch, blas):
        def failing(*args, **kwargs):
            assert blas[0]() == 1
            raise sla.LinAlgError("no convergence")

        monkeypatch.setattr(sla, "schur", failing)
        with pytest.raises(NumericError, match="did not converge"):
            matkernel.schur(np.eye(3) + 1j * np.eye(3))
        assert blas[0]() == 2

    def test_nested_scopes_restore_outer_count(self, blas):
        get, put = blas
        with matkernel._one_lapack_thread():
            assert get() == 1
            put(3)
            with matkernel._one_lapack_thread():
                assert get() == 1
            assert get() == 3
        assert get() == 2

    def test_without_the_library_is_a_no_op(self, monkeypatch, blas, schur_threads):
        params = models.GinzburgLandauParams(n=28)
        ref = models.gl_pipeline(params, r=3)
        schur_threads.clear()
        monkeypatch.setattr(matkernel, "_scipy_openblas", lambda: None)
        out = models.gl_pipeline(params, r=3)
        assert schur_threads == [2] * 4
        assert blas[0]() == 2
        assert out["selection"].gamma.tolist() == ref["selection"].gamma.tolist()
        assert out["selection"].beta.tolist() == ref["selection"].beta.tolist()
        assert out["h2"] == pytest.approx(ref["h2"], rel=1e-9)


class TestLogdetAbs:
    def test_identity(self):
        assert matkernel.logdet_abs(np.eye(5)) == pytest.approx(0.0, abs=1e-14)

    def test_diag(self):
        assert matkernel.logdet_abs(np.diag([2.0, 3.0])) == pytest.approx(np.log(6.0))

    def test_gramian_closed_form(self):
        w = np.array([[0.5, 1 / 3], [1 / 3, 0.25]])
        assert matkernel.logdet_abs(w) == pytest.approx(np.log(1 / 72), rel=1e-12)

    def test_singular_raises(self):
        with pytest.raises(SingularMatrixError):
            matkernel.logdet_abs(np.array([[1.0, 1.0], [1.0, 1.0]]))


class TestPivotingArguments:
    @pytest.mark.parametrize("forbidden", [[-1], [6], [0, 2.0], np.ones(6, dtype=bool)])
    def test_bad_forbidden_raises(self, forbidden):
        v = np.random.default_rng(20).standard_normal((3, 6))
        with pytest.raises(DimensionError, match="forbidden"):
            matkernel.pivoted_qr(v, forbidden=forbidden)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, 1e200])
    def test_non_finite_or_overflowing_input_raises(self, bad):
        v = np.random.default_rng(23).standard_normal((3, 5))
        v[1, 2] = bad
        with pytest.raises(DimensionError, match="nan, inf or overflowing"):
            matkernel.pivoted_qr(v)

    def test_negative_max_pivots_raises(self):
        with pytest.raises(DimensionError, match="max_pivots"):
            matkernel.pivoted_qr(np.eye(3), max_pivots=-2)

    def test_tail_in_ascending_order(self):
        v = np.random.default_rng(21).standard_normal((3, 9))
        fac = matkernel.pivoted_qr(v, forbidden=[8, 1], max_pivots=2)
        tail = fac.pivot_order[2:].tolist()
        assert tail == sorted(set(range(9)) - set(fac.pivot_order[:2].tolist()))

    def test_rows_exhausted_lowest_index(self):
        v = np.random.default_rng(22).standard_normal((2, 7))
        fac = matkernel.pivoted_qr(v, forbidden=[0], max_pivots=5)
        rest = sorted(set(range(1, 7)) - set(fac.pivot_order[:2].tolist()))
        assert fac.pivot_order[2:5].tolist() == rest[:3]
        assert fac.r_diagonal[2:].tolist() == [0.0, 0.0, 0.0]


@st.composite
def pivoting_inputs(draw):
    """A random (m, n) matrix, real or complex, with drawn structure:
    duplicated columns (exact ties), columns within 1e-5..1e-8 of another
    (their downdated norms go stale), zero columns, a forbidden set and a
    pivot limit."""
    m = draw(st.integers(1, 7))
    n = draw(st.integers(1, 12))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    v = rng.standard_normal((m, n))
    if draw(st.booleans()):
        v = v + 1j * rng.standard_normal((m, n))
    col = st.integers(0, n - 1)
    for src, dst in draw(st.lists(st.tuples(col, col), max_size=3)):
        v[:, dst] = v[:, src]
    for src, dst, eps in draw(
        st.lists(st.tuples(col, col, st.sampled_from([1e-5, 1e-7, 1e-8])), max_size=2)
    ):
        if src != dst:
            v[:, dst] = v[:, src] + eps * np.linalg.norm(v[:, src]) * rng.standard_normal(m)
    for dst in draw(st.lists(col, max_size=2)):
        v[:, dst] = 0.0
    forbidden = sorted(draw(st.sets(col, max_size=n)))
    max_pivots = draw(st.none() | st.integers(0, min(m, n)))
    return v, forbidden, max_pivots


def determined_pivots(v, forbidden, fac):
    """How many leading pivots the numbers decide: up to the numerical rank
    of the allowed columns (beyond it every residual is roundoff)."""
    allowed = [j for j in range(v.shape[1]) if j not in set(forbidden)]
    rank = np.linalg.matrix_rank(v[:, allowed], tol=1e-10 * max(np.linalg.norm(v), 1e-300))
    return min(fac.n_steps, int(rank))


PROPERTY = settings(max_examples=200, deadline=None, derandomize=True, database=None)


class TestPivotingProperties:
    @PROPERTY
    @given(pivoting_inputs())
    def test_pivots_match_oracle(self, case):
        v, forbidden, max_pivots = case
        fac = matkernel.pivoted_qr(v, forbidden, max_pivots)
        allowed = v.shape[1] - len(forbidden)
        assert fac.n_steps == min(allowed, v.shape[1] if max_pivots is None else max_pivots)
        assert not set(fac.pivot_order[: fac.n_steps].tolist()) & set(forbidden)
        k = determined_pivots(v, forbidden, fac)
        assert fac.pivot_order[:k].tolist() == pivot_oracle(v, k, forbidden)

    @PROPERTY
    @given(pivoting_inputs())
    def test_r_diagonal_matches_unpivoted_qr(self, case):
        v, forbidden, max_pivots = case
        fac = matkernel.pivoted_qr(v, forbidden, max_pivots)
        steps = min(fac.n_steps, v.shape[0])
        ref = np.abs(np.diag(np.linalg.qr(v[:, fac.pivot_order], mode="r")))[:steps]
        scale = max(1.0, np.linalg.norm(v))
        np.testing.assert_allclose(fac.r_diagonal[:steps], ref, rtol=0, atol=1e-10 * scale)
        assert not fac.r_diagonal[steps:].any()

    @PROPERTY
    @given(pivoting_inputs())
    def test_factors_reconstruct_and_q_unitary(self, case):
        v, forbidden, max_pivots = case
        fac = matkernel.pivoted_qr(v, forbidden, max_pivots)
        q, r = fac.q_factor, fac.r_factor
        scale = max(1.0, np.linalg.norm(v))
        assert np.linalg.norm(v[:, fac.pivot_order] - q @ r) <= 1e-12 * scale
        assert np.linalg.norm(q.conj().T @ q - np.eye(v.shape[0])) <= 1e-12
        assert not np.tril(r, -1).any()
        assert np.all(np.diag(r).real >= 0.0) and not np.diag(r).imag.any()

    @PROPERTY
    @given(pivoting_inputs(), st.sampled_from([1e-8, 1e8]))
    def test_pivots_scale_invariant(self, case, scale):
        v, forbidden, max_pivots = case
        fac = matkernel.pivoted_qr(v, forbidden, max_pivots)
        scaled = matkernel.pivoted_qr(scale * v, forbidden, max_pivots)
        k = determined_pivots(v, forbidden, fac)
        assert scaled.pivot_order[:k].tolist() == fac.pivot_order[:k].tolist()

    @PROPERTY
    @given(pivoting_inputs())
    def test_reading_factors_keeps_pivots(self, case):
        v, forbidden, max_pivots = case
        fac = matkernel.pivoted_qr(v, forbidden, max_pivots)
        order, rdiag = fac.pivot_order.copy(), fac.r_diagonal.copy()
        fac.q_factor, fac.r_factor
        np.testing.assert_array_equal(fac.pivot_order, order)
        np.testing.assert_array_equal(fac.r_diagonal, rdiag)
