import numpy as np
import pytest
import scipy.linalg as sla

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

    def test_real_input_stays_real(self):
        fac = matkernel.pivoted_qr(np.random.default_rng(5).standard_normal((4, 6)))
        assert not np.any(fac.q_factor.imag)
        assert not np.any(fac.r_factor.imag)

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
        """scipy's OpenBLAS thread count seen by every sla.schur call."""
        seen = []
        inner = sla.schur

        def recording(*args, **kwargs):
            seen.append(blas[0]())
            return inner(*args, **kwargs)

        monkeypatch.setattr(sla, "schur", recording)
        return seen

    def test_gl_pipeline_restores_count(self, blas, schur_threads):
        models.gl_pipeline(models.GinzburgLandauParams(n=28), r=3)
        # the Hamiltonian Schur forms of both Riccati solves, the two
        # closed-loop checks and both gramian pairs
        assert schur_threads == [1] * 6
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
        assert schur_threads == [2] * 6
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


class TestMatrixExponentialApply:
    def test_zero_time(self):
        x = np.array([1.0, 2.0])
        out = matkernel.matrix_exponential_apply(np.ones((2, 2)), 0.0, x)
        np.testing.assert_allclose(out, x)

    def test_scalar_decay(self):
        out = matkernel.matrix_exponential_apply(np.array([[-1.0]]), 1.0, [1.0])
        assert out[0] == pytest.approx(np.exp(-1.0), rel=1e-12)

    def test_diagonal_closed_form(self):
        out = matkernel.matrix_exponential_apply(
            np.diag([-1.0, -2.0]), 0.5, [1.0, 1.0]
        )
        np.testing.assert_allclose(out, [np.exp(-0.5), np.exp(-1.0)], rtol=1e-12)
