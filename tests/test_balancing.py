import numpy as np
import pytest

from balsel import balancing, gramian, statespace
from balsel.errors import DimensionError, RankError
from balsel.models import random_stable_system
from balsel.statespace import StateSpaceModel


def two_state_model():
    return StateSpaceModel(np.diag([-1.0, -2.0]), [[1.0], [1.0]], [[1.0, 1.0]])


def hankel_oracle_2x2(w):
    """Eigenvalues of a symmetric 2x2 matrix by the quadratic formula."""
    tr = w[0, 0] + w[1, 1]
    det = w[0, 0] * w[1, 1] - w[0, 1] * w[1, 0]
    disc = np.sqrt(tr**2 / 4.0 - det)
    return np.array([tr / 2.0 + disc, tr / 2.0 - disc]).real


class TestBalance:
    def test_scalar(self):
        m = StateSpaceModel([[-1.0]], [[1.0]], [[1.0]])
        bal = balancing.balance(gramian.compute_gramians(m), 1)
        np.testing.assert_allclose(bal.hankel, [0.5])
        # sign convention forces the +1 representative of the +-1 pair
        np.testing.assert_allclose(bal.psi_r, [[1.0]], rtol=1e-12)
        np.testing.assert_allclose(bal.phi_r, [[1.0]], rtol=1e-12)

    def test_two_state_hankel_matches_quadratic_oracle(self):
        # W_c = W_o = [[1/2,1/3],[1/3,1/4]]; Hankel values are its eigenvalues
        m = two_state_model()
        grams = gramian.compute_gramians(m)
        expected = hankel_oracle_2x2(grams.w_c.real)
        bal = balancing.balance(grams, 2)
        np.testing.assert_allclose(bal.hankel, expected, rtol=1e-9)
        np.testing.assert_allclose(
            bal.hankel, [0.7310001560548971, 0.018999843945102847], rtol=1e-10
        )

    def test_balanced_gramian_invariants(self):
        m = random_stable_system(12, 4, 4, seed=51)
        grams = gramian.compute_gramians(m)
        r = 5
        bal = balancing.balance(grams, r)
        eye = np.eye(r)
        sig = np.diag(bal.hankel[:r])
        assert np.linalg.norm(bal.phi_r.conj().T @ bal.psi_r - eye) <= 1e-8
        wc_t = bal.phi_r.conj().T @ grams.w_c @ bal.phi_r
        wo_t = bal.psi_r.conj().T @ grams.w_o @ bal.psi_r
        assert np.linalg.norm(wc_t - sig) <= 1e-7 * np.linalg.norm(sig)
        assert np.linalg.norm(wo_t - sig) <= 1e-7 * np.linalg.norm(sig)
        # eigen relation for the product of the gramians
        lhs = grams.w_c @ grams.w_o @ bal.psi_r
        rhs = bal.psi_r @ np.diag(bal.hankel[:r] ** 2)
        assert np.linalg.norm(lhs - rhs) <= 1e-7 * np.linalg.norm(rhs)

    def test_already_balanced_input(self):
        sig = np.diag([2.0, 1.0, 0.5])
        g = gramian.GramianPair(sig.astype(complex), sig.astype(complex), 0.0, 0.0)
        bal = balancing.balance(g, 3)
        # modes are signed permutations of the identity columns
        mags = np.abs(bal.psi_r)
        np.testing.assert_allclose(np.sort(mags, axis=0)[-1], 1.0, rtol=1e-10)
        np.testing.assert_allclose(mags.sum(axis=0), 1.0, rtol=1e-10)

    def test_rank_error_names_admissible(self):
        sig = np.diag([1.0, 1e-16])
        g = gramian.GramianPair(sig.astype(complex), sig.astype(complex), 0.0, 0.0)
        with pytest.raises(RankError, match="admissible rank is 1"):
            balancing.balance(g, 2)

    def test_semidefinite_gramians_use_pivoted_factor(self):
        # rank-1 PSD gramians: plain Cholesky fails, the pivoted factor works
        u = np.array([[1.0], [2.0]])
        w = (u @ u.T).astype(complex)
        g = gramian.GramianPair(w, w, 0.0, 0.0)
        bal = balancing.balance(g, 1)
        assert bal.hankel[0] > 0
        assert np.linalg.norm(bal.phi_r.conj().T @ bal.psi_r - np.eye(1)) <= 1e-8

    @pytest.mark.parametrize("field", [float, complex])
    def test_rank_deficient_pair(self, field):
        # W = X X* of rank 4 at n = 12: the factor's zero columns keep every
        # shape, and the Hankel values are sqrt(eig(W_c W_o)), zeros included
        rng = np.random.default_rng(7)

        def low_rank():
            x = rng.standard_normal((12, 4)).astype(field)
            if field is complex:
                x += 1j * rng.standard_normal((12, 4))
            return x @ x.conj().T

        g = gramian.GramianPair(low_rank(), low_rank(), 0.0, 0.0)
        bal = balancing.balance(g, 4)
        lam = np.sort(np.abs(np.linalg.eigvals(g.w_c @ g.w_o)))[::-1]
        np.testing.assert_allclose(bal.hankel[:4], np.sqrt(lam[:4]), rtol=1e-9)
        assert np.all(bal.hankel[4:] <= 1e-12 * bal.hankel[0])
        assert bal.psi_r.shape == bal.phi_r.shape == (12, 4)
        assert np.linalg.norm(bal.phi_r.conj().T @ bal.psi_r - np.eye(4)) <= 1e-10
        with pytest.raises(RankError, match="admissible rank is 4"):
            balancing.balance(g, 5)

    def test_zero_gramians(self):
        z = np.zeros((3, 3))
        with pytest.raises(RankError, match="largest admissible rank is 0"):
            balancing.balance(gramian.GramianPair(z, z, 0.0, 0.0), 1)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_gramian_raises(self, bad):
        # ?pstrf alone would read a nan or inf diagonal as rank 0
        w = np.eye(3)
        w[1, 1] = bad
        with pytest.raises(DimensionError, match="finite"):
            balancing.balance(gramian.GramianPair(w, np.eye(3), 0.0, 0.0), 2)

    def test_hankel_similarity_invariance(self):
        m = random_stable_system(9, 3, 3, seed=52)
        grams = gramian.compute_gramians(m)
        h_ref = balancing.balance(grams, 9).hankel
        rng = np.random.default_rng(99)
        t = rng.standard_normal((9, 9)) + 0.1 * np.eye(9)
        ti = np.linalg.inv(t)
        m2 = StateSpaceModel(t @ m.a @ ti, t @ m.b, m.c @ ti)
        h_new = balancing.balance(gramian.compute_gramians(m2), 9).hankel
        np.testing.assert_allclose(h_new, h_ref, rtol=1e-7)


class TestTruncate:
    def test_full_rank_is_equivalent(self):
        m = random_stable_system(6, 2, 2, seed=53)
        bal = balancing.balance(gramian.compute_gramians(m), 6)
        red = balancing.truncate(m, bal)
        points = 1j * statespace.log_grid().points[::20]
        worst = max(
            np.abs(g - g_red).max()
            for g, g_red in zip(statespace._responses(m, points),
                                statespace._responses(red.model, points))
        )
        assert worst <= 1e-8
        assert red.error_bound == 0.0

    def test_scalar_identity(self):
        m = StateSpaceModel([[-1.0]], [[1.0]], [[1.0]])
        red = balancing.truncate(m, balancing.balance(gramian.compute_gramians(m), 1))
        [g_red] = statespace._responses(red.model, [0.5j])
        [g] = statespace._responses(m, [0.5j])
        np.testing.assert_allclose(g_red, g, rtol=1e-10)

    def test_reduced_gramians_are_diagonal_hankel(self):
        m = random_stable_system(10, 3, 3, seed=54)
        bal = balancing.balance(gramian.compute_gramians(m), 4)
        red = balancing.truncate(m, bal)
        g_red = gramian.compute_gramians(red.model)
        sig = np.diag(bal.hankel[:4])
        assert np.linalg.norm(g_red.w_c - sig) <= 1e-6 * np.linalg.norm(sig)
        assert np.linalg.norm(g_red.w_o - sig) <= 1e-6 * np.linalg.norm(sig)

    def test_error_within_tail_bound(self):
        m = random_stable_system(20, 3, 3, seed=55)
        grams = gramian.compute_gramians(m)
        grid = statespace.log_grid(1e-3, 1e3, 200)
        for r in (2, 5, 9):
            bal = balancing.balance(grams, r)
            red = balancing.truncate(m, bal)
            est = statespace.hinf_estimate(statespace.difference_model(m, red.model), grid)
            assert est <= red.error_bound + 1e-9

    def test_reduced_models_stable_at_gap_ranks(self):
        for seed in range(8):
            m = random_stable_system(8, 2, 2, seed=700 + seed)
            grams = gramian.compute_gramians(m)
            bal_full = balancing.balance(grams, 8)
            h = bal_full.hankel
            for r in range(1, 8):
                if h[r - 1] > h[r] * (1 + 1e-9):
                    red = balancing.truncate(m, balancing.balance(grams, r))
                    assert statespace.is_stable(red.model)


class TestTruncationErrorBound:
    def test_full_rank_zero(self):
        assert balancing.truncation_error_bound([3.0, 2.0, 1.0], 3) == 0.0

    def test_oracle_pair(self):
        h = [0.7310001560548971, 0.018999843945102847]
        assert balancing.truncation_error_bound(h, 1) == pytest.approx(
            0.037999687890205694, rel=1e-12
        )

    def test_all_equal(self):
        assert balancing.truncation_error_bound([1.0, 1.0, 1.0, 1.0], 2) == 4.0

    @pytest.mark.parametrize("r", [-1, -3, 4])
    def test_rank_outside_the_values_raises_rank_error(self, r):
        # a negative r would sum the last |r| values instead of failing
        with pytest.raises(RankError):
            balancing.truncation_error_bound([3.0, 2.0, 1.0], r)
