import itertools

import numpy as np
import pytest

from balsel import balancing, evaluation, gramian, matkernel, selection
from balsel.errors import (
    DimensionError,
    FeasibilityError,
    NumericError,
    RankError,
    SingularMatrixError,
)
from balsel.models import random_stable_system
from balsel.statespace import StateSpaceModel


def balanced_system(n=8, p=8, q=8, seed=60, r=3):
    m = random_stable_system(n, p, q, seed=seed)
    grams = gramian.compute_gramians(m)
    bal = balancing.balance(grams, r)
    return m, grams, bal


def symmetric_system(n=7, seed=61):
    """A = A*, B = C*: direct and adjoint modes coincide up to scaling."""
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((n, n))
    a = 0.5 * (a + a.T)
    a -= (np.linalg.eigvalsh(a).max() + 0.3) * np.eye(n)
    return StateSpaceModel(a, np.eye(n), np.eye(n))


def scaled_states_within_tail(rng, psi_r, phi_r, tail, count, n):
    """Random states whose out-of-span residual stays within `tail`."""
    states = []
    for _ in range(count):
        x = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        span = psi_r @ (phi_r.conj().T @ x)
        v = x - span
        nv = np.linalg.norm(v)
        if nv > 0 and tail > 0:
            v *= rng.uniform(0.0, 1.0) * tail / nv
        elif tail == 0:
            v *= 0.0
        states.append(span + v)
    return states


class TestSelectSensors:
    def test_canonical_columns(self):
        psi = np.zeros((4, 2))
        psi[1, 0] = 1.0
        psi[3, 1] = 1.0
        gamma, _ = selection.select_sensors(np.eye(4), psi)
        assert sorted(gamma.tolist()) == [1, 3]

    def test_rank_one_is_argmax(self):
        rng = np.random.default_rng(62)
        psi = rng.standard_normal((6, 1))
        gamma, _ = selection.select_sensors(np.eye(6), psi)
        assert gamma[0] == np.argmax(np.abs(psi[:, 0]))

    def test_seeded_logdet_in_top_decile(self):
        m, grams, bal = balanced_system(seed=60, r=3)
        gamma, _ = selection.select_sensors(m.c, bal.psi_r)
        gram_sensor = m.c @ grams.w_c @ m.c.conj().T
        qr_val = evaluation.logdet_objective(gamma, gram_sensor)
        all_vals = sorted(
            evaluation.logdet_objective(list(idx), gram_sensor)
            for idx in itertools.combinations(range(8), 3)
        )
        # 56 subsets; top decile starts at index 50
        assert qr_val >= all_vals[50]

    def test_pivot_order_is_greedy_importance(self):
        m, grams, bal = balanced_system(seed=63, r=4)
        gamma, r_diag = selection.select_sensors(m.c, bal.psi_r)
        assert np.all(np.diff(r_diag) <= 1e-12)
        assert len(set(gamma.tolist())) == 4

    def test_global_scaling_invariance(self):
        m, grams, bal = balanced_system(seed=64, r=3)
        g1, _ = selection.select_sensors(m.c, bal.psi_r)
        g2, _ = selection.select_sensors(3.7 * m.c, bal.psi_r)
        assert g1.tolist() == g2.tolist()


class TestSelectActuators:
    def test_canonical_rows(self):
        phi = np.zeros((4, 2))
        phi[0, 0] = 1.0
        phi[2, 1] = 1.0
        beta, _ = selection.select_actuators(np.eye(4), phi)
        assert sorted(beta.tolist()) == [0, 2]

    def test_symmetric_system_matches_sensors(self):
        m = symmetric_system()
        grams = gramian.compute_gramians(m)
        bal = balancing.balance(grams, 3)
        gamma, _ = selection.select_sensors(m.c, bal.psi_r)
        beta, _ = selection.select_actuators(m.b, bal.phi_r)
        assert gamma.tolist() == beta.tolist()

    def test_seeded_logdet_in_top_decile(self):
        m, grams, bal = balanced_system(seed=65, r=3)
        beta, _ = selection.select_actuators(m.b, bal.phi_r)
        gram_act = m.b.conj().T @ grams.w_o @ m.b
        qr_val = evaluation.logdet_objective(beta, gram_act)
        all_vals = sorted(
            evaluation.logdet_objective(list(idx), gram_act)
            for idx in itertools.combinations(range(8), 3)
        )
        assert qr_val >= all_vals[50]


class TestSelectNoncollocated:
    def test_symmetric_disjoint(self):
        m = symmetric_system()
        grams = gramian.compute_gramians(m)
        bal = balancing.balance(grams, 3)
        # collocation happens without the flag ...
        plain = selection.select_subsets(m.c, m.b, bal.psi_r, bal.phi_r)
        assert set(plain.gamma.tolist()) == set(plain.beta.tolist())
        # ... and is excluded with it
        sel = selection.select_noncollocated(m.c, m.b, bal.psi_r, bal.phi_r)
        assert not set(sel.gamma.tolist()) & set(sel.beta.tolist())

    def test_infeasible_when_no_headroom(self):
        m = symmetric_system(n=3)
        grams = gramian.compute_gramians(m)
        bal = balancing.balance(grams, 3)
        with pytest.raises(FeasibilityError):
            selection.select_noncollocated(m.c, m.b, bal.psi_r, bal.phi_r)

    def test_actuators_past_the_sensors_exclude_none(self):
        # q > p: both chosen actuators, [6, 4], have no sensor of their index
        m = random_stable_system(8, 4, 7, 2)
        bal = balancing.balance(gramian.compute_gramians(m), 2)
        sel = selection.select_noncollocated(m.c, m.b, bal.psi_r, bal.phi_r)
        assert sel.beta.tolist() == [6, 4]
        gamma, r_diag = selection.select_sensors(m.c, bal.psi_r)
        assert sel.gamma.tolist() == gamma.tolist()
        np.testing.assert_array_equal(sel.r_diag_sensors, r_diag)

    def test_mixed_actuators_exclude_exactly_the_sensors_below_p(self):
        # beta = [6, 0] on p = 4 sensors: sensor 0 alone is excluded
        m = random_stable_system(8, 4, 7, 7)
        bal = balancing.balance(gramian.compute_gramians(m), 2)
        sel = selection.select_noncollocated(m.c, m.b, bal.psi_r, bal.phi_r)
        assert sel.beta.tolist() == [6, 0]
        assert 0 in selection.select_sensors(m.c, bal.psi_r)[0].tolist()
        fac = matkernel.pivoted_qr((m.c @ bal.psi_r).conj().T, [0], max_pivots=2)
        assert sel.gamma.tolist() == fac.pivot_order[:2].tolist()
        np.testing.assert_array_equal(sel.r_diag_sensors, fac.r_diagonal[:2])


class TestProjection:
    def test_in_span_reproduction(self):
        m, grams, bal = balanced_system(seed=67, r=3)
        gamma, _ = selection.select_sensors(m.c, bal.psi_r)
        op = selection.sensor_projection(m.c, bal.psi_r, gamma)
        rng = np.random.default_rng(0)
        x = bal.psi_r @ (rng.standard_normal(3) + 1j * rng.standard_normal(3))
        np.testing.assert_allclose(selection.project_state(op, x), x, atol=1e-8)

    def test_idempotence(self):
        m, grams, bal = balanced_system(seed=68, r=3)
        gamma, _ = selection.select_sensors(m.c, bal.psi_r)
        op = selection.sensor_projection(m.c, bal.psi_r, gamma)
        rng = np.random.default_rng(1)
        x = rng.standard_normal(8)
        once = selection.project_state(op, x)
        twice = selection.project_state(op, once)
        assert np.linalg.norm(twice - once) <= 1e-8 * max(np.linalg.norm(once), 1.0)

    def test_full_selection_is_identity(self):
        m, grams, _ = balanced_system(seed=69, r=3)
        bal = balancing.balance(grams, 8)
        gamma, _ = selection.select_sensors(m.c, bal.psi_r)
        op = selection.sensor_projection(m.c, bal.psi_r, gamma)
        x = np.arange(1.0, 9.0)
        np.testing.assert_allclose(selection.project_state(op, x), x, atol=1e-8)


class TestBounds:
    def test_pivot_inverse_norm_bound_holds(self):
        for seed in range(10):
            rng = np.random.default_rng(800 + seed)
            u = rng.standard_normal((9, 3))
            fac_gamma, _ = selection.select_sensors(np.eye(9), u)
            inv_norm = np.linalg.norm(np.linalg.inv(u[fac_gamma, :]), 2)
            assert inv_norm <= selection.pivot_inverse_norm_bound(u) * (1 + 1e-12)

    def test_interpolation_chain_arbitrary_states(self):
        m, grams, bal = balanced_system(n=10, p=10, q=10, seed=70, r=4)
        gamma, _ = selection.select_sensors(m.c, bal.psi_r)
        op = selection.sensor_projection(m.c, bal.psi_r, gamma)
        chat_psi = op.sampled_rows
        factor = (
            np.linalg.norm(bal.psi_r, 2)
            * np.linalg.norm(np.linalg.inv(chat_psi), 2)
            * np.linalg.norm(m.c, 2)
        )
        rng = np.random.default_rng(2)
        for _ in range(200):
            x = rng.standard_normal(10) + 1j * rng.standard_normal(10)
            xstar = bal.psi_r @ (bal.phi_r.conj().T @ x)
            lhs = np.linalg.norm(x - selection.project_state(op, x))
            rhs = factor * np.linalg.norm(x - xstar)
            assert lhs <= rhs * (1 + 1e-10)

    def test_sensor_error_bound_monte_carlo(self):
        m, grams, bal = balanced_system(n=20, p=20, q=20, seed=71, r=4)
        gamma, _ = selection.select_sensors(m.c, bal.psi_r)
        op = selection.sensor_projection(m.c, bal.psi_r, gamma)
        bound = selection.sensor_state_error_bound(m.c, bal.psi_r, bal.hankel)
        tail = 2.0 * bal.hankel[4:].sum()
        rng = np.random.default_rng(3)
        for x in scaled_states_within_tail(rng, bal.psi_r, bal.phi_r, tail, 300, 20):
            err = np.linalg.norm(x - selection.project_state(op, x))
            assert err <= bound * (1 + 1e-9)

    def test_actuator_error_bound_monte_carlo(self):
        m, grams, bal = balanced_system(n=20, p=20, q=20, seed=72, r=4)
        beta, _ = selection.select_actuators(m.b, bal.phi_r)
        op = selection.actuator_projection(m.b, bal.phi_r, beta)
        bound = selection.actuator_state_error_bound(m.b, bal.phi_r, bal.hankel)
        tail = 2.0 * bal.hankel[4:].sum()
        rng = np.random.default_rng(4)
        for z in scaled_states_within_tail(rng, bal.phi_r, bal.psi_r, tail, 300, 20):
            err = np.linalg.norm(z - selection.project_state(op, z))
            assert err <= bound * (1 + 1e-9)

    def test_bounds_zero_at_full_rank(self):
        m, grams, _ = balanced_system(seed=73)
        bal = balancing.balance(grams, 8)
        assert selection.sensor_state_error_bound(m.c, bal.psi_r, bal.hankel) == 0.0
        assert selection.actuator_state_error_bound(m.b, bal.phi_r, bal.hankel) == 0.0

    def test_sqrt_p_form_is_looser(self):
        m, grams, bal = balanced_system(seed=74, r=3)
        tight, loose = selection._state_error_bounds(m.c, bal.psi_r, bal.hankel, "sensors")
        assert tight == selection.sensor_state_error_bound(m.c, bal.psi_r, bal.hankel)
        assert tight <= loose

    def test_scalar_logdet_bound_is_tight(self):
        hankel = np.array([0.5])
        c = np.eye(1)
        psi = np.eye(1)
        bound = selection.sensor_logdet_lower_bound(c, psi, hankel, gamma=[0])
        achieved = selection.achieved_rank_r_logdet(c, psi, hankel, [0])
        assert bound == pytest.approx(np.log(0.5), rel=1e-12)
        assert achieved == pytest.approx(np.log(0.5), rel=1e-12)

    def test_achieved_logdet_matches_slogdet(self):
        rng = np.random.default_rng(96)
        c, modes = rng.standard_normal((12, 6)), rng.standard_normal((6, 3))
        hankel = np.array([3.0, 2.0, 1.0, 0.5, 0.2, 0.1])
        hat = c[[4, 0, 7]] @ modes
        sign, expected = np.linalg.slogdet((hat * hankel[:3]) @ hat.T)
        assert sign == 1.0
        achieved = selection.achieved_rank_r_logdet(c, modes, hankel, [4, 0, 7])
        assert achieved == pytest.approx(expected, rel=1e-12)

    @pytest.mark.parametrize("row", ["duplicated", "near_duplicated", "zero"])
    def test_achieved_logdet_of_a_singular_block_raises(self, row):
        # the bound is finite, but the selected rows span fewer than r
        # directions, exactly or to working precision
        rng = np.random.default_rng(97)
        c, modes = rng.standard_normal((12, 6)), rng.standard_normal((6, 3))
        noise = 1e-16 * rng.standard_normal(6) if row == "near_duplicated" else 0.0
        c[1] = 0.0 if row == "zero" else c[0] + noise
        hankel = np.array([3.0, 2.0, 1.0, 0.5, 0.2, 0.1])
        with pytest.raises(SingularMatrixError, match="^matrix is singular to working precision$"):
            selection.sensor_logdet_lower_bound(c, modes, hankel, [0, 1, 2])

    def test_logdet_lower_bounds_hold_seeded(self):
        for seed in range(10):
            m, grams, bal = balanced_system(n=9, p=9, q=9, seed=900 + seed, r=3)
            gamma, _ = selection.select_sensors(m.c, bal.psi_r)
            beta, _ = selection.select_actuators(m.b, bal.phi_r)
            # the check argument raises NumericError on violation
            selection.sensor_logdet_lower_bound(m.c, bal.psi_r, bal.hankel, gamma)
            selection.actuator_logdet_lower_bound(m.b, bal.phi_r, bal.hankel, beta)

    def test_symmetric_duals_agree(self):
        m = symmetric_system()
        grams = gramian.compute_gramians(m)
        bal = balancing.balance(grams, 3)
        s_bound = selection.sensor_state_error_bound(m.c, bal.psi_r, bal.hankel)
        a_bound = selection.actuator_state_error_bound(m.b, bal.phi_r, bal.hankel)
        assert s_bound == pytest.approx(a_bound, rel=1e-6)
        gamma, _ = selection.select_sensors(m.c, bal.psi_r)
        beta, _ = selection.select_actuators(m.b, bal.phi_r)
        ls = selection.sensor_logdet_lower_bound(m.c, bal.psi_r, bal.hankel, gamma)
        la = selection.actuator_logdet_lower_bound(m.b, bal.phi_r, bal.hankel, beta)
        assert ls == pytest.approx(la, rel=1e-6)


class TestBoundsNeedCandidates:
    """Fewer candidates than the rank: every bound and projector raises,
    none returns nan."""

    RNG = np.random.default_rng(90)
    MODES = RNG.standard_normal((6, 3))
    FEW = RNG.standard_normal((2, 6))  # 2 candidate rows for r = 3
    HANKEL = np.array([3.0, 2.0, 1.0, 0.5])

    @pytest.mark.parametrize(
        "call, what",
        [
            (lambda t: selection.pivot_inverse_norm_bound(t.FEW @ t.MODES), "rows"),
            (lambda t: selection.sensor_state_error_bound(t.FEW, t.MODES, t.HANKEL), "sensors"),
            (lambda t: selection.actuator_state_error_bound(t.FEW.T, t.MODES, t.HANKEL), "actuators"),
            (lambda t: selection.sensor_logdet_lower_bound(t.FEW, t.MODES, t.HANKEL), "sensors"),
            (lambda t: selection.actuator_logdet_lower_bound(t.FEW.T, t.MODES, t.HANKEL), "actuators"),
            (lambda t: selection.sensor_projection(t.FEW, t.MODES, [0, 1, 1]), "sensors"),
            (lambda t: selection.actuator_projection(t.FEW.T, t.MODES, [0, 1, 1]), "actuators"),
        ],
        ids=["pivot_inverse_norm", "sensor_state", "actuator_state", "sensor_logdet", "actuator_logdet",
             "sensor_projection", "actuator_projection"],
    )
    def test_raises_dimension_error(self, call, what):
        with pytest.raises(DimensionError, match=f"need at least r=3 candidate {what}, have 2"):
            call(self)


class TestStateErrorBoundNorms:
    @pytest.mark.parametrize("field", [float, complex])
    def test_matches_full_svd_norms(self, field):
        # ||C||_2 and ||Psi_r||_2 come from short-side Gram matrices
        rng = np.random.default_rng(91)
        c = rng.standard_normal((40, 7)).astype(field)
        psi = rng.standard_normal((7, 3)).astype(field)
        if field is complex:
            c += 1j * rng.standard_normal(c.shape)
            psi += 1j * rng.standard_normal(psi.shape)
        hankel = np.array([4.0, 2.0, 1.0, 0.3, 0.1])
        sv = np.linalg.svd(c @ psi, compute_uv=False)
        growth = np.sqrt(40 - 3 + 1.0) * np.sqrt(4.0**3 + 6.0 * 3 - 1.0) / 3.0
        expected = np.linalg.norm(c, 2) * np.linalg.norm(psi, 2) / sv[-1] * growth * 0.8
        got = selection.sensor_state_error_bound(c, psi, hankel)
        assert got == pytest.approx(expected, rel=1e-13)

    @staticmethod
    def _with_singular_values(field, shape, sv, seed=92):
        """A `shape` matrix in `field` whose singular values are `sv`."""
        rng = np.random.default_rng(seed)
        p, r = max(shape), min(shape)

        def orthonormal(rows):
            z = rng.standard_normal((rows, r))
            if field is complex:
                z = z + 1j * rng.standard_normal((rows, r))
            return np.linalg.qr(z)[0]

        tall = (orthonormal(p) * sv) @ orthonormal(r).conj().T
        return tall if shape[0] >= shape[1] else tall.T

    @pytest.mark.parametrize("ratio", [0.5, 1e-1, 1e-3, 1e-13])
    @pytest.mark.parametrize("shape", [(60, 6), (6, 60)], ids=["tall", "wide"])
    @pytest.mark.parametrize("field", [float, complex])
    def test_smin_gram_or_svd(self, field, shape, ratio, monkeypatch):
        # sigma_min from the r x r Gram unless (sigma_min/sigma_max)^2 is
        # at most _GRAM_TOL; the SVD decides there and keeps the rank test
        mat = self._with_singular_values(field, shape, np.geomspace(2.0, 2.0 * ratio, 6))
        want = np.linalg.svd(mat, compute_uv=False)[-1]
        svd, calls = np.linalg.svd, []
        monkeypatch.setattr(np.linalg, "svd", lambda *a, **k: calls.append(1) or svd(*a, **k))
        if ratio < 1e-12:
            v = mat if shape[0] < shape[1] else mat.conj().T  # r x candidates
            with pytest.raises(RankError, match="rank-deficient"):
                selection._pivots(v, 6, "sensors")
            with pytest.raises(RankError):
                selection._smin(mat, "the input", rtol=1e-12)
            return
        assert selection._smin(mat, "the input") == pytest.approx(want, rel=1e-12, abs=0)
        assert len(calls) == (1 if ratio == 1e-3 else 0)


class TestStateBoundFromTheGramOfC:
    """With p >= n the state bound reads ||C||_2 and sigma_min(C Psi_r) from
    one C* C; below sigma_min = 1e-2 ||C|| ||Psi_r||, and for every p < n,
    sigma_min comes from C Psi_r as before."""

    @staticmethod
    def _random(field, shape, rng):
        z = rng.standard_normal(shape)
        return z + 1j * rng.standard_normal(shape) if field is complex else z

    @staticmethod
    def _parent(c, psi, hankel):
        """The bound as computed before C* C served sigma_min: from C Psi_r."""
        def gram_eigvalsh(mat):
            tall = mat.shape[0] >= mat.shape[1]
            return np.linalg.eigvalsh(mat.conj().T @ mat if tall else mat @ mat.conj().T)

        cp = c @ psi
        lam = gram_eigvalsh(cp)
        if lam[0] > 1e-4 * lam[-1]:
            smin = float(np.sqrt(lam[0]))
        else:
            smin = np.linalg.svd(cp if cp.shape[0] >= cp.shape[1] else cp.T, compute_uv=False)[-1]
        p, r = c.shape[0], psi.shape[1]
        tail = 2.0 * np.sum(hankel[r:])
        norms = np.sqrt(gram_eigvalsh(c)[-1] * gram_eigvalsh(psi)[-1])
        growth = np.sqrt(p - r + 1.0) * np.sqrt(4.0**r + 6.0 * r - 1.0) / 3.0
        return float(norms / smin * growth * tail)

    @staticmethod
    def _count_smin(monkeypatch):
        calls, smin = [], selection._smin
        monkeypatch.setattr(selection, "_smin", lambda *a, **k: calls.append(a[1]) or smin(*a, **k))
        return calls

    @pytest.mark.parametrize("field", [float, complex])
    def test_tall_matches_the_svd(self, field, monkeypatch):
        rng = np.random.default_rng(93)
        c, psi = self._random(field, (3000, 40), rng), self._random(field, (40, 20), rng)
        hankel = np.geomspace(10.0, 1e-3, 40)
        growth = np.sqrt(3000 - 20 + 1.0) * np.sqrt(4.0**20 + 6.0 * 20 - 1.0) / 3.0
        tail = 2.0 * hankel[20:].sum()
        svd = lambda m: np.linalg.svd(m, compute_uv=False)  # noqa: E731
        want = svd(c)[0] * svd(psi)[0] / svd(c @ psi)[-1] * growth * tail
        calls = self._count_smin(monkeypatch)
        assert selection.sensor_state_error_bound(c, psi, hankel) == pytest.approx(want, rel=1e-12)
        assert selection.actuator_state_error_bound(c.conj().T, psi, hankel) == pytest.approx(
            want, rel=1e-12)
        assert calls == []  # C Psi_r was never formed for sigma_min

    @pytest.mark.parametrize("field", [float, complex])
    @pytest.mark.parametrize("case", ["psi_ill_conditioned", "c_large_off_psi", "p_below_n"])
    def test_other_cases_unchanged_bit_for_bit(self, field, case, monkeypatch):
        rng = np.random.default_rng(94)
        hankel = np.geomspace(5.0, 1e-2, 40)
        if case == "p_below_n":
            c, psi = self._random(field, (10, 40), rng), self._random(field, (40, 5), rng)
        else:
            c, psi = self._random(field, (300, 40), rng), self._random(field, (40, 6), rng)
            if case == "psi_ill_conditioned":  # sigma_min(C Psi_r) ~ 1e-6 ||C|| ||Psi_r||
                u, _, vh = np.linalg.svd(psi, full_matrices=False)
                psi = (u * np.geomspace(1.0, 1e-6, 6)) @ vh
            else:  # ||C|| = 1e3 along a direction Psi_r does not reach
                q = np.linalg.qr(np.concatenate([psi, self._random(field, (40, 1), rng)], 1))[0]
                c = c + 1e3 * np.outer(self._random(field, 300, rng), q[:, -1].conj())
        hn = np.linalg.norm(c, 2) * np.linalg.norm(psi, 2)
        assert np.linalg.svd(c @ psi, compute_uv=False)[-1] < 1e-2 * hn or case == "p_below_n"
        calls = self._count_smin(monkeypatch)
        got = selection.sensor_state_error_bound(c, psi, hankel)
        assert got == self._parent(c, psi, hankel)
        assert calls == ["C Psi_r"]

    def test_exactly_rank_deficient_still_raises(self):
        rng = np.random.default_rng(95)
        c, psi = rng.standard_normal((3000, 40)), rng.standard_normal((40, 20))
        psi[:, -1] = 0.0  # the SVD finds exactly zero
        with pytest.raises(RankError, match="^numerically rank-deficient C Psi_r$"):
            selection.sensor_state_error_bound(c, psi, np.ones(40))


class TestBoundInputErrors:
    """Input the bounds cannot use is a DimensionError, never a LinAlgError,
    an IndexError, matmul's ValueError or a silently wrong number."""

    RNG = np.random.default_rng(96)
    C = RNG.standard_normal((30, 8))
    MODES = RNG.standard_normal((8, 3))
    HANKEL = np.array([4.0, 2.0, 1.0, 0.5, 0.2, 0.1, 0.05, 0.01])

    @classmethod
    def _bounds(cls, c, modes, hankel):
        """Each bound family on both sides."""
        return [
            lambda: selection.sensor_state_error_bound(c, modes, hankel),
            lambda: selection.actuator_state_error_bound(c.T, modes, hankel),
            lambda: selection.sensor_logdet_lower_bound(c, modes, hankel),
            lambda: selection.actuator_logdet_lower_bound(c.T, modes, hankel),
        ]

    def _raise_dimension_error(self, calls, match):
        for call in calls:
            with pytest.raises(DimensionError, match=match):
                call()

    @pytest.mark.parametrize("where", ["nan_in_c", "inf_in_modes"])
    def test_non_finite_data(self, where):
        c, modes = self.C.copy(), self.MODES.copy()
        if where == "nan_in_c":
            c[4, 2] = np.nan
        else:
            modes[1, 1] = np.inf
        calls = self._bounds(c, modes, self.HANKEL) + [
            lambda: selection.select_sensors(c, modes),
            lambda: selection.pivot_inverse_norm_bound(c @ modes),
        ]
        with np.errstate(invalid="ignore"):
            self._raise_dimension_error(calls, "is not finite")

    def test_fewer_hankel_values_than_the_rank(self):
        self._raise_dimension_error(self._bounds(self.C, self.MODES, self.HANKEL[:2]),
                                    "at least r=3 Hankel singular values")

    @pytest.mark.parametrize("bad", [np.nan, -0.5])
    def test_nan_or_negative_hankel_values(self, bad):
        for k in (1, 5):  # inside the r kept values and in the tail
            hankel = self.HANKEL.copy()
            hankel[k] = bad
            self._raise_dimension_error(self._bounds(self.C, self.MODES, hankel),
                                        "finite and non-negative")

    @pytest.mark.parametrize("index", [30, 31, -1])
    def test_selected_index_outside_the_candidates(self, index):
        for call in (selection.sensor_logdet_lower_bound, selection.actuator_logdet_lower_bound):
            c = self.C if call is selection.sensor_logdet_lower_bound else self.C.T
            with pytest.raises(DimensionError, match=r"indices must lie in \[0, 30\)"):
                call(c, self.MODES, self.HANKEL, [0, index, 2])

    def test_modes_of_the_wrong_height(self):
        self._raise_dimension_error(self._bounds(self.C, self.MODES[:7], self.HANKEL),
                                    "modes have 7 rows, but .* has 8 columns")

    @pytest.mark.parametrize("indices", [[0, 1.0, 2], [0, 1]], ids=["float", "two"])
    def test_selected_indices_not_r_integers(self, indices):
        for call in (selection.sensor_logdet_lower_bound, selection.actuator_logdet_lower_bound):
            c = self.C if call is selection.sensor_logdet_lower_bound else self.C.T
            with pytest.raises(DimensionError, match="must be r=3 integers"):
                call(c, self.MODES, self.HANKEL, indices)

    @pytest.mark.parametrize(
        "modes_rows, indices, match",
        [
            (8, [0, 30, 2], r"indices must lie in \[0, 30\)"),
            (8, [0, -1, 2], r"indices must lie in \[0, 30\)"),
            (8, [0, 1.0, 2], "must be r=3 integers"),
            (8, [0, 1], "must be r=3 integers"),
            (7, [0, 1, 2], "modes have 7 rows, but .* has 8 columns"),
        ],
        ids=["index_30", "index_-1", "float_index", "two_indices", "short_modes"],
    )
    def test_projection_input(self, modes_rows, indices, match):
        modes = self.MODES[:modes_rows]
        self._raise_dimension_error(
            [lambda: selection.sensor_projection(self.C, modes, indices),
             lambda: selection.actuator_projection(self.C.T, modes, indices)],
            match)


    @pytest.mark.parametrize(
        "select, side",
        [
            (lambda c, m7, m8: selection.select_sensors(c, m7), "sensors"),
            (lambda c, m7, m8: selection.select_actuators(c.T, m7), "actuators"),
            (lambda c, m7, m8: selection.select_noncollocated(c, c.T, m7, m8), "sensors"),
            (lambda c, m7, m8: selection.select_noncollocated(c, c.T, m8, m7), "actuators"),
            (lambda c, m7, m8: selection.select_subsets(c, c.T, m7, m8), "sensors"),
            (lambda c, m7, m8: selection.select_subsets(c, c.T, m8, m7), "actuators"),
        ],
        ids=["select_sensors", "select_actuators", "select_noncollocated-sensors",
             "select_noncollocated-actuators", "select_subsets-sensors", "select_subsets-actuators"],
    )
    def test_selector_modes_one_row_short(self, select, side):
        with pytest.raises(DimensionError,
                           match=f"modes have 7 rows, but the {side}' candidate matrix has 8 columns"):
            select(self.C, self.MODES[:7], self.MODES)


class TestGreedyVolume:
    def test_one_step_swap_optimality(self):
        rng = np.random.default_rng(75)
        v = rng.standard_normal((4, 9)) + 1j * rng.standard_normal((4, 9))
        fac = matkernel.pivoted_qr(v)
        chosen = fac.pivot_order[:4].tolist()

        def volume(cols):
            mat = v[:, cols]
            return float(np.prod(np.linalg.svd(mat, compute_uv=False)))

        for k in range(1, 5):
            vol_k = np.prod(fac.r_diagonal[:k])
            for alt in range(9):
                if alt in chosen[:k]:
                    continue
                swapped = chosen[: k - 1] + [alt]
                assert vol_k >= volume(swapped) * (1 - 1e-9)
