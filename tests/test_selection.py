import itertools

import numpy as np
import pytest

from balsel import balancing, evaluation, gramian, selection
from balsel.errors import DimensionError, FeasibilityError, NumericError, RankError
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
        assert sel.collocation_forbidden

    def test_infeasible_when_no_headroom(self):
        m = symmetric_system(n=3)
        grams = gramian.compute_gramians(m)
        bal = balancing.balance(grams, 3)
        with pytest.raises(FeasibilityError):
            selection.select_noncollocated(m.c, m.b, bal.psi_r, bal.phi_r)

    def test_location_maps(self):
        m, grams, bal = balanced_system(seed=66, r=2)
        # map all actuators to location 0: only sensor location 0 is excluded
        act_loc = np.zeros(8, dtype=int)
        sel = selection.select_noncollocated(
            m.c, m.b, bal.psi_r, bal.phi_r, actuator_locations=act_loc
        )
        assert 0 not in sel.gamma.tolist()


    def test_both_location_maps(self):
        m = symmetric_system()
        grams = gramian.compute_gramians(m)
        bal = balancing.balance(grams, 3)
        plain = selection.select_subsets(m.c, m.b, bal.psi_r, bal.phi_r)
        assert plain.gamma[0] in plain.beta
        # the first sensor sits at location 99, where no actuator is: it
        # stays selectable although its index is a chosen actuator's
        sensor_loc = np.arange(7)
        sensor_loc[plain.gamma[0]] = 99
        act_loc = np.arange(7)
        sel = selection.select_noncollocated(
            m.c,
            m.b,
            bal.psi_r,
            bal.phi_r,
            sensor_locations=sensor_loc,
            actuator_locations=act_loc,
        )
        assert sel.beta.tolist() == plain.beta.tolist()
        assert sel.gamma[0] == plain.gamma[0]
        assert not set(sensor_loc[sel.gamma].tolist()) & set(act_loc[sel.beta].tolist())


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
        tight = selection.sensor_state_error_bound(m.c, bal.psi_r, bal.hankel)
        loose = selection.sensor_state_error_bound(
            m.c, bal.psi_r, bal.hankel, form="sqrt_p"
        )
        assert tight <= loose

    def test_scalar_logdet_bound_is_tight(self):
        hankel = np.array([0.5])
        c = np.eye(1)
        psi = np.eye(1)
        bound = selection.sensor_logdet_lower_bound(c, psi, hankel, gamma=[0])
        achieved = selection.achieved_rank_r_logdet(c, psi, hankel, [0])
        assert bound == pytest.approx(np.log(0.5), rel=1e-12)
        assert achieved == pytest.approx(np.log(0.5), rel=1e-12)

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
    """Fewer candidates than the rank: every bound raises, none returns nan."""

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
        ],
        ids=["pivot_inverse_norm", "sensor_state", "actuator_state", "sensor_logdet", "actuator_logdet"],
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


class TestGreedyVolume:
    def test_one_step_swap_optimality(self):
        rng = np.random.default_rng(75)
        v = rng.standard_normal((4, 9)) + 1j * rng.standard_normal((4, 9))
        from balsel import matkernel

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
