import numpy as np
import pytest

from balsel import cli, gramian, models, statespace
from balsel.errors import DimensionError, SingularMatrixError
from balsel.statespace import StateSpaceModel


def assert_spectra_match(lam_a, lam_b, atol):
    """Match two eigenvalue multisets greedily by nearest distance."""
    remaining = list(lam_a)
    for lam in lam_b:
        dists = [abs(lam - other) for other in remaining]
        k = int(np.argmin(dists))
        assert dists[k] <= atol * max(1.0, abs(lam)), (lam, dists[k])
        remaining.pop(k)


class TestRandomStableSystem:
    def test_continuous_eig_band(self):
        for seed in range(10):
            m = models.random_stable_system(12, 3, 3, seed=seed)
            lam = np.linalg.eigvals(m.a)
            assert lam.real.max() <= -0.05 + 1e-9
            assert lam.real.min() >= -2.0 - 1e-9

    def test_discrete_radius_band(self):
        for seed in range(10):
            m = models.random_stable_system(12, 3, 3, seed=seed, time_domain="discrete")
            rho = np.abs(np.linalg.eigvals(m.a)).max()
            assert 0.4 < rho < 0.95 + 1e-9

    def test_determinism(self):
        m1 = models.random_stable_system(6, 2, 4, seed=3)
        m2 = models.random_stable_system(6, 2, 4, seed=3)
        assert np.array_equal(m1.a, m2.a)
        assert np.array_equal(m1.b, m2.b)
        assert np.array_equal(m1.c, m2.c)

    def test_bad_sizes(self):
        with pytest.raises(DimensionError):
            models.random_stable_system(0, 1, 1, seed=0)


class TestHermiteMachinery:
    def test_root_count_and_symmetry(self):
        x = models.hermite_roots(10)
        assert x.size == 10
        np.testing.assert_allclose(x, -x[::-1], atol=1e-12)

    def test_weighted_exactness_on_gaussian_polynomials(self):
        # the weighted matrices differentiate p(x) exp(-x^2/2) exactly
        x, (d1, d2) = models.hermite_diff_matrices(40)
        w = np.exp(-(x**2) / 2.0)
        f = x * w
        df = (1.0 - x**2) * w
        ddf = x * (x**2 - 3.0) * w
        np.testing.assert_allclose(d1 @ f, df, atol=1e-10)
        np.testing.assert_allclose(d2 @ f, ddf, atol=1e-9)
        np.testing.assert_allclose(d1 @ (d1 @ f), ddf, atol=1e-9)

    def test_weighted_composition_identity_on_weighted_space(self):
        x, (d1, d2) = models.hermite_diff_matrices(30)
        w = np.exp(-(x**2) / 2.0)
        rng = np.random.default_rng(0)
        coeffs = rng.standard_normal(5)
        f = np.polyval(coeffs, x) * w
        np.testing.assert_allclose(d2 @ f, d1 @ (d1 @ f), atol=1e-8)

    def test_trapezoid_weights_integrate_gaussian(self):
        x = models.hermite_roots(100)
        w = models.trapezoid_weights(x)
        val = np.sum(w * np.exp(-(x**2)))
        assert val == pytest.approx(np.sqrt(np.pi), rel=1e-3)


class TestGinzburgLandauPlant:
    def test_pure_decay_limit(self):
        params = models.GinzburgLandauParams(
            n=12, nu=0.0, beta_diff=0.0, mu_profile=(-1.0, 0.0, 0.0)
        )
        a, b2, c2 = models.ginzburg_landau_plant(params)
        np.testing.assert_allclose(a, -np.eye(12), atol=1e-12)

    def test_narrow_kernel_peaks_at_center(self):
        params = models.GinzburgLandauParams(n=20, kernel_width=1e-3)
        _, b2, _ = models.ginzburg_landau_plant(params)
        for j in range(20):
            assert np.argmax(np.abs(b2[:, j])) == j
            assert abs(b2[j, j]) == pytest.approx(1.0)

    def test_default_plant_is_unstable(self):
        a, _, _ = models.ginzburg_landau_plant()
        lam = np.linalg.eigvals(a)
        assert (lam.real > 0).sum() >= 1

    def test_sensor_rows_carry_quadrature_weights(self):
        params = models.GinzburgLandauParams(n=16)
        _, b2, c2 = models.ginzburg_landau_plant(params)
        np.testing.assert_allclose(
            c2, (b2 * params.trap_weights[:, None]).T, atol=1e-14
        )

    @pytest.mark.parametrize(
        "field, value",
        [("nu", complex(np.nan, 0.4)), ("beta_diff", complex(1.0, -np.inf)),
         ("mu_profile", (0.37, 0.0, np.nan)), ("kernel_width", np.nan),
         ("kernel_width", np.inf)],
    )
    def test_non_finite_parameters_rejected(self, field, value):
        with pytest.raises(ValueError, match="finite"):
            models.GinzburgLandauParams(n=12, **{field: value})

    def test_grid_is_derived_from_n(self):
        params = models.GinzburgLandauParams(n=12)
        np.testing.assert_array_equal(params.grid, models.hermite_roots(12))
        with pytest.raises(TypeError):
            models.GinzburgLandauParams(n=12, grid=np.linspace(-6, 6, 12))
        with pytest.raises(TypeError):
            models.GinzburgLandauParams(n=12, trap_weights=np.ones(12))


class TestLQG:
    def test_scalar_symmetric_gains(self):
        ctl = models.lqg_synthesize(
            [[-1.0]], [[1.0]], [[1.0]],
            q_hat=[[1.0]], r_hat=[[1.0]], w_cov=[[1.0]], v_cov=[[1.0]],
        )
        val = np.sqrt(2.0) - 1.0
        assert ctl.f_gain[0, 0].real == pytest.approx(val, rel=1e-10)
        assert ctl.l_gain[0, 0].real == pytest.approx(val, rel=1e-10)
        assert statespace.is_stable(ctl.controller_model)

    def test_zero_state_weight_gives_zero_regulator(self):
        ctl = models.lqg_synthesize(
            [[-2.0]], [[1.0]], [[1.0]],
            q_hat=[[0.0]], r_hat=[[1.0]], w_cov=[[1.0]], v_cov=[[1.0]],
        )
        np.testing.assert_allclose(ctl.f_gain, 0.0, atol=1e-12)

    def test_default_plant_riccati_solves_need_no_newton_step(self, monkeypatch):
        # the scaled Hamiltonian alone meets the residual bound, for the
        # regulator and for the filter, whose ||G|| is ~4e7 times ||Q||
        monkeypatch.setattr(gramian, "_REFINE_TOL", np.inf)
        residuals = []

        def checked(a, b, q, r, _inner=gramian.solve_care):
            x = _inner(a, b, q, r)
            residuals.append(gramian.care_residual(a, b, q, r, x))
            return x

        monkeypatch.setattr(gramian, "solve_care", checked)
        models.lqg_synthesize(*models.ginzburg_landau_plant())
        assert len(residuals) == 2
        assert max(residuals) <= 1e-10

    def test_real_plant_gives_a_real_controller(self):
        m = models.random_stable_system(8, 3, 4, seed=5)
        ctl = models.lqg_synthesize(m.a, m.b, m.c)
        dtypes = {ctl.f_gain.dtype, ctl.l_gain.dtype, ctl.controller_model.a.dtype}
        assert dtypes == {np.dtype(np.float64)}

    def test_separation_at_full_selection(self):
        m = models.random_stable_system(6, 6, 6, seed=90)
        ctl = models.lqg_synthesize(m.a, m.b, m.c)
        cl = models.closed_loop_assemble(
            m.a, m.b, m.c, ctl, np.arange(6), np.arange(6)
        )
        lam_cl = np.linalg.eigvals(cl.a)
        lam_sep = np.concatenate(
            [
                np.linalg.eigvals(m.a - m.b @ ctl.f_gain),
                np.linalg.eigvals(m.a - ctl.l_gain @ m.c),
            ]
        )
        assert_spectra_match(lam_cl, lam_sep, atol=1e-6)

    def test_full_selection_h2_matches_direct_lqg_loop(self):
        m = models.random_stable_system(5, 5, 5, seed=91)
        ctl = models.lqg_synthesize(m.a, m.b, m.c)
        cl = models.closed_loop_assemble(m.a, m.b, m.c, ctl, np.arange(5), np.arange(5))
        h2, stable = models.closed_loop_h2(cl)
        assert stable
        cl2 = models.closed_loop_assemble(m.a, m.b, m.c, ctl, np.arange(5), np.arange(5))
        h2_again, _ = models.closed_loop_h2(cl2)
        assert h2 == pytest.approx(h2_again, rel=1e-12)
        assert np.isfinite(h2) and h2 > 0

    def test_singular_weight_keeps_the_loop_shape(self):
        # q_hat of rank 3: its factor has zero columns, not fewer columns
        m = models.random_stable_system(6, 4, 4, seed=92)
        x = np.random.default_rng(3).standard_normal((6, 3))
        q_hat = x @ x.T
        ctl = models.lqg_synthesize(m.a, m.b, m.c, q_hat=q_hat)
        cl = models.closed_loop_assemble(m.a, m.b, m.c, ctl, np.arange(2), np.arange(3))
        assert cl.c.shape == (6 + 3, 12)
        np.testing.assert_allclose((cl.c.conj().T @ cl.c)[:6, :6], q_hat, rtol=0, atol=1e-12)

    def test_zero_gain_controller_keeps_plant_eigenvalues(self):
        params = models.GinzburgLandauParams(n=24)
        a, b2, c2 = models.ginzburg_landau_plant(params)
        zero = np.zeros((24, 24), dtype=complex)
        ctl = models.LQGController(
            f_gain=zero,
            l_gain=zero,
            controller_model=StateSpaceModel(a, zero, zero),
            q_hat=np.eye(24, dtype=complex),
            r_hat=np.eye(24, dtype=complex),
            w_cov=np.eye(24, dtype=complex),
            v_cov=4e-8 * np.eye(24, dtype=complex),
        )
        cl = models.closed_loop_assemble(a, b2, c2, ctl, np.arange(24), np.arange(24))
        lam_plant = np.linalg.eigvals(a)
        lam_cl = np.linalg.eigvals(cl.a)
        assert not statespace.is_stable(cl)
        # the plant block is untouched: its spectrum appears in the loop
        for lam in lam_plant:
            nearest = np.min(np.abs(lam_cl - lam))
            assert nearest < 1e-8 * max(1.0, abs(lam))


class TestGainGrid:
    def test_scalar_matches_transfer_magnitude(self):
        ctl = models.lqg_synthesize(
            [[-1.0]], [[1.0]], [[1.0]],
            q_hat=[[1.0]], r_hat=[[1.0]], w_cov=[[1.0]], v_cov=[[1.0]],
        )
        grid = statespace.FrequencyGrid(np.array([0.5, 2.0]))
        gains, gs, bs = models.lqg_gain_grid(ctl, [0], [0], grid, np.array([0.0]))
        # closed form: both Riccati equations read 1 - 2x - x^2 = 0, so
        # F = L = sqrt(2) - 1, a_K = -1 - F - L, and the controller's gain
        # is F L / |j omega - a_K|
        f = np.sqrt(2.0) - 1.0
        for i, omega in enumerate(grid.points):
            ref = f * f / abs(1j * omega + 1.0 + 2.0 * f)
            assert gains[i, 0, 0] == pytest.approx(20 * np.log10(ref), rel=1e-9)

    def test_frequency_on_a_controller_eigenvalue_raises(self):
        # A_K has eigenvalues +-j, so the grid point omega = 1 is singular
        a_k = StateSpaceModel([[0.0, 1.0], [-1.0, 0.0]], np.eye(2), np.eye(2))
        eye = np.eye(2)
        ctl = models.LQGController(eye, eye, a_k, eye, eye, eye, eye)
        grid = statespace.FrequencyGrid(np.array([0.5, 1.0]))
        with pytest.raises(SingularMatrixError):
            models.lqg_gain_grid(ctl, [0, 1], [0, 1], grid, np.array([0.0, 1.0]))

    def test_gain_rolls_off_at_high_frequency(self):
        ctl = models.lqg_synthesize(
            [[-1.0]], [[1.0]], [[1.0]],
            q_hat=[[1.0]], r_hat=[[1.0]], w_cov=[[1.0]], v_cov=[[1.0]],
        )
        grid = statespace.FrequencyGrid(np.array([1.0, 1e3, 1e6]))
        gains, _, _ = models.lqg_gain_grid(ctl, [0], [0], grid, np.array([0.0]))
        assert gains[2, 0, 0] < gains[1, 0, 0] < gains[0, 0, 0]


class TestGLPipelineSmall:
    def test_runs_and_reports(self):
        params = models.GinzburgLandauParams(n=28)
        out = models.gl_pipeline(params, r=2)
        assert out["selection"].gamma.size == 2
        assert isinstance(out["stable"], bool)
        assert out["h2"] > 0

    def test_noncollocation_gives_disjoint_locations(self):
        params = models.GinzburgLandauParams(n=28)
        out = models.gl_pipeline(params, r=2, no_collocate=True)
        sel = out["selection"]
        assert not set(sel.gamma.tolist()) & set(sel.beta.tolist())

    # pivots recorded before the selection was routed through the
    # controller's adjoint; gamma/beta are in greedy pivot order
    @pytest.mark.parametrize(
        "no_collocate, r, gamma, beta",
        [
            (False, 1, [0], [0]),
            (False, 2, [0, 27], [0, 25]),
            (False, 3, [0, 27, 12], [0, 25, 12]),
            (False, 4, [0, 27, 8, 17], [0, 26, 8, 17]),
            (True, 1, [2], [0]),
            (True, 2, [27, 2], [0, 25]),
            (True, 3, [27, 11, 2], [0, 25, 12]),
            (True, 4, [27, 7, 16, 2], [0, 26, 8, 17]),
        ],
    )
    def test_pinned_pivots(self, no_collocate, r, gamma, beta):
        out = models.gl_pipeline(
            models.GinzburgLandauParams(n=28), r, no_collocate=no_collocate
        )
        sel = out["selection"]
        assert sel.gamma.tolist() == gamma
        assert sel.beta.tolist() == beta

    @pytest.mark.parametrize("r", [3, 5])
    def test_riccati_newton_step_keeps_the_answer(
        self, monkeypatch, schur_calls, eigvals_calls, r
    ):
        # solve_care's Newton step is the fallback for a residual that the
        # scaled Hamiltonian leaves above _REFINE_TOL; the GL solves stay
        # near 1e-12 without it.  Forcing the step on and off must not move
        # the answer.
        outs = []
        for tol in (0.0, np.inf):
            monkeypatch.setattr(gramian, "_REFINE_TOL", tol)
            schur_calls.clear()
            eigvals_calls.clear()
            outs.append(models.gl_pipeline(models.GinzburgLandauParams(n=28), r))
            # each Newton step is one Lyapunov solve, one more Schur form;
            # each Riccati closed-loop check takes eigenvalues only
            assert len(schur_calls) == (4 if tol == 0.0 else 2)
            assert eigvals_calls == [28, 28]
        refined, unrefined = outs
        assert refined["selection"].gamma.tolist() == unrefined["selection"].gamma.tolist()
        assert refined["selection"].beta.tolist() == unrefined["selection"].beta.tolist()
        assert refined["h2"] == pytest.approx(unrefined["h2"], rel=1e-9)

    def test_no_eigendecomposition(self, monkeypatch):
        # every PSD factor, gramian or closed-loop weight, is a pivoted Cholesky
        sizes = []

        def counting(a, *args, _inner=np.linalg.eigh, **kwargs):
            sizes.append(len(a))
            return _inner(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "eigh", counting)
        models.gl_pipeline(models.GinzburgLandauParams(n=28), r=3)
        assert sizes == []

    def test_noncollocated_full_size_sensors_stay_near_actuators(self):
        # excluded from actuator grid points, the sensors settle on
        # neighbouring ones: disjoint but near-adjacent pairs
        out = models.gl_pipeline(models.GinzburgLandauParams(), r=5, no_collocate=True)
        sensors = np.sort(out["selection"].gamma)
        actuators = np.sort(out["selection"].beta)
        assert not set(sensors.tolist()) & set(actuators.tolist())
        for s in sensors:
            assert np.abs(actuators - s).min() <= 2


class TestSchurCount:
    # each matrix's stability is read off the Schur form its solver
    # computes anyway; no separate stability Schur precedes the solve, and
    # the adjoint's Schur form is a flip of A's
    def test_compute_gramians_factors_a_and_its_adjoint_once(self, schur_calls):
        m = models.random_stable_system(6, 2, 3, seed=5)
        gramian.compute_gramians(m)
        assert schur_calls == [6]

    def test_converging_discrete_gramians_make_no_schur_form(self, schur_calls):
        # squared Smith doubling sums both Stein equations with GEMMs alone
        m = models.random_stable_system(6, 2, 3, seed=5, time_domain="discrete")
        gramian.compute_gramians(m)
        assert schur_calls == []

    def test_discrete_fallback_factors_a_once(self, schur_calls):
        # a radius of 1 - 1e-6 needs more doubling steps than the budget,
        # so both gramians come from one Schur form
        a = np.diag([1.0 - 1e-6, 0.5, -0.2])
        m = StateSpaceModel(a, np.ones((3, 2)), np.ones((1, 3)), "discrete")
        g = gramian.compute_gramians(m)
        assert schur_calls == [3]
        assert max(g.residual_c, g.residual_o) <= 1e-9

    def test_closed_loop_h2_stable_loop(self, schur_calls):
        m = models.random_stable_system(5, 5, 5, seed=91)
        ctl = models.lqg_synthesize(m.a, m.b, m.c)
        cl = models.closed_loop_assemble(m.a, m.b, m.c, ctl, np.arange(5), np.arange(5))
        schur_calls.clear()
        h2, stable = models.closed_loop_h2(cl)
        assert stable and np.isfinite(h2)
        # one gramian pair; its solves prove stability for the H2 formulas
        assert schur_calls == [10]

    def test_closed_loop_h2_unstable_loop(self, schur_calls):
        cl = StateSpaceModel(np.diag([1.0, -1.0]), np.eye(2), np.eye(2))
        assert models.closed_loop_h2(cl) == (np.inf, False)
        assert schur_calls == [2]

    def test_select_h2_metric(self, schur_calls, capsys):
        argv = ["select", "--generate", "30,5,5,1", "--rank", "3", "--metric", "h2"]
        assert cli.main(argv) == 0
        # the gramian solve proves stability for both H2 forms
        assert schur_calls == [30]

    def test_gl_pipeline(self, schur_calls, eigvals_calls):
        pipe = models.gl_pipeline(models.GinzburgLandauParams(n=28), r=3)
        assert pipe["stable"]
        # the controller's gramian pair (which also proves the controller
        # stable) and the closed loop's pair; the two Riccati closed-loop
        # checks take eigenvalues only, without Schur vectors
        assert schur_calls == [28, 56]
        assert eigvals_calls == [28, 28]

    def test_default_gl_pipeline_gramians_meet_1e_9(self, monkeypatch, schur_calls):
        # the closed loop's W_c (2.5e-9 unrefined) takes one refinement step
        # from the Schur form in hand, which adds no Schur call
        residuals = []

        def checked(m, _inner=gramian.compute_gramians):
            g = _inner(m)
            residuals.extend((g.residual_c, g.residual_o))
            return g

        monkeypatch.setattr(gramian, "compute_gramians", checked)
        models.gl_pipeline(r=5)
        assert schur_calls == [100, 200]
        assert len(residuals) == 4
        assert max(residuals) <= 1e-9
