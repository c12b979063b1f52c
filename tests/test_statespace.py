import tracemalloc

import numpy as np
import pytest

from balsel import gramian, statespace
from balsel.errors import DimensionError, SingularMatrixError, UnstableSystemError
from balsel.models import random_stable_system
from balsel.statespace import StateSpaceModel


def scalar_model():
    return StateSpaceModel([[-1.0]], [[1.0]], [[1.0]])


def two_state_model():
    return StateSpaceModel(np.diag([-1.0, -2.0]), [[1.0], [1.0]], [[1.0, 1.0]])


class TestModel:
    def test_dimension_validation(self):
        with pytest.raises(DimensionError):
            StateSpaceModel(np.zeros((2, 3)), np.zeros((2, 1)), np.zeros((1, 2)))
        with pytest.raises(DimensionError):
            StateSpaceModel(np.eye(2), np.zeros((3, 1)), np.zeros((1, 2)))
        with pytest.raises(DimensionError):
            StateSpaceModel(np.eye(2), np.zeros((2, 1)), np.zeros((1, 3)))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, complex(0.0, np.nan)])
    @pytest.mark.parametrize("which", ["a", "b", "c"])
    def test_non_finite_entries_rejected(self, bad, which):
        mats = {"a": -np.eye(2), "b": np.ones((2, 1)), "c": np.ones((1, 2))}
        mats = {k: v.astype(complex) for k, v in mats.items()}
        mats[which][0, 0] = bad
        with pytest.raises(DimensionError, match="non-finite"):
            StateSpaceModel(mats["a"], mats["b"], mats["c"])

    def test_shapes(self):
        m = StateSpaceModel(np.eye(3) * -1, np.ones((3, 2)), np.ones((4, 3)))
        assert (m.n, m.q, m.p) == (3, 2, 4)
        assert m.is_real


class TestIsStable:
    def test_scalar_continuous(self):
        assert statespace.is_stable(scalar_model())

    def test_marginal_rotation(self):
        m = StateSpaceModel([[0.0, 1.0], [-1.0, 0.0]], np.eye(2), np.eye(2))
        assert not statespace.is_stable(m)

    def test_scalar_discrete(self):
        m = StateSpaceModel([[0.5]], [[1.0]], [[1.0]], time_domain="discrete")
        assert statespace.is_stable(m)

    def test_marginal_discrete(self):
        # an eigenvalue exactly on the unit circle is not stable
        m = StateSpaceModel(np.diag([0.5, -1.0]), np.ones((2, 1)), np.ones((1, 2)), "discrete")
        assert not statespace.is_stable(m)


class TestTransferEval:
    def test_scalar_dc(self):
        np.testing.assert_allclose(statespace.transfer_eval(scalar_model(), 0.0), [[1.0]])

    def test_scalar_imaginary(self):
        g = statespace.transfer_eval(scalar_model(), 1j)
        np.testing.assert_allclose(g, [[0.5 - 0.5j]], rtol=1e-12)

    def test_mimo_diag(self):
        m = StateSpaceModel(np.diag([-1.0, -2.0]), np.eye(2), np.eye(2))
        np.testing.assert_allclose(
            statespace.transfer_eval(m, 0.0), np.diag([1.0, 0.5]), atol=1e-14
        )

    def test_eigenvalue_singularity(self):
        with pytest.raises(SingularMatrixError):
            statespace.transfer_eval(scalar_model(), -1.0)

    def test_conjugate_symmetry_real_model(self):
        m = random_stable_system(6, 2, 3, seed=2)
        s = 0.3 + 1.7j
        g1 = statespace.transfer_eval(m, s)
        g2 = statespace.transfer_eval(m, np.conj(s))
        np.testing.assert_allclose(g1, np.conj(g2), rtol=1e-10)


class TestH2Norms:
    def test_scalar_gramian(self):
        m = scalar_model()
        w = gramian.compute_gramians(m)
        assert statespace.h2_norm_gramian(m, w) == pytest.approx(np.sqrt(0.5), rel=1e-12)

    def test_zero_input(self):
        m = StateSpaceModel([[-1.0]], [[0.0]], [[1.0]])
        w = gramian.compute_gramians(m)
        assert statespace.h2_norm_gramian(m, w) == 0.0

    def test_two_state_value(self):
        # trace(C Wc C*) = sum of [[1/2,1/3],[1/3,1/4]] = 17/12
        m = two_state_model()
        w = gramian.compute_gramians(m)
        assert statespace.h2_norm_gramian(m, w) == pytest.approx(
            np.sqrt(17.0 / 12.0), rel=1e-12
        )

    def test_unstable_rejected(self):
        m = StateSpaceModel([[1.0]], [[1.0]], [[1.0]])
        with pytest.raises(UnstableSystemError):
            statespace.h2_norm_frequency(m)
        md = StateSpaceModel([[1.2]], [[1.0]], [[1.0]], time_domain=statespace.DISCRETE)
        for unstable in (m, md):
            with pytest.raises(UnstableSystemError):
                statespace.hinf_estimate(unstable)

    def test_scalar_frequency_quadrature(self):
        m = scalar_model()
        val = statespace.h2_norm_frequency(m, statespace.log_grid(1e-3, 1e3, 2000))
        assert val == pytest.approx(np.sqrt(0.5), abs=1e-3)

    def test_zero_output(self):
        m = StateSpaceModel([[-1.0]], [[1.0]], [[0.0]])
        assert statespace.h2_norm_frequency(m) == 0.0

    def test_frequency_matches_gramian_two_state(self):
        m = two_state_model()
        w = gramian.compute_gramians(m)
        ref = statespace.h2_norm_gramian(m, w)
        val = statespace.h2_norm_frequency(m, statespace.log_grid(1e-4, 1e4, 4000))
        assert val == pytest.approx(ref, rel=1e-3)

    def test_frequency_quadrature_converges(self):
        m = random_stable_system(6, 2, 2, seed=5)
        w = gramian.compute_gramians(m)
        ref = statespace.h2_norm_gramian(m, w)
        errs = [
            abs(statespace.h2_norm_frequency(m, statespace.log_grid(1e-4, 1e4, c)) - ref)
            for c in (500, 2000)
        ]
        assert errs[1] < errs[0]
        assert errs[1] < 1e-3 * ref

    def test_discrete_frequency_matches_gramian(self):
        m = random_stable_system(5, 2, 2, seed=8, time_domain="discrete")
        w = gramian.compute_gramians(m)
        ref = statespace.h2_norm_gramian(m, w)
        val = statespace.h2_norm_frequency(
            m, statespace.FrequencyGrid(np.linspace(1e-4, np.pi, 4000))
        )
        assert val == pytest.approx(ref, rel=1e-3)

    def test_complex_discrete_frequency_matches_gramian(self):
        base = random_stable_system(5, 2, 2, seed=9, time_domain="discrete")
        m = StateSpaceModel(
            base.a * np.exp(0.3j), base.b, base.c * (1 + 1j), time_domain="discrete"
        )
        assert not m.is_real
        w = gramian.compute_gramians(m)
        ref = statespace.h2_norm_gramian(m, w)
        val = statespace.h2_norm_frequency(
            m, statespace.FrequencyGrid(np.linspace(1e-4, np.pi, 4000))
        )
        assert val == pytest.approx(ref, rel=1e-3)

    def test_complex_continuous_frequency_matches_gramian(self):
        base = random_stable_system(5, 2, 2, seed=10)
        m = StateSpaceModel(base.a + 0.3j * np.eye(5), base.b, base.c)
        assert not m.is_real
        w = gramian.compute_gramians(m)
        ref = statespace.h2_norm_gramian(m, w)
        val = statespace.h2_norm_frequency(m, statespace.log_grid(1e-4, 1e4, 4000))
        assert val == pytest.approx(ref, rel=1e-3)


def _norm_cases():
    """One model per time domain and field; grid top below pi."""
    rng = np.random.default_rng(7)
    a = np.diag([-0.5 + 1.0j, -0.3 - 2.0j, -1.0 + 0.2j]) + 0.1 * rng.standard_normal((3, 3))
    b = rng.standard_normal((3, 2)) + 1j * rng.standard_normal((3, 2))
    c = rng.standard_normal((2, 3)) + 1j * rng.standard_normal((2, 3))
    ad = np.diag([0.5 + 0.4j, -0.3 - 0.6j, 0.8j]) + 0.05 * rng.standard_normal((3, 3))
    return {
        "continuous-real": random_stable_system(6, 2, 3, seed=11),
        "continuous-complex": StateSpaceModel(a, b, c),
        "discrete-real": random_stable_system(6, 2, 3, seed=11, time_domain="discrete"),
        "discrete-complex": StateSpaceModel(ad, b, c, time_domain="discrete"),
    }


class TestFrequencyNodes:
    # h2 and hinf recorded before both functions shared one node builder; the
    # discrete hinf then lacked the theta = +-pi nodes and may only rise.  The
    # discrete-complex h2 was re-recorded when its circle was closed at +-pi
    # (it read 12.728104425889372 on the open circle)
    @pytest.mark.parametrize(
        "case, h2, hinf",
        [
            ("continuous-real", 39.047924724947606, 146.83859962625746),
            ("continuous-complex", 5.830831238774573, 8.691030073275108),
            ("discrete-real", 4.275624785068983, 6.739208647852131),
            ("discrete-complex", 12.79318570476357, 30.87691066638609),
        ],
    )
    def test_pinned_norms(self, case, h2, hinf):
        m = _norm_cases()[case]
        grid = statespace.log_grid(1e-2, 3.0, 40)
        assert statespace.h2_norm_frequency(m, grid) == pytest.approx(h2, rel=1e-12)
        est = statespace.hinf_estimate(m, grid)
        if case.startswith("discrete"):
            assert est >= hinf
        else:
            assert est == pytest.approx(hinf, rel=1e-12)

    def test_complex_discrete_circle_is_closed(self):
        # the open circle read 12.728 against the gramian's 12.794 (gap 6.6e-2)
        m = _norm_cases()["discrete-complex"]
        h2 = statespace.h2_norm_frequency(m, statespace.log_grid(1e-2, 3.0, 40))
        exact = statespace.h2_norm_gramian(m, gramian.compute_gramians(m))
        assert h2 == pytest.approx(exact, abs=2e-3)

    def test_real_discrete_hinf_reaches_pi(self):
        # |G(e^{j theta})| peaks at theta = pi: |1/(-1 + 0.9) + 1/(-1 - 0.5)| = 32/3
        m = StateSpaceModel(
            np.diag([-0.9, 0.5]), np.ones((2, 1)), np.ones((1, 2)), time_domain="discrete"
        )
        est = statespace.hinf_estimate(m, statespace.log_grid(1e-2, 3.0, 40))
        assert est == pytest.approx(32.0 / 3.0, rel=1e-12)

    @pytest.mark.parametrize("diag", [[0.5, 0.3], [0.5, 0.3j]], ids=["real", "complex"])
    def test_discrete_grid_without_a_point_in_0_pi(self, diag):
        m = StateSpaceModel(np.diag(diag), np.ones((2, 1)), np.ones((1, 2)), "discrete")
        grid = statespace.log_grid(4, 5, 10)
        with pytest.raises(DimensionError, match=r"\(0, pi\]"):
            statespace.h2_norm_frequency(m, grid)
        with pytest.raises(DimensionError, match=r"\(0, pi\]"):
            statespace.hinf_estimate(m, grid)


class TestHinfEstimate:
    def test_scalar_peak_at_dc(self):
        assert statespace.hinf_estimate(scalar_model()) == pytest.approx(1.0, rel=1e-4)

    def test_gain_scaling(self):
        m = StateSpaceModel([[-1.0]], [[1.0]], [[3.0]])
        assert statespace.hinf_estimate(m) == pytest.approx(3.0, rel=1e-4)

    def test_lower_bound_property(self):
        # the grid maximum can only be below the true supremum
        m = random_stable_system(8, 2, 2, seed=13)
        coarse = statespace.hinf_estimate(m, statespace.log_grid(1e-2, 1e2, 20))
        fine = statespace.hinf_estimate(m, statespace.log_grid(1e-3, 1e3, 800))
        assert coarse <= fine + 1e-12

    def test_node_on_an_eigenvalue_raises(self):
        # A = 0 is marginal, so the stability test rejects it before s = 0,
        # the first node of the half-line, meets its eigenvalue
        m = StateSpaceModel([[0.0]], [[1.0]], [[1.0]])
        with pytest.raises(UnstableSystemError):
            statespace.hinf_estimate(m)


class TestFrequencyMemory:
    # G(s) is formed one point at a time, so O(n^2 + n q + p q) memory is
    # live; a (points, n, n) stack of shifted matrices needs about 490 MiB at
    # this size
    @pytest.mark.parametrize(
        "norm", [statespace.h2_norm_frequency, statespace.hinf_estimate], ids=["h2", "hinf"]
    )
    def test_peak_at_most_16_mib(self, norm):
        m = random_stable_system(200, 10, 10, 0)
        tracemalloc.start()
        try:
            norm(m)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 16 * 2**20


class TestImpulseSnapshots:
    def test_scalar_decay_snapshot(self):
        m = scalar_model()
        direct, adjoint, w = statespace.impulse_snapshots(m, 1.0, 3)
        assert direct[0, 1] == pytest.approx(np.exp(-1.0), rel=1e-9)
        assert adjoint[0, 1] == pytest.approx(np.exp(-1.0), rel=1e-9)
        np.testing.assert_allclose(w, [0.5, 1.0, 0.5])

    def test_single_step_is_b_and_cstar(self):
        m = two_state_model()
        direct, adjoint, w = statespace.impulse_snapshots(m, 0.7, 1)
        np.testing.assert_allclose(direct, m.b)
        np.testing.assert_allclose(adjoint, m.c.conj().T)
        np.testing.assert_allclose(w, [0.7])

    def test_empirical_integral_value(self):
        m = scalar_model()
        direct, adjoint, w = statespace.impulse_snapshots(m, 0.01, 2000)
        wc = (direct * w) @ direct.conj().T
        assert wc[0, 0].real == pytest.approx(0.5, abs=1e-3)

    def test_discrete_model_rejected(self):
        m = StateSpaceModel(np.diag([-0.5, -0.3]), np.ones((2, 1)), np.ones((1, 2)), "discrete")
        with pytest.raises(DimensionError, match="continuous"):
            statespace.impulse_snapshots(m, 1.0, 10)


class TestDifferenceModel:
    def test_self_difference_vanishes(self):
        m = two_state_model()
        diff = statespace.difference_model(m, m)
        assert statespace.hinf_estimate(diff) < 1e-12

    def test_io_mismatch(self):
        mimo = StateSpaceModel(np.diag([-1.0, -2.0]), np.eye(2), np.eye(2))
        with pytest.raises(DimensionError):
            statespace.difference_model(scalar_model(), mimo)
