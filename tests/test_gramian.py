import numpy as np
import pytest
import scipy.linalg as sla
from conftest import overflowing_a

from balsel import gramian, matkernel, models, statespace
from balsel.errors import (
    DimensionError,
    HorizonError,
    IllPosedError,
    NumericError,
    SynthesisError,
    UnstableSystemError,
)
from balsel.models import random_stable_system
from balsel.statespace import StateSpaceModel


class TestLyapunovContinuous:
    def test_scalar(self):
        w = gramian.solve_lyapunov_continuous([[-1.0]], [[1.0]])
        np.testing.assert_allclose(w, [[0.5]])

    def test_diagonal_closed_form(self):
        # for diagonal A the solution is M_ij / (|l_i| + |l_j|)
        w = gramian.solve_lyapunov_continuous(np.diag([-1.0, -2.0]), np.ones((2, 2)))
        np.testing.assert_allclose(w, [[0.5, 1 / 3], [1 / 3, 0.25]], rtol=1e-12)

    def test_seeded_residual(self):
        m = random_stable_system(30, 1, 1, seed=21)
        rhs = np.ones((30, 30))
        w = gramian.solve_lyapunov_continuous(m.a, rhs)
        assert gramian.lyapunov_residual(m.a, w, rhs.astype(complex)) <= 1e-9

    def test_unstable_rejected(self):
        with pytest.raises(UnstableSystemError):
            gramian.solve_lyapunov_continuous([[1.0]], [[1.0]])

    def test_near_marginal_ill_posed(self):
        a = np.diag([-1e-16 + 1j, -1e-16 - 1j])
        with pytest.raises(IllPosedError):
            gramian.solve_lyapunov_continuous(a, np.eye(2))


class TestStein:
    def test_scalar(self):
        w = gramian.solve_stein([[0.5]], [[1.0]])
        np.testing.assert_allclose(w, [[4.0 / 3.0]], rtol=1e-12)

    def test_zero_dynamics(self):
        m = np.array([[2.0, 0.3], [0.3, 1.0]])
        w = gramian.solve_stein(np.zeros((2, 2)), m)
        np.testing.assert_allclose(w, m, atol=1e-14)

    def test_seeded_residual(self):
        m = random_stable_system(25, 1, 1, seed=22, time_domain="discrete")
        rhs = np.eye(25) + 0.1 * np.ones((25, 25))
        w = gramian.solve_stein(m.a, rhs)
        assert gramian.stein_residual(m.a, w, rhs.astype(complex)) <= 1e-9

    def test_unstable_rejected(self):
        with pytest.raises(UnstableSystemError):
            gramian.solve_stein([[1.5]], [[1.0]])


class TestComputeGramians:
    def test_scalar(self):
        m = StateSpaceModel([[-1.0]], [[1.0]], [[1.0]])
        g = gramian.compute_gramians(m)
        np.testing.assert_allclose(g.w_c, [[0.5]])
        np.testing.assert_allclose(g.w_o, [[0.5]])

    def test_zero_input(self):
        m = StateSpaceModel([[-1.0]], [[0.0]], [[1.0]])
        g = gramian.compute_gramians(m)
        np.testing.assert_allclose(g.w_c, 0.0)

    def test_discrete_psd_and_residuals(self):
        m = random_stable_system(25, 25, 25, seed=0, time_domain="discrete")
        g = gramian.compute_gramians(m)
        for w in (g.w_c, g.w_o):
            lam = np.linalg.eigvalsh(w)
            assert lam.min() >= -1e-10 * max(abs(lam).max(), 1e-300)
            assert np.linalg.norm(w - w.conj().T) <= 1e-10 * np.linalg.norm(w)
        assert g.residual_c <= 1e-9
        assert g.residual_o <= 1e-9

    def test_duality_with_adjoint_realization(self):
        m = random_stable_system(8, 3, 2, seed=30)
        g = gramian.compute_gramians(m)
        g_adj = gramian.compute_gramians(statespace.adjoint_model(m))
        np.testing.assert_allclose(g.w_o, g_adj.w_c, atol=1e-10)

    @pytest.mark.parametrize("field", ["real", "complex"])
    def test_continuous_matches_scipy(self, field):
        # n = 150 is past _LEAF, so the kernel recurses before its leaves
        m = random_stable_system(150, 3, 4, seed=31)
        if field == "complex":
            m = StateSpaceModel(m.a + 0.05j * np.eye(150), 1j * m.b, m.c)
        g = gramian.compute_gramians(m)
        ref_c = sla.solve_continuous_lyapunov(m.a, -m.b @ m.b.conj().T)
        ref_o = sla.solve_continuous_lyapunov(m.a.conj().T, -m.c.conj().T @ m.c)
        for w, ref in ((g.w_c, ref_c), (g.w_o, ref_o)):
            assert np.linalg.norm(w - ref) <= 1e-10 * np.linalg.norm(ref)

    def test_trace_formula_identity(self):
        for seed in range(15):
            m = random_stable_system(int(seed % 6) + 3, 2, 3, seed=seed)
            g = gramian.compute_gramians(m)
            t1 = np.trace(m.c @ g.w_c @ m.c.conj().T).real
            t2 = np.trace(m.b.conj().T @ g.w_o @ m.b).real
            assert t1 == pytest.approx(t2, rel=1e-8)


def _non_normal_a(n, field, domain, seed):
    rng = np.random.default_rng(seed)
    g = rng.standard_normal((n, n)) + np.triu(3.0 * rng.standard_normal((n, n)), 1)
    if field == "complex":
        g = g + 1j * rng.standard_normal((n, n))
    lam = np.linalg.eigvals(g)
    if domain == statespace.CONTINUOUS:
        return g - (lam.real.max() + 0.5) * np.eye(n)
    return g / (1.25 * np.abs(lam).max())


class TestAdjointFlip:
    # compute_gramians factors A once and reuses the flipped Schur form for
    # A*; the result must match a separate solve with A* itself
    @pytest.mark.parametrize("field", ["real", "complex"])
    @pytest.mark.parametrize("domain", [statespace.CONTINUOUS, statespace.DISCRETE])
    def test_observability_gramian_matches_direct_solve(self, field, domain):
        n = 12
        a = _non_normal_a(n, field, domain, seed=41)
        rng = np.random.default_rng(42)
        m = StateSpaceModel(a, rng.standard_normal((n, 3)), rng.standard_normal((2, n)), domain)
        g = gramian.compute_gramians(m)
        cc = m.c.conj().T @ m.c
        if domain == statespace.CONTINUOUS:
            direct = gramian.solve_lyapunov_continuous(m.a.conj().T, cc)
        else:
            direct = gramian.solve_stein(m.a.conj().T, cc)
        assert np.linalg.norm(g.w_o - direct) <= 1e-10 * np.linalg.norm(direct)
        assert g.residual_c <= 1e-9
        assert g.residual_o <= 1e-9

    @pytest.mark.parametrize(
        "domain, a, match",
        [
            (statespace.CONTINUOUS, [[1.0, 2.0], [0.0, -1.0]], "spectral abscissa 1 >= 0"),
            (statespace.DISCRETE, [[1.5, 2.0], [0.0, 0.5]], "spectral radius 1.5 >= 1"),
        ],
    )
    def test_unstable_model_raises(self, domain, a, match):
        m = StateSpaceModel(a, np.eye(2), np.eye(2), domain)
        with pytest.raises(UnstableSystemError, match=match):
            gramian.compute_gramians(m)

    def test_ill_posed_continuous(self):
        m = StateSpaceModel(np.diag([-1e-16 + 1j, -1e-16 - 1j]), np.eye(2), np.eye(2))
        with pytest.raises(IllPosedError, match=r"lambda_i \+ conj\(lambda_j\) ~ 0"):
            gramian.compute_gramians(m)

    def test_ill_posed_stein(self):
        a = np.diag([1.0 - 1e-13, 0.5])
        with pytest.raises(IllPosedError, match=r"lambda_i \* conj\(lambda_j\) ~ 1"):
            gramian.solve_stein(a, np.eye(2))
        m = StateSpaceModel(a, np.eye(2), np.eye(2), statespace.DISCRETE)
        with pytest.raises(IllPosedError, match=r"lambda_i \* conj\(lambda_j\) ~ 1"):
            gramian.compute_gramians(m)


def _normal_a(n, field, seed):
    """A = Q D Q* with unitary Q and spectral radius 0.9: symmetric if real."""
    rng = np.random.default_rng(seed)
    if field == "real":
        q, _ = np.linalg.qr(rng.standard_normal((n, n)))
        lam = rng.uniform(-0.9, 0.9, n)
    else:
        q, _ = np.linalg.qr(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
        lam = 0.9 * rng.random(n) * np.exp(2j * np.pi * rng.random(n))
    lam[0] = 0.9
    return (q * lam) @ q.conj().T


class TestSteinDoubling:
    # squared Smith doubling against the Schur route it stands in front of
    @pytest.mark.parametrize("kind", ["normal", "random", "non-normal"])
    @pytest.mark.parametrize("field", ["real", "complex"])
    def test_matches_schur_route(self, kind, field):
        n, p, q = 40, 3, 5
        rng = np.random.default_rng(50)
        if kind == "normal":
            a = _normal_a(n, field, seed=51)
        elif kind == "random":
            a = random_stable_system(n, 1, 1, seed=52, time_domain=statespace.DISCRETE).a
            if field == "complex":
                a = a * np.exp(0.3j)
        else:
            a = _non_normal_a(n, field, statespace.DISCRETE, seed=53)
        b = rng.standard_normal((n, q))
        c = rng.standard_normal((p, n))
        if field == "complex":
            b = b + 1j * rng.standard_normal((n, q))
        m = StateSpaceModel(a, b, c, statespace.DISCRETE)
        bb, cc = m.b @ m.b.conj().T, m.c.conj().T @ m.c
        assert gramian._stein_doubling(m.a, bb, cc) is not None
        g = gramian.compute_gramians(m)
        form = matkernel.schur(m.a)
        refs = (gramian._solve_from_schur(form, bb, True),
                gramian._solve_from_schur(form.adjoint(), cc, True))
        for w, ref in zip((g.w_c, g.w_o), refs):
            assert w.dtype == ref.dtype
            assert np.linalg.norm(w - ref) <= 1e-12 * np.linalg.norm(ref)
        assert max(g.residual_c, g.residual_o) <= 1e-13
        w = gramian.solve_stein(m.a, bb)
        assert np.linalg.norm(w - refs[0]) <= 1e-12 * np.linalg.norm(refs[0])

    def test_zero_dynamics_return_the_right_hand_side(self):
        m = np.array([[2.0, 0.3], [0.3, 1.0]])
        np.testing.assert_array_equal(gramian.solve_stein(np.zeros((2, 2)), m), m)
        w_c, w_o = gramian._stein_doubling(np.zeros((2, 2)), m, 2 * m)
        np.testing.assert_array_equal(w_c, m)
        np.testing.assert_array_equal(w_o, 2 * m)

    def test_field_is_the_schur_routes(self):
        # complex arrays with no imaginary part give a real W, as on the
        # Schur route; an imaginary part in A or M gives a complex one
        a = np.array([[0.5, 0.2], [0.0, -0.3]])
        m = np.eye(2)
        assert gramian.solve_stein(a.astype(complex), m.astype(complex)).dtype == np.float64
        assert gramian.solve_stein(a + 0.1j, m).dtype == np.complex128
        assert gramian.solve_stein(a, m + [[0, 1j], [-1j, 0]]).dtype == np.complex128

    @pytest.mark.parametrize(
        "a",
        [np.diag([1.0 - 1e-6, 0.5]), np.array([[0.5, 1e4], [0.0, 0.5]])],
        ids=["step-budget", "growth-limit"],
    )
    def test_stable_fallback_solves_from_the_schur_form(self, a):
        # the radius needs 2^25 terms, past the budget; the norm is past
        # the growth limit at once: both still get the Schur route's answer
        assert gramian._stein_doubling(a, np.eye(2)) is None
        w = gramian.solve_stein(a, np.eye(2))
        ref = gramian._solve_from_schur(matkernel.schur(a), np.eye(2), True)
        np.testing.assert_array_equal(w, ref)
        assert gramian.stein_residual(a, w, np.eye(2)) <= 1e-9

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize(
        "a, error, match",
        [
            (np.diag([1.0 - 1e-13, 0.5]), IllPosedError, r"^eigenvalue product lambda_i \* "
             r"conj\(lambda_j\) ~ 1$"),
            (np.diag([1.5, 0.5]), UnstableSystemError, r"^model is unstable: spectral radius "
             r"1\.5 >= 1 \(the Stein equation needs a Schur-stable A\)$"),
        ],
        ids=["ill-posed", "unstable"],
    )
    def test_fallback_raises_the_schur_route_errors(self, a, error, match):
        with pytest.raises(error, match=match):
            gramian.solve_stein(a, np.eye(2))
        m = StateSpaceModel(a, np.eye(2), np.eye(2), statespace.DISCRETE)
        with pytest.raises(error, match=match):
            gramian.compute_gramians(m)


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("domain", [statespace.CONTINUOUS, statespace.DISCRETE])
def test_overflowing_solution_raises_numeric_error(domain):
    # at scale 1e6 the solution itself is nan; `compute_gramians` also
    # catches a finite solution whose residual overflows (see test_cli)
    a, _ = overflowing_a(domain, 1e6)
    solve = gramian.solve_stein if domain == statespace.DISCRETE else (
        gramian.solve_lyapunov_continuous)
    with pytest.raises(NumericError, match="^the solution is not finite"):
        solve(a, np.eye(len(a)))


def _kron_tri_solve(a, b, c, discrete):
    """Dense solve of vec(X) for A X + X B* = C or A X B* - X = C."""
    m, n = c.shape
    if discrete:
        k = np.kron(b.conj(), a) - np.eye(m * n)
    else:
        k = np.kron(np.eye(n), a) + np.kron(b.conj(), np.eye(m))
    x = np.linalg.solve(k, c.reshape(-1, order="F"))
    return x.reshape((m, n), order="F")


def _stable_triangular(rng, n, field, discrete):
    t = np.triu(rng.standard_normal((n, n)))
    if field == "complex":
        t = t + 1j * np.triu(rng.standard_normal((n, n)))
    t = t.astype(complex)
    lam = np.diag(t)
    if discrete:
        t[np.diag_indices(n)] = 0.9 * lam / np.abs(lam).max()
    else:
        t[np.diag_indices(n)] = -(np.abs(lam.real) + 0.1) + 1j * lam.imag
    return t


class TestTriSolve:
    # the recursive kernel against a dense Kronecker solve; the leaf size
    # is shrunk so that every shape below crosses the leaf boundary in the
    # way its name says while the Kronecker system stays small
    LEAF = 8

    @pytest.fixture(autouse=True)
    def small_leaf(self, monkeypatch):
        monkeypatch.setattr(gramian, "_LEAF", self.LEAF)

    @pytest.mark.parametrize(
        "m, n",
        [(1, 1), (1, 2 * LEAF + 3), (LEAF - 1, LEAF - 1), (LEAF, LEAF), (LEAF + 1, LEAF + 1),
         (2 * LEAF + 3, LEAF - 5), (LEAF - 5, 2 * LEAF + 3)],
    )
    @pytest.mark.parametrize("field", ["real", "complex"])
    @pytest.mark.parametrize("discrete", [False, True], ids=["continuous", "discrete"])
    def test_matches_kronecker_solve(self, m, n, field, discrete):
        rng = np.random.default_rng(m * 100 + n)
        a = _stable_triangular(rng, m, field, discrete)
        b = _stable_triangular(rng, n, field, discrete)
        c = rng.standard_normal((m, n)).astype(complex)
        if field == "complex":
            c += 1j * rng.standard_normal((m, n))
        x = gramian._tri_solve(a, b, c, discrete)
        ref = _kron_tri_solve(a, b, c, discrete)
        assert np.linalg.norm(x - ref) <= 1e-12 * np.linalg.norm(ref)

    @pytest.mark.parametrize("n", [LEAF, 2 * LEAF + 3])
    def test_strictly_upper_triangular_stein(self, n):
        # zero diagonal: every column of the sweep takes the b_kk = 0 branch
        rng = np.random.default_rng(n)
        t = np.triu(rng.standard_normal((n, n)), 1).astype(complex)
        c = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        x = gramian._tri_solve(t, t, c, discrete=True)
        ref = _kron_tri_solve(t, t, c, discrete=True)
        assert np.linalg.norm(x - ref) <= 1e-12 * np.linalg.norm(ref)


def _kron_block_solve(a, b, c, discrete):
    """Block back substitution on the Kronecker system of A X + X B* = C
    (or A X B* - X = C): block (k, j) is delta_kj A + conj(b_kj) I (or
    conj(b_kj) A - delta_kj I), and each diagonal block is solved densely."""
    m, n = c.shape
    x = np.zeros((m, n), dtype=complex)
    eye = np.eye(m)
    for k in range(n - 1, -1, -1):
        upd = x[:, k + 1 :] @ b[k, k + 1 :].conj()
        bkk = b[k, k].conj()
        if discrete:
            x[:, k] = np.linalg.solve(bkk * a - eye, c[:, k] - a @ upd)
        else:
            x[:, k] = np.linalg.solve(a + bkk * eye, c[:, k] - upd)
    return x


def _random_triangular(rng, n, discrete):
    # off-diagonal scaled by 1/sqrt(n) so the solve stays well conditioned;
    # diagonal real part in [-1.1, -0.1] (Hurwitz) or modulus <= 0.9 (Schur)
    t = np.triu(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)), 1)
    t /= np.sqrt(n)
    if discrete:
        lam = 0.9 * rng.random(n) * np.exp(2j * np.pi * rng.random(n))
    else:
        lam = -(0.1 + rng.random(n)) + 1j * rng.standard_normal(n)
    t[np.diag_indices(n)] = lam
    return t


class TestTriSolveAtTheLeafSize:
    # the recursive kernel at its real _LEAF against the Kronecker system;
    # the shapes stay inside one leaf or split once or twice
    @pytest.mark.parametrize("m, n", [(1, 1), (5, 3), (3, 5), (128, 128), (129, 64), (200, 200)])
    @pytest.mark.parametrize("discrete", [False, True], ids=["continuous", "discrete"])
    def test_matches_kronecker_solve(self, m, n, discrete):
        rng = np.random.default_rng(1000 * m + n)
        a = _random_triangular(rng, m, discrete)
        b = _random_triangular(rng, n, discrete)
        self._check(a, b, rng, discrete)

    @pytest.mark.parametrize("m, n", [(3, 5), (200, 200)])
    def test_stein_with_zero_b_kk(self, m, n):
        # b_kk = 0 takes the sweep's x_k = -rhs_k branch
        rng = np.random.default_rng(m + n)
        a = _random_triangular(rng, m, True)
        b = _random_triangular(rng, n, True)
        for k in {0, n // 2, n - 1}:
            b[k, k] = 0.0
        self._check(a, b, rng, True)

    @staticmethod
    def _check(a, b, rng, discrete):
        m, n = a.shape[0], b.shape[0]
        assert gramian._LEAF == 128
        c = rng.standard_normal((m, n)) + 1j * rng.standard_normal((m, n))
        x = gramian._tri_solve(a, b, c, discrete)
        lhs = a @ x @ b.conj().T - x if discrete else a @ x + x @ b.conj().T
        assert np.linalg.norm(lhs - c) <= 1e-12 * np.linalg.norm(c)
        # the Kronecker matrix is (mn)^2 entries: dense while that is small
        solve = _kron_tri_solve if m * n <= 1024 else _kron_block_solve
        ref = solve(a, b, c, discrete)
        assert np.linalg.norm(x - ref) <= 1e-12 * np.linalg.norm(ref)


class TestHermitianSolve:
    # the symmetric recursion against the general kernel on the full
    # matrix; sizes stay inside one leaf, split once or split twice
    @pytest.mark.parametrize("n", [1, 5, 128, 129, 200, 257, 400])
    @pytest.mark.parametrize("discrete", [False, True], ids=["continuous", "discrete"])
    def test_matches_general_solve(self, n, discrete):
        rng = np.random.default_rng(7 * n + discrete)
        t = _random_triangular(rng, n, discrete)
        g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        c = g + g.conj().T
        x = gramian._hermitian_solve(t, c, discrete)
        ref = gramian._tri_solve(t, t, c, discrete)
        assert np.linalg.norm(x - ref) <= 1e-12 * np.linalg.norm(ref)
        h = n // 2  # the lower block is the adjoint of the solved upper one
        if n > gramian._LEAF:
            np.testing.assert_array_equal(x[h:, :h], x[:h, h:].conj().T)


class TestRealModelsMatchScipy:
    # real A: the gramians come from the real Schur vectors and the fold
    @pytest.mark.parametrize("n", [60, 300])
    @pytest.mark.parametrize("domain", [statespace.CONTINUOUS, statespace.DISCRETE])
    def test_against_scipy(self, n, domain):
        m = random_stable_system(n, 3, 4, seed=n + 1, time_domain=domain)
        g = gramian.compute_gramians(m)
        assert g.w_c.dtype == g.w_o.dtype == np.float64
        bb, cc = m.b @ m.b.T, m.c.T @ m.c
        if domain == statespace.CONTINUOUS:
            refs = (sla.solve_continuous_lyapunov(m.a, -bb),
                    sla.solve_continuous_lyapunov(m.a.T, -cc))
        else:
            refs = (sla.solve_discrete_lyapunov(m.a, bb), sla.solve_discrete_lyapunov(m.a.T, cc))
        for w, ref in zip((g.w_c, g.w_o), refs):
            assert np.linalg.norm(w - ref) <= 1e-10 * np.linalg.norm(ref)


class TestSolversPastTheLeaf:
    # n = 300 is past twice the leaf size, so the recursion splits before
    # it reaches the leaf solvers
    @pytest.mark.parametrize("field", ["real", "complex"])
    @pytest.mark.parametrize("domain", [statespace.CONTINUOUS, statespace.DISCRETE])
    def test_residual(self, field, domain):
        n = 300
        assert n > 2 * gramian._LEAF
        a = _non_normal_a(n, field, domain, seed=23)
        g = np.random.default_rng(24).standard_normal((n, 4))
        rhs = (g @ g.T + np.eye(n)).astype(complex)
        if domain == statespace.CONTINUOUS:
            w = gramian.solve_lyapunov_continuous(a, rhs)
            assert gramian.lyapunov_residual(a, w, rhs) <= 1e-9
        else:
            w = gramian.solve_stein(a, rhs)
            assert gramian.stein_residual(a, w, rhs) <= 1e-9


class TestEmpiricalGramians:
    def test_scalar_value_with_marginal_horizon_warning(self):
        m = StateSpaceModel([[-1.0]], [[1.0]], [[1.0]])
        snaps = statespace.impulse_snapshots(m, 0.01, 1001)  # decay e^-10 ~ 4.5e-5
        with pytest.warns(UserWarning):
            g = gramian.empirical_gramians(*snaps)
        assert g.w_c[0, 0].real == pytest.approx(0.5, abs=1e-3)

    def test_zero_input_gives_zero(self):
        m = StateSpaceModel([[-1.0]], [[0.0]], [[1.0]])
        snaps = statespace.impulse_snapshots(m, 0.01, 2000)
        g = gramian.empirical_gramians(*snaps)
        np.testing.assert_allclose(g.w_c, 0.0)

    def test_matches_exact_gramian(self):
        m = StateSpaceModel(np.diag([-1.0, -2.0]), [[1.0], [1.0]], [[1.0, 1.0]])
        snaps = statespace.impulse_snapshots(m, 0.01, 2000)
        g_emp = gramian.empirical_gramians(*snaps)
        g = gramian.compute_gramians(m)
        np.testing.assert_allclose(g_emp.w_c, g.w_c, atol=1e-3)
        np.testing.assert_allclose(g_emp.w_o, g.w_o, atol=1e-3)

    def test_insufficient_decay_raises(self):
        m = StateSpaceModel([[-1.0]], [[1.0]], [[1.0]])
        snaps = statespace.impulse_snapshots(m, 0.01, 200)  # horizon T = 2
        with pytest.raises(HorizonError):
            gramian.empirical_gramians(*snaps)


class TestCARE:
    def test_scalar_closed_form(self):
        x = gramian.solve_care([[-1.0]], [[1.0]], [[1.0]], [[1.0]])
        assert x[0, 0].real == pytest.approx(np.sqrt(2.0) - 1.0, rel=1e-12)

    def test_zero_state_weight(self):
        x = gramian.solve_care([[-2.0]], [[1.0]], [[0.0]], [[1.0]])
        np.testing.assert_allclose(x, 0.0, atol=1e-14)

    def test_seeded_residual_and_stability(self):
        m = random_stable_system(10, 3, 3, seed=40)
        q = np.eye(10)
        r = np.eye(3)
        b = m.b
        x = gramian.solve_care(m.a, b, q, r)
        assert gramian.care_residual(
            m.a, b.astype(complex), q.astype(complex), r.astype(complex), x
        ) <= 1e-8
        a_cl = m.a - b @ np.linalg.solve(r, b.conj().T @ x)
        assert np.linalg.eigvals(a_cl).real.max() < 0

    def test_real_inputs_give_a_real_solution(self):
        m = random_stable_system(10, 3, 3, seed=40)
        x = gramian.solve_care(m.a, m.b, np.eye(10), np.eye(3))
        assert x.dtype == np.float64
        assert gramian._care_doubling(m.a, m.b @ m.b.T, np.eye(10)).dtype == np.float64
        # complex arrays keep the complex field, as on the Schur route
        x = gramian.solve_care(m.a, m.b, np.eye(10, dtype=complex), np.eye(3, dtype=complex))
        assert x.dtype == np.complex128

    def test_singular_input_weight_raises_synthesis_error(self):
        with pytest.raises(SynthesisError, match="singular"):
            gramian.solve_care([[-1.0]], [[1.0]], [[1.0]], [[0.0]])

    @pytest.mark.parametrize("which", range(4))
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_input_raises_dimension_error(self, which, bad):
        args = [np.array([[-1.0]]) for _ in range(4)]
        args[which][0, 0] = bad
        with pytest.raises(DimensionError, match="non-finite"):
            gramian.solve_care(*args)

    def test_synthesis_error_when_unstabilizable(self):
        # the doubling shift is 1 here, so A - gamma I is singular and the
        # Schur route raises its own message
        assert gramian._care_doubling(np.eye(1), np.zeros((1, 1)), np.eye(1)) is None
        with pytest.raises(SynthesisError, match="^ordered-Schur basis is singular$"):
            gramian.solve_care([[1.0]], [[0.0]], [[1.0]], [[1.0]])


class TestCareDoubling:
    # structure-preserving doubling against the ordered-Schur route it
    # stands in front of
    @pytest.fixture(scope="class")
    def problems(self):
        """A2c-style regulators, real and complex, and the Ginzburg-Landau
        control and filter equations, as (A, B, Q, R)."""
        m = random_stable_system(40, 3, 3, seed=30_001)
        b = m.b + 1j * np.random.default_rng(7).standard_normal(m.b.shape)
        a, b2, c2 = models.ginzburg_landau_plant()
        n = len(a)
        return {
            "a2c-real": (m.a, m.b, np.eye(40), np.eye(3)),
            "a2c-complex": (m.a * np.exp(0.3j), b, np.eye(40), np.eye(3)),
            "gl-control": (a, b2, np.eye(n), np.eye(n)),
            "gl-filter": (a.conj().T, c2.conj().T, np.eye(n), 4e-8 * np.eye(n)),
        }

    @pytest.mark.parametrize("name", ["a2c-real", "a2c-complex", "gl-control", "gl-filter"])
    def test_matches_schur_route(self, problems, name):
        a, b, q, r = problems[name]
        g = b @ np.linalg.solve(r, b.conj().T)
        x = gramian._care_doubling(a, g, q)
        ref = gramian._care_schur(a, g, q)
        assert x is not None and x.dtype == ref.dtype
        assert np.linalg.norm(x - ref) <= 1e-11 * np.linalg.norm(ref)
        assert gramian.care_residual(a, b, q, r, gramian.solve_care(a, b, q, r)) <= 1e-10

    def test_small_measurement_noise_filter_converges(self):
        # V = 4e-8 I puts ||G|| some 1e8 above ||Q||; the shift rule's
        # geometric mean converges in 13 updates where ||A||_F / sqrt(n)
        # alone runs out of budget
        m = random_stable_system(40, 5, 5, seed=0)
        a, b, q, r = m.a.T, m.c.T, np.eye(40), 4e-8 * np.eye(5)
        assert gramian._care_doubling(a, b @ np.linalg.solve(r, b.T), q) is not None
        assert gramian.care_residual(a, b, q, r, gramian.solve_care(a, b, q, r)) <= 1e-10

    def test_lqg_synthesis_computes_no_hamiltonian_schur_form(self, monkeypatch):
        calls = []

        def counting(*args, _inner=sla.schur, **kwargs):
            calls.append(len(args[0]))
            return _inner(*args, **kwargs)

        monkeypatch.setattr(sla, "schur", counting)
        models.lqg_synthesize(*models.ginzburg_landau_plant())
        assert calls == []

    def test_exhausted_budget_is_the_schur_route(self, monkeypatch, problems):
        a, b, q, r = problems["a2c-complex"]
        g = b @ np.linalg.solve(r, b.conj().T)
        monkeypatch.setattr(gramian, "_DOUBLING_STEPS", 2)
        assert gramian._care_doubling(a, g, q) is None
        ref = gramian._hermitize(gramian._care_schur(a, g, q))
        np.testing.assert_array_equal(gramian.solve_care(a, b, q, r), ref)

    def test_slow_convergence_falls_back(self):
        # closed-loop poles 1e-6 from the imaginary axis: doubling would need
        # some 2^20 terms, so the Schur route solves it
        a = np.array([[-1e-6, 1.0], [-1.0, -1e-6]])
        q = 1e-12 * np.eye(2)
        assert gramian._care_doubling(a, np.eye(2), q) is None
        x = gramian.solve_care(a, np.eye(2), q, np.eye(2))
        np.testing.assert_array_equal(x, gramian._hermitize(gramian._care_schur(a, np.eye(2), q)))
