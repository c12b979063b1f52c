"""Model generators: seeded random stable systems and the linearized
Ginzburg-Landau LQG benchmark.

The Ginzburg-Landau operator -nu d/dxi + mu(xi) + beta d2/dxi2 is
discretized by Hermite collocation at the roots of the degree-n Hermite
polynomial, using Gaussian-weighted (similarity-scaled) differentiation
matrices for numerical range.  Sensing and actuation are Gaussian kernels
at every grid point; an LQG controller stabilizes the (open-loop unstable)
plant, and sensor/actuator subsets are then read off the controller's
balanced modes.
"""

from dataclasses import dataclass, field

import numpy as np

from . import balancing, gramian, matkernel, selection, statespace
from .errors import DimensionError, UnstableSystemError

__all__ = [
    "GinzburgLandauParams",
    "LQGController",
    "random_stable_system",
    "hermite_roots",
    "hermite_diff_matrices",
    "ginzburg_landau_plant",
    "lqg_synthesize",
    "closed_loop_assemble",
    "closed_loop_h2",
    "lqg_gain_grid",
    "gl_pipeline",
]


def random_stable_system(n, p, q, seed, time_domain=statespace.CONTINUOUS):
    """Seeded random stable model with dense normal B and C.

    Continuous A is a scaled/shifted dense normal matrix with all
    eigenvalue real parts in [-2, -0.05]; discrete A is scaled to a
    spectral radius of 0.95 * uniform(0.5, 1).  Identical seeds give
    bit-identical models.  Sizes whose A, B or C numpy cannot hold raise
    MemoryError before anything is allocated.
    """
    if min(n, p, q) < 1:
        raise DimensionError("n, p, q must all be at least 1")
    # numpy refuses an array past its largest size with a ValueError; this is
    # the same failure as an allocation it attempts and cannot make
    for rows, cols in ((n, n), (n, q), (p, n)):
        if 8 * int(rows) * int(cols) > np.iinfo(np.intp).max:
            raise MemoryError(f"an array of shape ({rows}, {cols}) and data type float64 "
                              "exceeds numpy's largest array size")
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((n, n))
    if time_domain == statespace.CONTINUOUS:
        lam = np.linalg.eigvals(a)
        spread = lam.real.max() - lam.real.min()
        scale = min(1.0, 1.95 / spread) if spread > 0 else 1.0
        a = scale * a - (scale * lam.real.max() + 0.05) * np.eye(n)
    else:
        rho = np.abs(np.linalg.eigvals(a)).max()
        target = 0.95 * rng.uniform(0.5, 1.0)
        a = a * (target / rho)
    b = rng.standard_normal((n, q))
    c = rng.standard_normal((p, n))
    return statespace.StateSpaceModel(a, b, c, time_domain=time_domain)


def hermite_roots(n):
    """Roots of the degree-n (physicists') Hermite polynomial."""
    j = np.sqrt(np.arange(1, n) / 2.0)
    return np.sort(np.linalg.eigvalsh(np.diag(j, 1) + np.diag(j, -1)))


def _poldif(x, alpha, beta):
    """Weideman-Reddy collocation differentiation matrices on nodes x.

    alpha holds the weight function at the nodes and beta its successive
    logarithmic derivatives (one row per derivative order).
    """
    n = x.size
    m = beta.shape[0]
    dx = x[:, None] - x[None, :]
    np.fill_diagonal(dx, 1.0)
    c = alpha * np.prod(dx, axis=1)
    cr = c[:, None] / c[None, :]
    z = 1.0 / dx
    np.fill_diagonal(z, 0.0)
    xm = z[~np.eye(n, dtype=bool)].reshape(n, n - 1).T
    y = np.ones((n, n))
    d = np.eye(n)
    out = []
    for ell in range(1, m + 1):
        y = np.cumsum(
            np.concatenate((beta[ell - 1 : ell], ell * y[: n - 1] * xm), axis=0), axis=0
        )
        d = ell * z * (cr * np.tile(np.diag(d), (n, 1)).T - d)
        d.flat[:: n + 1] = y[-1]
        out.append(d.copy())
    return out


def hermite_diff_matrices(n):
    """First and second differentiation matrices on the Hermite-root grid.

    The Gaussian similarity scaling exp(-xi^2/2) makes them exact on
    Gaussian-weighted polynomials with entries of modest size, so they stay
    usable at large n.  Returns (grid, [D1, D2]).
    """
    x = hermite_roots(n)
    # alpha'/alpha = -x and alpha''/alpha = x^2 - 1 for the weight alpha = exp(-x^2/2)
    return x, _poldif(x, np.exp(-(x**2) / 2.0), np.vstack((-x, x * x - 1.0)))


def trapezoid_weights(x):
    """Trapezoidal quadrature weights on a nonuniform grid."""
    w = np.zeros_like(x)
    w[1:-1] = 0.5 * (x[2:] - x[:-2])
    w[0] = 0.5 * (x[1] - x[0])
    w[-1] = 0.5 * (x[-1] - x[-2])
    return w


@dataclass
class GinzburgLandauParams:
    """Linearized Ginzburg-Landau benchmark parameters.

    Defaults are the standard supercritical flow-control values
    (advection nu = 2 + 0.4i, diffusion beta = 1 - i, amplification
    mu(xi) = 0.37 - 0.005 xi^2, i.e. one weakly unstable global mode);
    they are configuration, not ground truth.  mu_profile lists the
    quadratic coefficients (c0, c1, c2) of mu(xi) = c0 + c1 xi + c2 xi^2.
    """

    n: int = 100
    nu: complex = 2.0 + 0.4j
    beta_diff: complex = 1.0 - 1.0j
    mu_profile: tuple = (0.37, 0.0, -0.005)
    kernel_width: float = 0.4
    # the Hermite-root collocation grid and its trapezoidal weights, derived from n
    grid: np.ndarray = field(init=False, repr=False)
    trap_weights: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        if self.n < 4:
            raise ValueError("grid size must be at least 4")
        if not np.isfinite([self.nu, self.beta_diff, *self.mu_profile, self.kernel_width]).all():
            raise ValueError("nu, beta_diff, mu_profile and kernel_width must be finite")
        if self.kernel_width <= 0:
            raise ValueError("kernel width must be positive")
        self.grid = hermite_roots(self.n)
        self.trap_weights = trapezoid_weights(self.grid)

    def mu(self, xi):
        c0, c1, c2 = self.mu_profile
        return c0 + c1 * xi + c2 * xi**2


@dataclass
class LQGController:
    """LQG gains and the assembled controller realization.

    controller_model is (A - B2 F - L C2, L, -F): input y, output u.
    """

    f_gain: np.ndarray
    l_gain: np.ndarray
    controller_model: statespace.StateSpaceModel
    q_hat: np.ndarray
    r_hat: np.ndarray
    w_cov: np.ndarray
    v_cov: np.ndarray


def ginzburg_landau_plant(params=None):
    """Assemble (A, B2, C2) for the Ginzburg-Landau benchmark.

    A = -nu D1 + diag(mu(xi)) + beta D2 on the Hermite-root grid.  Each
    grid point carries one Gaussian actuation kernel (column of B2) and
    one Gaussian sensing kernel contracted with the trapezoidal weights
    (row of C2), so the candidate sets are as large as the grid.
    """
    if params is None:
        params = GinzburgLandauParams()
    xi = params.grid
    n = params.n
    _, (d1, d2) = hermite_diff_matrices(n)
    a = -params.nu * d1 + np.diag(params.mu(xi)) + params.beta_diff * d2

    spread = (xi[:, None] - xi[None, :]) ** 2
    kernels = np.exp(-spread / (np.sqrt(2.0) * params.kernel_width))
    b2 = kernels.astype(np.complex128)
    c2 = (kernels * params.trap_weights[:, None]).T.astype(np.complex128)
    return a.astype(np.complex128), b2, c2


def lqg_synthesize(a, b2, c2, q_hat=None, r_hat=None, w_cov=None, v_cov=None):
    """Synthesize the LQG controller (A - B2 F - L C2, L, -F).

    F solves the control Riccati equation with weights (q_hat, r_hat);
    L the dual filter equation with process covariance w_cov and
    measurement covariance v_cov.  Defaults: q_hat = r_hat = w_cov = I,
    v_cov = 4e-8 I.  solve_care verifies that the regulator A - B2 F and
    the estimator A - L C2 are stable.  The controller A - B2 F - L C2 is
    not checked here: balancing it needs a stable A_K, and its gramian
    solve raises UnstableSystemError if it is not.
    """
    a = matkernel.as_matrix(a)
    b2 = matkernel.as_matrix(b2)
    c2 = matkernel.as_matrix(c2)
    n = a.shape[0]
    q = b2.shape[1]
    p = c2.shape[0]
    field = np.result_type(a, b2, c2)  # a real plant gets real weights
    q_hat = np.eye(n, dtype=field) if q_hat is None else matkernel.as_matrix(q_hat)
    r_hat = np.eye(q, dtype=field) if r_hat is None else matkernel.as_matrix(r_hat)
    w_cov = np.eye(n, dtype=field) if w_cov is None else matkernel.as_matrix(w_cov)
    v_cov = 4e-8 * np.eye(p, dtype=field) if v_cov is None else matkernel.as_matrix(v_cov)

    x = gramian.solve_care(a, b2, q_hat, r_hat)
    f = np.linalg.solve(r_hat, b2.conj().T @ x)
    y = gramian.solve_care(a.conj().T, c2.conj().T, w_cov, v_cov)
    l = np.linalg.solve(v_cov.conj().T, c2 @ y.conj().T).conj().T

    a_k = a - b2 @ f - l @ c2
    controller = statespace.StateSpaceModel(a_k, l, -f, time_domain=statespace.CONTINUOUS)
    return LQGController(
        f_gain=f,
        l_gain=l,
        controller_model=controller,
        q_hat=q_hat,
        r_hat=r_hat,
        w_cov=w_cov,
        v_cov=v_cov,
    )


def closed_loop_assemble(a, b2, c2, controller, gamma, beta):
    """Interconnect the plant with the subset-restricted controller.

    The plant keeps only actuator columns B2[:, beta] and sensor rows
    C2[gamma, :]; the controller keeps its ideal internal dynamics but
    reads only the selected measurements (columns of L) and drives only
    the selected actuators (rows of F).  Exogenous inputs are the process
    disturbance and the selected sensors' noise, through factors F F* of
    w_cov and v_cov; the output stacks the state and actuation cost
    channels, weighted by F* for q_hat and r_hat (H2 sees only B B*, C* C).
    """
    a = matkernel.as_matrix(a)
    b2 = matkernel.as_matrix(b2)
    c2 = matkernel.as_matrix(c2)
    gamma = np.asarray(gamma)
    beta = np.asarray(beta)
    n = a.shape[0]
    r_s = gamma.size
    r_a = beta.size

    bb = b2[:, beta]
    fb = controller.f_gain[beta, :]
    lg = controller.l_gain[:, gamma]
    cg = c2[gamma, :]
    a_k = controller.controller_model.a

    w_f = matkernel._psd_factor(controller.w_cov)
    v_f = matkernel._psd_factor(controller.v_cov[np.ix_(gamma, gamma)])
    q_f = matkernel._psd_factor(controller.q_hat)
    r_f = matkernel._psd_factor(controller.r_hat[np.ix_(beta, beta)])

    a_cl = np.block([[a, -bb @ fb], [lg @ cg, a_k]])
    b_cl = np.block(
        [
            [w_f, np.zeros((n, r_s))],
            [np.zeros((n, n)), lg @ v_f],
        ]
    )
    c_cl = np.block(
        [
            [q_f.conj().T, np.zeros((n, n))],
            [np.zeros((r_a, n)), -r_f.conj().T @ fb],
        ]
    )
    return statespace.StateSpaceModel(a_cl, b_cl, c_cl, time_domain=statespace.CONTINUOUS)


def closed_loop_h2(cl_model):
    """H2 norm of a closed loop; (inf, False) when it is unstable.

    Closed loops with near-marginal modes and large gains can be badly
    conditioned, so the controllability/observability cross-check runs at
    a loosened 1e-6 relative tolerance here.  A successful
    `compute_gramians` has already proved stability, so the trace formulas
    run without a second stability test.
    """
    try:
        grams = gramian.compute_gramians(cl_model)
    except UnstableSystemError:
        return np.inf, False
    return statespace._h2_from_gramians(cl_model, grams, rel_tol=1e-6), True


def lqg_gain_grid(controller, gamma, beta, grid, coordinates):
    """Sensor-to-actuator controller gains (dB) on a frequency grid.

    Rows are the selected actuators and columns the selected sensors, both
    ordered by their grid coordinate (upstream to downstream).  Returns
    (gains, gamma_sorted, beta_sorted) with gains shaped
    (n_frequencies, n_actuators, n_sensors).
    """
    gamma = np.asarray(gamma)
    beta = np.asarray(beta)
    coordinates = np.asarray(coordinates)
    gamma_sorted = gamma[np.argsort(coordinates[gamma])]
    beta_sorted = beta[np.argsort(coordinates[beta])]
    restricted = statespace.StateSpaceModel(
        controller.controller_model.a,
        controller.l_gain[:, gamma_sorted],
        -controller.f_gain[beta_sorted, :],
    )
    gains = np.empty((grid.points.size, beta_sorted.size, gamma_sorted.size))
    for i, g in enumerate(statespace._responses(restricted, 1j * grid.points)):
        gains[i] = 20.0 * np.log10(np.maximum(np.abs(g), 1e-300))
    return gains, gamma_sorted, beta_sorted


def gl_pipeline(params=None, r=5, no_collocate=False):
    """Full Ginzburg-Landau selection pipeline at truncation rank r.

    Synthesizes the full LQG controller (default weights), balances it,
    QR-selects r sensors and r actuators on the controller's adjoint (its
    output matrix L* samples the plant's sensors, its input matrix -F* the
    plant's actuators), and assembles the restricted closed loop.  With
    no_collocate the actuators are chosen first and sensors may not reuse
    their grid locations.  The controller's gramian solve is the one test
    of its stability (UnstableSystemError if A_K is not Hurwitz).
    """
    return _gl_rank_stage(_gl_plant_stage(params), r, no_collocate)


def _gl_plant_stage(params):
    """The rank-independent half of `gl_pipeline`: (params, plant,
    controller, controller gramians)."""
    if params is None:
        params = GinzburgLandauParams()
    a, b2, c2 = ginzburg_landau_plant(params)
    controller = lqg_synthesize(a, b2, c2)
    return params, (a, b2, c2), controller, gramian.compute_gramians(controller.controller_model)


def _gl_rank_stage(stage, r, no_collocate):
    """The rank-r half of `gl_pipeline` on the output of `_gl_plant_stage`."""
    params, (a, b2, c2), controller, grams = stage
    bal = balancing.balance(grams, r)

    # The plant's sensors are the controller's inputs (columns of L) and its
    # actuators the controller's outputs (rows of -F), so they are the
    # sensors and actuators of the controller's adjoint (A_K*, -F*, L*).
    adj = statespace.adjoint_model(controller.controller_model)
    sel = selection.select_subsets(adj.c, adj.b, bal.phi_r, bal.psi_r, no_collocate=no_collocate)

    cl = closed_loop_assemble(a, b2, c2, controller, np.sort(sel.gamma), np.sort(sel.beta))
    h2, stable = closed_loop_h2(cl)
    return {
        "params": params,
        "plant": (a, b2, c2),
        "controller": controller,
        "balanced": bal,
        "selection": sel,
        "closed_loop": cl,
        "h2": h2,
        "stable": stable,
    }
