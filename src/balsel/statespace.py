"""State-space models, stability, norms and responses.

Models are (A, B, C) triples with no feedthrough, tagged continuous or
discrete.  Every frequency response (the H2 quadrature, the H-infinity
estimate, `models.lqg_gain_grid`) comes from one private kernel,
`_responses`, which evaluates the transfer function by linear solves,
never by forming an explicit inverse; discrete models are evaluated on the
unit circle z = e^{j theta}.
"""

from dataclasses import dataclass

import numpy as np
import scipy.linalg as sla

from . import matkernel
from .errors import DimensionError, NumericError, SingularMatrixError, UnstableSystemError

__all__ = [
    "StateSpaceModel",
    "FrequencyGrid",
    "log_grid",
    "is_stable",
    "h2_norm_gramian",
    "h2_norm_frequency",
    "hinf_estimate",
    "adjoint_model",
    "difference_model",
]

CONTINUOUS = "continuous"
DISCRETE = "discrete"


@dataclass
class StateSpaceModel:
    """LTI system  dx = A x + B u,  y = C x  (continuous or discrete)."""

    a: np.ndarray
    b: np.ndarray
    c: np.ndarray
    time_domain: str = CONTINUOUS

    def __post_init__(self):
        self.a = matkernel.as_matrix(self.a)
        self.b = matkernel.as_matrix(self.b)
        self.c = matkernel.as_matrix(self.c)
        n = self.a.shape[0]
        if self.a.shape[1] != n:
            raise DimensionError("state matrix must be square")
        if n == 0:
            raise DimensionError("state matrix is empty: a model needs at least one state")
        if self.b.shape[0] != n:
            raise DimensionError(f"input matrix must have {n} rows")
        if self.c.shape[1] != n:
            raise DimensionError(f"output matrix must have {n} columns")
        for name, mat in (("A", self.a), ("B", self.b), ("C", self.c)):
            if not np.all(np.isfinite(mat)):
                raise DimensionError(f"{name} has non-finite (nan or inf) entries")
        if self.time_domain not in (CONTINUOUS, DISCRETE):
            raise ValueError(f"unknown time domain {self.time_domain!r}")

    @property
    def n(self):
        return self.a.shape[0]

    @property
    def q(self):
        return self.b.shape[1]

    @property
    def p(self):
        return self.c.shape[0]

    @property
    def is_real(self):
        return not (
            np.any(self.a.imag) or np.any(self.b.imag) or np.any(self.c.imag)
        )


@dataclass
class FrequencyGrid:
    """Strictly increasing positive radian frequencies."""

    points: np.ndarray

    def __post_init__(self):
        self.points = np.asarray(self.points, dtype=float)
        if self.points.ndim != 1 or self.points.size == 0:
            raise DimensionError("frequency grid must be a nonempty vector")
        if np.any(self.points <= 0) or np.any(np.diff(self.points) <= 0):
            raise ValueError("frequencies must be positive and strictly increasing")


def log_grid(lo=1e-3, hi=1e3, count=400):
    """`count` log-spaced points in [lo, hi] rad/s (the default H2 grid)."""
    return FrequencyGrid(np.logspace(np.log10(lo), np.log10(hi), count))


def is_stable(m):
    """Hurwitz test (continuous) or spectral-radius test (discrete)."""
    return not _instability(matkernel.eigvals(m.a), m.time_domain == DISCRETE)


def _instability(lam, discrete):
    """'' if the eigenvalues `lam` are stable, else why not (for messages)."""
    if discrete:
        radius = np.max(np.abs(lam))
        return "" if radius < 1.0 else f"spectral radius {radius:.6g} >= 1"
    abscissa = np.max(lam.real)
    return "" if abscissa < 0.0 else f"spectral abscissa {abscissa:.6g} >= 0"


def _responses(m, points):
    """Yield G(s) = C (sI - A)^{-1} B for each s in `points`, one linear solve
    at a time, so only O(n^2 + n q + p q) memory is live.  SingularMatrixError
    if s is (numerically) an eigenvalue of A."""
    eye = np.eye(m.n, dtype=np.complex128)
    for s in points:
        try:
            x = np.linalg.solve(s * eye - m.a, m.b)
        except np.linalg.LinAlgError as exc:
            raise SingularMatrixError(f"s={s} is an eigenvalue of A") from exc
        g = m.c @ x
        if not np.all(np.isfinite(g)):
            raise SingularMatrixError(f"s={s} is numerically an eigenvalue of A")
        yield g


def h2_norm_gramian(m, w):
    """H2 norm from gramians: sqrt(tr(C Wc C*)).

    Cross-checks the dual form sqrt(tr(B* Wo B)) and raises NumericError if
    the two disagree by more than 1e-8 relatively.
    """
    if not is_stable(m):
        raise UnstableSystemError("H2 norm undefined for unstable systems")
    return _h2_from_gramians(m, w, 1e-8)


def _h2_from_gramians(m, w, rel_tol):
    """The trace formulas of `h2_norm_gramian` for a model known to be
    stable, at a cross-check tolerance `rel_tol`.  Each trace is one vdot
    of p x n (or n x q) matrices, never a p x p (or q x q) product."""
    from_c = np.vdot(m.c, m.c @ w.w_c).real  # tr(C Wc C*)
    from_b = np.vdot(m.b, w.w_o @ m.b).real  # tr(B* Wo B)
    scale = max(abs(from_c), abs(from_b), 1e-300)
    if abs(from_c - from_b) > rel_tol * scale:
        raise NumericError(
            f"gramian H2 formulas disagree: {from_c} vs {from_b}"
        )
    return float(np.sqrt(max(from_c, 0.0)))


def h2_norm_frequency(m, grid=None):
    """H2 norm by trapezoidal quadrature of the frequency-domain integral.

    Continuous systems integrate (1/2 pi) tr(G(jw)* G(jw)) over the real
    line; real-coefficient systems use conjugate symmetry and integrate the
    positive half twice.  Discrete systems integrate over the unit circle
    and need a grid point in (0, pi] (DimensionError otherwise).
    """
    if not is_stable(m):
        raise UnstableSystemError("H2 norm undefined for unstable systems")
    return _h2_from_frequency(m, log_grid() if grid is None else grid)


def _nodes(m, grid):
    """(nodes, points): frequencies omega and points j omega, or angles theta
    in [0, pi] and points e^{j theta}.  Real models take the half-line from 0
    (a discrete one ends at pi); complex ones add its mirror image, so a
    complex discrete model covers the whole circle [-pi, pi].
    """
    if m.time_domain == CONTINUOUS:
        half = np.concatenate(([0.0], grid.points))
    else:
        theta = grid.points[grid.points <= np.pi]
        if theta.size == 0:
            raise DimensionError("a discrete model needs a grid point in (0, pi]")
        end = [np.pi] if theta[-1] < np.pi else []
        half = np.concatenate(([0.0], theta, end))
    nodes = half if m.is_real else np.concatenate((-half[:0:-1], half))
    points = 1j * nodes if m.time_domain == CONTINUOUS else np.exp(1j * nodes)
    return nodes, points


def _h2_from_frequency(m, grid):
    """The quadrature of `h2_norm_frequency` for a model known to be stable."""
    nodes, points = _nodes(m, grid)
    integrand = np.array([np.sum(np.abs(g) ** 2) for g in _responses(m, points)])
    sym = 2.0 if m.is_real else 1.0
    val = sym * np.trapezoid(integrand, nodes) / (2.0 * np.pi)
    return float(np.sqrt(max(val, 0.0)))


def hinf_estimate(m, grid=None):
    """Grid estimate of the H-infinity norm (a lower bound on the truth).

    Takes the maximum of the largest singular value of G over the nodes of
    `h2_norm_frequency` (negative frequencies too for complex systems).
    """
    if not is_stable(m):
        raise UnstableSystemError("H-infinity norm undefined for unstable systems")
    _, points = _nodes(m, log_grid() if grid is None else grid)
    return float(max(np.linalg.svd(g, compute_uv=False)[0] for g in _responses(m, points)))


def adjoint_model(m):
    """Adjoint realization (A*, C*, B*); swaps the roles of B and C."""
    return StateSpaceModel(
        m.a.conj().T, m.c.conj().T, m.b.conj().T, time_domain=m.time_domain
    )


def difference_model(m1, m2):
    """Parallel interconnection realizing G1(s) - G2(s)."""
    if m1.p != m2.p or m1.q != m2.q or m1.time_domain != m2.time_domain:
        raise DimensionError("models must share I/O dimensions and time domain")
    a = sla.block_diag(m1.a, m2.a)
    b = np.vstack([m1.b, m2.b])
    c = np.hstack([m1.c, -m2.c])
    return StateSpaceModel(a, b, c, time_domain=m1.time_domain)
