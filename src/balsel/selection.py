"""Greedy sensor/actuator subset selection on balanced modes.

Sensors are the first r pivots of a column-pivoted QR of (C Psi_r)*, and
actuators the first r pivots of a pivoted QR of Phi_r* B; both greedily
maximize the volume of the selected submatrix.  The bound evaluators give
a priori guarantees for the resulting interpolation error and log-det
objective in terms of the discarded Hankel singular values.

Singular values of sampled modes come from their r x r short-side Gram
matrix, one GEMM instead of a tall SVD; sigma_min is read there only while
lambda_min > _GRAM_TOL lambda_max, where squaring costs about eps kappa^2
relative (Higham, Accuracy and Stability, 2nd ed., sec. 20), else the SVD.
"""

from dataclasses import dataclass

import numpy as np

from . import matkernel
from .errors import (
    DimensionError,
    FeasibilityError,
    NumericError,
    RankError,
    SingularMatrixError,
)

__all__ = [
    "SelectionResult",
    "ProjectionOperator",
    "select_sensors",
    "select_actuators",
    "select_noncollocated",
    "select_subsets",
    "sensor_projection",
    "actuator_projection",
    "project_state",
    "pivot_inverse_norm_bound",
    "sensor_state_error_bound",
    "actuator_state_error_bound",
    "sensor_logdet_lower_bound",
    "actuator_logdet_lower_bound",
]

_GRAM_TOL = 1e-4  # lambda_min / lambda_max at or below which _smin takes the SVD


@dataclass
class SelectionResult:
    """Ordered sensor/actuator index sets with pivot diagnostics.

    gamma/beta are in greedy pivot order (most important first); the
    r_diag_* sequences hold |T_ii| from the two factorizations.
    """

    gamma: np.ndarray
    beta: np.ndarray
    r_diag_sensors: np.ndarray
    r_diag_actuators: np.ndarray
    collocation_forbidden: bool = False


@dataclass
class ProjectionOperator:
    """Oblique interpolation projector basis (sampled_rows)^{-1} sampler."""

    basis: np.ndarray
    sampler: np.ndarray
    sampled_rows: np.ndarray

    @property
    def condition(self):
        return float(np.linalg.cond(self.sampled_rows))


def _gram_eigvalsh(mat):
    """Squared singular values, ascending, from the short-side Gram."""
    gram = mat.conj().T @ mat if mat.shape[0] >= mat.shape[1] else mat @ mat.conj().T
    return np.linalg.eigvalsh(gram)


def _smin(mat, what, rtol=0.0):
    """Smallest singular value of `mat`; RankError when it is at most
    `rtol` (< 1e-2) times the largest (exactly zero by default)."""
    lam = _gram_eigvalsh(mat)
    if lam[0] > _GRAM_TOL * lam[-1]:  # sigma ratio > 1e-2: no rtol trips
        return float(np.sqrt(lam[0]))
    sv = np.linalg.svd(mat.T if mat.shape[0] < mat.shape[1] else mat, compute_uv=False)
    if sv[-1] <= rtol * max(sv[0], 1e-300):
        raise RankError(f"numerically rank-deficient {what}")
    return sv[-1]


def _check_candidates(p, r, what):
    """DimensionError unless there are at least r of the p candidates."""
    if p < r:
        raise DimensionError(f"need at least r={r} candidate {what}, have {p}")


def _pivots(v, r, what, forbidden=()):
    """First r pivots and |R_kk| of the pivoted QR of the sampled modes `v`.

    `v` is r x (candidates): (C Psi_r)* for sensors, Phi_r* B for
    actuators.  Columns in `forbidden` are never chosen.
    """
    _check_candidates(v.shape[1], r, what)
    _smin(v, f"sampled modes of the {what}", rtol=1e-12)
    fac = matkernel.pivoted_qr(v, forbidden, max_pivots=r)
    if fac.n_steps < r:
        raise FeasibilityError(
            f"only {fac.n_steps} {what} candidates remain after excluding "
            f"{len(forbidden)} collocated ones; need {r}"
        )
    return fac.pivot_order[:r].copy(), fac.r_diagonal[:r].copy()


def select_sensors(c, psi_r):
    """Greedy sensor rows: first r pivots of the pivoted QR of (C Psi_r)*.

    Returns (gamma, r_diag) with gamma in pivot order.
    """
    cp = matkernel.as_matrix(c) @ matkernel.as_matrix(psi_r)
    return _pivots(cp.conj().T, cp.shape[1], "sensors")


def select_actuators(b, phi_r):
    """Greedy actuator columns: first r pivots of the pivoted QR of Phi_r* B.

    The dual of `select_sensors`: the same pivoting on the adjoint's
    sampled modes.
    """
    pb = matkernel.as_matrix(phi_r).conj().T @ matkernel.as_matrix(b)
    return _pivots(pb, pb.shape[0], "actuators")


def select_noncollocated(
    c, b, psi_r, phi_r, sensor_locations=None, actuator_locations=None
):
    """Select actuators first, then sensors excluding actuator locations.

    Location maps translate actuator/sensor indices to shared spatial
    location ids (identity by default, covering the pointwise B = C = I
    case).  Sensor candidates whose location coincides with a chosen
    actuator are skipped by the pivoting but still orthogonalized, so the
    sensor factorization stays valid.
    """
    cp = matkernel.as_matrix(c) @ matkernel.as_matrix(psi_r)
    beta, r_diag_b = select_actuators(b, phi_r)
    if sensor_locations is None:
        sensor_locations = np.arange(cp.shape[0])
    sensor_locations = np.asarray(sensor_locations)
    taken = beta if actuator_locations is None else np.asarray(actuator_locations)[beta]
    forbidden = np.flatnonzero(np.isin(sensor_locations, taken))
    gamma, r_diag_s = _pivots(cp.conj().T, cp.shape[1], "sensors", forbidden)
    if np.isin(sensor_locations[gamma], taken).any():
        raise FeasibilityError("collocation exclusion failed")  # defensive
    return SelectionResult(gamma, beta, r_diag_s, r_diag_b, collocation_forbidden=True)


def select_subsets(c, b, psi_r, phi_r, no_collocate=False, **location_maps):
    """Select both index sets; dispatches on the collocation flag."""
    if no_collocate:
        return select_noncollocated(c, b, psi_r, phi_r, **location_maps)
    gamma, rd_s = select_sensors(c, psi_r)
    beta, rd_a = select_actuators(b, phi_r)
    return SelectionResult(gamma, beta, rd_s, rd_a)


def _projection(basis, sampler):
    basis = matkernel.as_matrix(basis)
    return ProjectionOperator(basis=basis, sampler=sampler, sampled_rows=sampler @ basis)


def sensor_projection(c, psi_r, gamma):
    """Interpolation projector Psi_r (C_hat Psi_r)^{-1} C_hat onto span(Psi_r)."""
    return _projection(psi_r, matkernel.as_matrix(c)[np.asarray(gamma), :])


def actuator_projection(b, phi_r, beta):
    """Dual projector Phi_r (B_hat* Phi_r)^{-1} B_hat* onto span(Phi_r)."""
    sampler = matkernel.as_matrix(b)[:, np.asarray(beta)].conj().T
    return _projection(phi_r, sampler)


def project_state(op, x):
    """Apply the interpolation projector to a state vector."""
    try:
        coeffs = np.linalg.solve(op.sampled_rows, op.sampler @ np.asarray(x))
    except np.linalg.LinAlgError as exc:
        raise SingularMatrixError("sampled interpolation block is singular") from exc
    return op.basis @ coeffs


def _growth_factor(n_candidates, r):
    """sqrt(n-r+1) * sqrt(4^r + 6r - 1) / 3 pivot growth constant."""
    return np.sqrt(n_candidates - r + 1.0) * np.sqrt(4.0**r + 6.0 * r - 1.0) / 3.0


def pivot_inverse_norm_bound(u_matrix):
    """Upper bound on ||(S U)^{-1}||_2 over QR-pivot row selections S of U."""
    u_matrix = matkernel.as_matrix(u_matrix)
    p, r = u_matrix.shape
    _check_candidates(p, r, "rows")
    return float(_growth_factor(p, r) / _smin(u_matrix, "the input"))


def sensor_state_error_bound(c, psi_r, hankel, form="explicit"):
    """A priori bound on ||x - P_C x||_2 for QR-selected sensors.

    `form="explicit"` uses the sqrt(p-r+1) pivot-growth constant;
    `form="sqrt_p"` the looser sqrt(p) * 2^r restatement.
    """
    return _state_error_bounds(c, psi_r, hankel, (form,), "sensors")[0]


def actuator_state_error_bound(b, phi_r, hankel, form="explicit"):
    """Dual bound on ||z - P_B z||_2 for QR-selected actuators."""
    b = matkernel.as_matrix(b)
    return _state_error_bounds(b.conj().T, phi_r, hankel, (form,), "actuators")[0]


def _sampled(c, psi_r, what):
    """C, Psi_r, p, r and sigma_min(C Psi_r) for a bound on p >= r candidates."""
    c, psi_r = matkernel.as_matrix(c), matkernel.as_matrix(psi_r)
    p, r = c.shape[0], psi_r.shape[1]
    _check_candidates(p, r, what)
    return c, psi_r, p, r, _smin(c @ psi_r, "C Psi_r")


def _state_error_bounds(c, psi_r, hankel, forms, what):
    """The state error bound in each of `forms`; sigma_min(C Psi_r) and the
    norms are computed once for all of them."""
    c, psi_r, p, r, smin = _sampled(c, psi_r, what)
    tail = 2.0 * np.sum(np.asarray(hankel, dtype=float)[r:])
    growth = {"explicit": _growth_factor(p, r), "sqrt_p": np.sqrt(float(p)) * 2.0**r}
    unknown = [form for form in forms if form not in growth]
    if unknown:
        raise ValueError(f"unknown bound form {unknown[0]!r}")
    norms = np.sqrt(_gram_eigvalsh(c)[-1] * _gram_eigvalsh(psi_r)[-1])  # ||C|| ||Psi_r||
    return [float(norms / smin * growth[form] * tail) for form in forms]


def sensor_logdet_lower_bound(c, psi_r, hankel, gamma=None, check=True):
    """Guaranteed lower bound on the rank-r log-det sensor objective.

    The objective is log|C_hat W_hat_c C_hat*| with W_hat_c the rank-r
    balanced approximation Psi_r diag(sigma) Psi_r*.  When `gamma` is given
    and `check` is true, the achieved objective is computed and the bound
    asserted against it.
    """
    return _logdet_lower_bound(c, psi_r, hankel, gamma, check, "sensors")


def actuator_logdet_lower_bound(b, phi_r, hankel, beta=None, check=True):
    """Dual guaranteed lower bound for the actuator log-det objective."""
    b = matkernel.as_matrix(b)
    return _logdet_lower_bound(b.conj().T, phi_r, hankel, beta, check, "actuators")


def _logdet_lower_bound(c, psi_r, hankel, gamma, check, what):
    c, psi_r, p, r, smin = _sampled(c, psi_r, what)
    const = 9.0 * smin**2 / ((p - r + 1.0) * (4.0**r + 6.0 * r - 1.0))
    bound = float(r * np.log(const) + np.sum(np.log(np.asarray(hankel, dtype=float)[:r])))
    if gamma is not None and check:
        achieved = achieved_rank_r_logdet(c, psi_r, hankel, gamma)
        if bound > achieved + 1e-9 * max(1.0, abs(achieved)):
            raise NumericError(f"log-det lower bound {bound} exceeds achieved {achieved}")
    return bound


def achieved_rank_r_logdet(mat, modes, hankel, indices):
    """log-det objective achieved on the rank-r balanced gramian.

    log|C_hat (Psi S Psi*) C_hat*| for C_hat = mat[indices]; pass mat = B*
    and the Phi modes for the actuator objective log|B_hat* (Phi S Phi*) B_hat|.
    """
    mat, modes = matkernel.as_matrix(mat), matkernel.as_matrix(modes)
    r = modes.shape[1]
    sig = np.asarray(hankel, dtype=float)[:r]
    idx = np.asarray(indices)
    hat = mat[idx, :] @ modes
    core = (hat * sig) @ hat.conj().T
    return matkernel.logdet_abs(core)
