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
The state error bound with p >= n candidates forms G = C* C once: ||C||_2
and sigma_min(C Psi_r)^2 = lambda_min(Psi_r* G Psi_r) both come from it,
the latter only while sigma_min >= 1e-2 ||C|| ||Psi_r||, else C Psi_r is
formed and `_smin` decides.  Non-finite input is found on these small Gram
matrices, never by a pass over the candidates.
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


@dataclass
class ProjectionOperator:
    """Oblique interpolation projector basis (sampled_rows)^{-1} sampler."""

    basis: np.ndarray
    sampler: np.ndarray
    sampled_rows: np.ndarray


def _finite_eigvalsh(gram, what):
    """Ascending eigenvalues of the Hermitian `gram` of `what`; DimensionError
    when it is not finite (a non-finite entry of `what` always reaches it)."""
    if not np.isfinite(gram).all():
        raise DimensionError(f"the Gram matrix of {what} is not finite")
    return np.linalg.eigvalsh(gram)


def _gram_eigvalsh(mat, what):
    """Squared singular values, ascending, from the short-side Gram."""
    gram = mat.conj().T @ mat if mat.shape[0] >= mat.shape[1] else mat @ mat.conj().T
    return _finite_eigvalsh(gram, what)


def _smin(mat, what, rtol=0.0):
    """Smallest singular value of `mat`; RankError when it is at most
    `rtol` (< 1e-2) times the largest (exactly zero by default)."""
    lam = _gram_eigvalsh(mat, what)
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

    Returns (gamma, r_diag) with gamma in pivot order.  DimensionError
    unless Psi_r has a row per column of C and C has at least r rows.
    """
    c, psi_r, _, r, _ = _checked(c, psi_r, "sensors")
    return _pivots((c @ psi_r).conj().T, r, "sensors")


def select_actuators(b, phi_r):
    """Greedy actuator columns: first r pivots of the pivoted QR of Phi_r* B.

    The dual of `select_sensors`: the same pivoting on the adjoint's
    sampled modes, with its DimensionError rules on B* and Phi_r.
    """
    bt, phi_r, _, r, _ = _checked(matkernel.as_matrix(b).T, phi_r, "actuators")
    return _pivots(phi_r.conj().T @ bt.T, r, "actuators")  # B^T has B*'s shape


def select_noncollocated(c, b, psi_r, phi_r):
    """Select actuators first, then sensors other than those with a chosen
    actuator's index (sensor i and actuator i share a location, as for
    B = C = I; an actuator index at or above p excludes none).  The
    DimensionError rules are those of `select_sensors` and
    `select_actuators`."""
    beta, r_diag_b = select_actuators(b, phi_r)
    c, psi_r, p, r, _ = _checked(c, psi_r, "sensors")
    gamma, r_diag_s = _pivots((c @ psi_r).conj().T, r, "sensors", beta[beta < p])
    return SelectionResult(gamma, beta, r_diag_s, r_diag_b)


def select_subsets(c, b, psi_r, phi_r, no_collocate=False):
    """Select both index sets; with `no_collocate`, by `select_noncollocated`.
    DimensionError under the rules of `select_sensors` and
    `select_actuators`."""
    if no_collocate:
        return select_noncollocated(c, b, psi_r, phi_r)
    gamma, rd_s = select_sensors(c, psi_r)
    beta, rd_a = select_actuators(b, phi_r)
    return SelectionResult(gamma, beta, rd_s, rd_a)


def _projection(c, psi_r, gamma, what):
    c, psi_r, p, r, _ = _checked(c, psi_r, what)
    sampler = c[_indices(gamma, p, r, what), :]
    return ProjectionOperator(basis=psi_r, sampler=sampler, sampled_rows=sampler @ psi_r)


def sensor_projection(c, psi_r, gamma):
    """Interpolation projector Psi_r (C_hat Psi_r)^{-1} C_hat onto span(Psi_r).

    DimensionError unless Psi_r has a row per column of C, C has at least r
    rows and `gamma` holds r integer indices in [0, p)."""
    return _projection(c, psi_r, gamma, "sensors")


def actuator_projection(b, phi_r, beta):
    """Dual projector Phi_r (B_hat* Phi_r)^{-1} B_hat* onto span(Phi_r), with
    the DimensionError rules of `sensor_projection` on B*, Phi_r and `beta`."""
    return _projection(matkernel.as_matrix(b).conj().T, phi_r, beta, "actuators")


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


def sensor_state_error_bound(c, psi_r, hankel):
    """A priori bound on ||x - P_C x||_2 for QR-selected sensors, with the
    sqrt(p-r+1) pivot-growth constant.

    DimensionError when Psi_r's rows do not match C's columns, C has fewer
    than r rows, C or Psi_r is not finite (or a Gram matrix of them
    overflows), or `hankel` is not a vector of at least r finite,
    non-negative values.
    """
    return _state_error_bounds(c, psi_r, hankel, "sensors")[0]


def actuator_state_error_bound(b, phi_r, hankel):
    """Dual bound on ||z - P_B z||_2 for QR-selected actuators, with the
    DimensionError rules of `sensor_state_error_bound` on B* and Phi_r."""
    b = matkernel.as_matrix(b)
    return _state_error_bounds(b.conj().T, phi_r, hankel, "actuators")[0]


def _indices(indices, p, r, what):
    """`indices` as an array; DimensionError unless they are r integers in
    [0, p) (numpy would read a negative one from the end)."""
    idx = np.asarray(indices)
    if idx.shape != (r,) or idx.dtype.kind not in "iu":
        raise DimensionError(f"selected {what} indices must be r={r} integers")
    if not ((idx >= 0) & (idx < p)).all():
        raise DimensionError(f"selected {what} indices must lie in [0, {p})")
    return idx


def _checked(c, psi_r, what, hankel=None):
    """C, Psi_r, p, r and the Hankel values, if given, for p >= r candidates;
    DimensionError unless Psi_r has a row per column of C and the Hankel
    values are at least r finite, non-negative numbers."""
    c, psi_r = matkernel.as_matrix(c), matkernel.as_matrix(psi_r)
    p, r = c.shape[0], psi_r.shape[1]
    if psi_r.shape[0] != c.shape[1]:
        raise DimensionError(
            f"modes have {psi_r.shape[0]} rows, but the {what}' candidate matrix "
            f"has {c.shape[1]} columns")
    _check_candidates(p, r, what)
    if hankel is not None:
        hankel = np.asarray(hankel, dtype=float)
        if hankel.ndim != 1 or hankel.size < r:
            raise DimensionError(f"need a vector of at least r={r} Hankel singular values")
        if not (np.isfinite(hankel).all() and (hankel >= 0).all()):
            raise DimensionError("Hankel singular values must be finite and non-negative")
    return c, psi_r, p, r, hankel


def _state_error_bounds(c, psi_r, hankel, what):
    """The state error bound with the sqrt(p-r+1) pivot-growth constant, and
    with the looser sqrt(p) * 2^r restatement; sigma_min(C Psi_r) and the
    norms are computed once for both.

    With p >= n, G = C* C gives ||C||_2^2 and, while it exceeds _GRAM_TOL
    ||C||^2 ||Psi_r||^2, sigma_min(C Psi_r)^2 = lambda_min(Psi_r* G Psi_r);
    judged against ||C|| ||Psi_r|| >= ||C Psi_r||, the squaring error stays
    within that of `_smin`'s own Gram test."""
    c, psi_r, p, r, hankel = _checked(c, psi_r, what, hankel)
    tail = 2.0 * np.sum(hankel[r:])
    psi2 = _gram_eigvalsh(psi_r, "Psi_r")[-1]
    if p >= c.shape[1]:
        gram = c.conj().T @ c
        c2 = _finite_eigvalsh(gram, "C")[-1]
        lam = _finite_eigvalsh(psi_r.conj().T @ gram @ psi_r, "C Psi_r")[0]
    else:  # C* C would be n x n: C C* gives ||C||, C Psi_r sigma_min
        c2, lam = _gram_eigvalsh(c, "C")[-1], 0.0
    if lam > _GRAM_TOL * c2 * psi2:
        smin = float(np.sqrt(lam))
    else:
        smin = _smin(c @ psi_r, "C Psi_r")
    norms = np.sqrt(c2 * psi2)  # ||C|| ||Psi_r||
    return [float(norms / smin * growth * tail)
            for growth in (_growth_factor(p, r), np.sqrt(float(p)) * 2.0**r)]


def sensor_logdet_lower_bound(c, psi_r, hankel, gamma=None):
    """Guaranteed lower bound on the rank-r log-det sensor objective.

    The objective is log|C_hat W_hat_c C_hat*| with W_hat_c the rank-r
    balanced approximation Psi_r diag(sigma) Psi_r*.  When `gamma` is given,
    the achieved objective is computed and the bound checked against it
    (NumericError if it exceeds it).  DimensionError under the input rules
    of `sensor_state_error_bound`, or unless `gamma` holds r integer
    indices in [0, p).
    """
    return _logdet_lower_bound(c, psi_r, hankel, gamma, "sensors")


def actuator_logdet_lower_bound(b, phi_r, hankel, beta=None):
    """Dual guaranteed lower bound for the actuator log-det objective, with
    the DimensionError rules of `sensor_logdet_lower_bound` on B*, Phi_r
    and `beta`."""
    b = matkernel.as_matrix(b)
    return _logdet_lower_bound(b.conj().T, phi_r, hankel, beta, "actuators")


def _logdet_lower_bound(c, psi_r, hankel, gamma, what):
    c, psi_r, p, r, hankel = _checked(c, psi_r, what, hankel)
    smin = _smin(c @ psi_r, "C Psi_r")
    const = 9.0 * smin**2 / ((p - r + 1.0) * (4.0**r + 6.0 * r - 1.0))
    bound = float(r * np.log(const) + np.sum(np.log(hankel[:r])))
    if gamma is not None:
        achieved = achieved_rank_r_logdet(c, psi_r, hankel, _indices(gamma, p, r, what))
        if bound > achieved + 1e-9 * max(1.0, abs(achieved)):
            raise NumericError(f"log-det lower bound {bound} exceeds achieved {achieved}")
    return bound


def achieved_rank_r_logdet(mat, modes, hankel, indices):
    """log-det objective achieved on the rank-r balanced gramian.

    log|C_hat (Psi S Psi*) C_hat*| for C_hat = mat[indices]; pass mat = B*
    and the Phi modes for the actuator objective log|B_hat* (Phi S Phi*) B_hat|.
    Its log-det is read off the diagonal of an unpivoted QR;
    SingularMatrixError when an |R_kk| falls below 1e-14 of the first.
    """
    mat, modes = matkernel.as_matrix(mat), matkernel.as_matrix(modes)
    r = modes.shape[1]
    sig = np.asarray(hankel, dtype=float)[:r]
    idx = np.asarray(indices)
    hat = mat[idx, :] @ modes
    core = (hat * sig) @ hat.conj().T
    rdiag = np.abs(np.diag(np.linalg.qr(core, mode="r")))
    if rdiag[0] == 0.0 or np.any(rdiag < 1e-14 * rdiag[0]):
        raise SingularMatrixError("matrix is singular to working precision")
    return float(np.sum(np.log(rdiag)))
