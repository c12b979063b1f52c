"""Exact and empirical gramians; Lyapunov, Stein and Riccati solvers.

The continuous Lyapunov equation A W + W A* + M = 0 and the Stein equation
A W A* - W + M = 0 share one solver, `_solve_from_schur`; a `discrete` flag
picks the stability and ill-posedness tests on the Schur diagonal and the
equation the triangular kernels solve.  The Hermitian right-hand side goes
to the symmetric recursion `_hermitian_solve`, which hands only its
off-diagonal blocks to the general recursive blocked kernel `_tri_solve`;
one leaf, a ZTRTRS column sweep, serves both kernels and both equations on
blocks of at most _LEAF.  The triangular equation is complex, but for a
real A every n x n product around it is real: `matkernel.schur` keeps the
real Schur vectors V and the 2x2 rotations Z that fold the real Schur form
into the complex one, U = V Z, and real data get a real solution.
`compute_gramians` factors A once per gramian pair and reads the Schur
form of A* off it by a flip (see there).
The Riccati solver is Laub's ordered-Schur method on a scaled Hamiltonian
matrix, with one Newton refinement step when the residual still warrants it.
"""

import warnings
from dataclasses import dataclass

import numpy as np
import scipy.linalg as sla
from scipy.linalg import lapack

from . import matkernel, statespace
from .errors import (
    DimensionError,
    HorizonError,
    IllPosedError,
    SynthesisError,
    UnstableSystemError,
)
from .matkernel import _hermitize

__all__ = [
    "GramianPair",
    "solve_lyapunov_continuous",
    "solve_stein",
    "compute_gramians",
    "empirical_gramians",
    "solve_care",
    "lyapunov_residual",
    "stein_residual",
    "care_residual",
]

# Largest block the recursive triangular solver hands to a leaf solver.
_LEAF = 128

# Keyed by `discrete`: the eigenvalue coincidence that makes the equation singular.
_ILL_POSED = {
    False: "eigenvalue pair lambda_i + conj(lambda_j) ~ 0",
    True: "eigenvalue product lambda_i * conj(lambda_j) ~ 1",
}


@dataclass
class GramianPair:
    """Controllability/observability gramians with solver residuals."""

    w_c: np.ndarray
    w_o: np.ndarray
    residual_c: float
    residual_o: float
    source_tag: str = "exact"


def _leaf(a, b, c, discrete):
    """A X + X B* = C, or A X B* - X = C if `discrete`, for small
    upper-triangular A, B, swept by columns from the last.

    Column k solves (A + conj(b_kk) I) x_k = rhs_k, or for Stein
    (A - I / conj(b_kk)) x_k = rhs_k / conj(b_kk), where rhs_k is c_k less
    the update X[:, k+1:] conj(b[k, k+1:]), premultiplied by A for Stein;
    a Stein b_kk = 0 gives x_k = -rhs_k.  The coefficient is one copy of A
    whose diagonal is rewritten per column through a strided view.
    """
    m, n = c.shape
    coef = np.array(a, order="F")
    lam = np.diag(a).copy()
    diag = coef.T.reshape(-1)[:: m + 1]  # a view: coef.T is C-contiguous
    bh = b.conj()
    x = np.empty((m, n), dtype=np.complex128, order="F")
    for k in range(n - 1, -1, -1):
        upd = x[:, k + 1 :] @ bh[k, k + 1 :]
        rhs = c[:, k] - (a @ upd if discrete else upd)
        bkk = bh[k, k]
        if discrete and bkk == 0.0:
            x[:, k] = -rhs
            continue
        diag[:] = lam - 1.0 / bkk if discrete else lam + bkk
        xk, info = lapack.ztrtrs(coef, rhs / bkk if discrete else rhs)
        if info > 0:
            raise IllPosedError(_ILL_POSED[discrete])
        x[:, k] = xk
    return x


def _tri_solve(a, b, c, discrete):
    """Solve A X + X B* = C, or A X B* - X = C if `discrete`.

    A and B are upper triangular.  Recursive blocking (Jonsson & Kagstrom,
    ACM TOMS 28(4), 2002): the larger dimension is halved, the trailing
    block is solved first and the leading right-hand side is updated by a
    matrix product, so most of the flops run as GEMMs.  Blocks of at most
    _LEAF x _LEAF go to the column sweep `_leaf`.
    """
    m, n = c.shape
    if max(m, n) <= _LEAF:
        return _leaf(a, b, c, discrete)
    x = np.empty((m, n), dtype=np.complex128)
    if m >= n:
        h = m // 2
        x[h:] = _tri_solve(a[h:, h:], b, c[h:], discrete)
        upd = a[:h, h:] @ x[h:]
        if discrete:
            upd = upd @ b.conj().T
        x[:h] = _tri_solve(a[:h, :h], b, c[:h] - upd, discrete)
    else:
        h = n // 2
        x[:, h:] = _tri_solve(a, b[h:, h:], c[:, h:], discrete)
        upd = a @ x[:, h:] if discrete else x[:, h:]
        x[:, :h] = _tri_solve(a, b[:h, :h], c[:, :h] - upd @ b[:h, h:].conj().T, discrete)
    return x


def _hermitian_solve(t, c, discrete):
    """Solve T X + X T* = C, or T X T* - X = C if `discrete`, for upper
    triangular T and Hermitian C.

    The symmetric recursions RECLYCT/RECLYDT of the same paper as
    `_tri_solve`: with X = [[X11, X12], [X12*, X22]] split at h = n // 2,
    X22 and then X11 (its right-hand side less S + S*) are Hermitian
    subproblems, and only X12 goes to `_tri_solve`.  Blocks of at most
    _LEAF go to `_leaf`.
    """
    n = len(c)
    if n <= _LEAF:
        return _leaf(t, t, c, discrete)
    h = n // 2
    t11, t12, t22 = t[:h, :h], t[:h, h:], t[h:, h:]
    x = np.empty((n, n), dtype=np.complex128)
    x[h:, h:] = _hermitian_solve(t22, c[h:, h:], discrete)
    f = t12 @ x[h:, h:]
    x[:h, h:] = _tri_solve(t11, t22, c[:h, h:] - (f @ t22.conj().T if discrete else f), discrete)
    # S = X12 T12*, or (T11 X12 + F / 2) T12* for Stein, F = T12 X22
    s = (t11 @ x[:h, h:] + 0.5 * f if discrete else x[:h, h:]) @ t12.conj().T
    x[:h, :h] = _hermitian_solve(t11, c[:h, :h] - s - s.conj().T, discrete)
    x[h:, :h] = x[:h, h:].conj().T
    return x


def _solve_from_schur(form, m, discrete):
    """Solve A W + W A* + M = 0, or A W A* - W + M = 0 if `discrete`, given
    the Schur form A = U T U* (`matkernel.SchurForm`, U = V Z).

    U* M U is formed as Z* (V* M V) Z and U X U* as V (Z X Z*) V*, so a
    real A keeps its GEMMs real; W is real when A and M are.
    """
    lam = np.diag(form.t)
    unstable = statespace._instability(lam, discrete)
    if unstable:
        eq = "the Stein equation needs a Schur-stable A" if discrete else (
            "the continuous Lyapunov equation needs a Hurwitz A")
        raise UnstableSystemError(f"model is unstable: {unstable} ({eq})")
    if discrete:
        gap, tol = np.abs(1.0 - lam[:, None] * lam.conj()), 1e-12
    else:
        gap, tol = np.abs(lam[:, None] + lam.conj()), 1e-12 * max(np.abs(lam).max(), 1.0)
    if np.min(gap) <= tol:
        raise IllPosedError(_ILL_POSED[discrete])
    v = form.v
    x = _hermitian_solve(form.t, -_hermitize(form.fold(v.conj().T @ m @ v)), discrete)
    y = form.unfold(x)
    if not (np.iscomplexobj(v) or np.iscomplexobj(m) and np.any(m.imag)):
        y = y.real
    return _hermitize(v @ y @ v.conj().T)


def _solve(a, m, discrete):
    a = matkernel.as_matrix(a)
    m = matkernel.as_matrix(m)
    n = a.shape[0]
    if a.shape[1] != n or m.shape != (n, n):
        raise DimensionError("coefficient and right-hand side must be square, same size")
    return _solve_from_schur(matkernel.schur(a), m, discrete)


def solve_lyapunov_continuous(a, m):
    """Solve A W + W A* + M = 0 for Hurwitz A and Hermitian M."""
    return _solve(a, m, discrete=False)


def solve_stein(a, m):
    """Solve A W A* - W + M = 0 for Schur-stable A and Hermitian M."""
    return _solve(a, m, discrete=True)


def lyapunov_residual(a, w, m):
    num = np.linalg.norm(a @ w + w @ a.conj().T + m)
    den = max(np.linalg.norm(m), 1e-300)
    return float(num / den)


def stein_residual(a, w, m):
    num = np.linalg.norm(a @ w @ a.conj().T - w + m)
    den = max(np.linalg.norm(m), 1e-300)
    return float(num / den)


def compute_gramians(m):
    """Exact controllability and observability gramians of a stable model.

    A is factored once, and the adjoint's Schur form is read off it by a
    flip (`matkernel.SchurForm.adjoint`).  Stability is not tested
    separately: the solver raises UnstableSystemError from the Schur form's
    diagonal.
    """
    bb = m.b @ m.b.conj().T
    cc = m.c.conj().T @ m.c
    form = matkernel.schur(m.a)
    a_adj = m.a.conj().T
    discrete = m.time_domain == statespace.DISCRETE
    residual = stein_residual if discrete else lyapunov_residual
    w_c = _solve_from_schur(form, bb, discrete)
    w_o = _solve_from_schur(form.adjoint(), cc, discrete)
    res_c = residual(m.a, w_c, bb)
    res_o = residual(a_adj, w_o, cc)
    return GramianPair(w_c, w_o, res_c, res_o, source_tag="exact")


def empirical_gramians(direct, adjoint, weights, decay_tol=1e-6, decay_hard=1e-3):
    """Quadrature gramians from impulse-response snapshot blocks.

    The snapshot blocks come from `statespace.impulse_snapshots`.  The final
    block must have decayed relative to the initial one: below `decay_hard`
    relative norm is required (HorizonError otherwise), below `decay_tol`
    is expected (a warning is emitted in between).
    """
    direct = matkernel.as_matrix(direct)
    adjoint = matkernel.as_matrix(adjoint)
    weights = np.asarray(weights, dtype=float)
    steps = weights.size
    if direct.shape[1] % steps or adjoint.shape[1] % steps:
        raise DimensionError("snapshot count inconsistent with weights")
    q = direct.shape[1] // steps
    p = adjoint.shape[1] // steps

    for name, x, width in (("direct", direct, q), ("adjoint", adjoint, p)):
        first = np.linalg.norm(x[:, :width])
        last = np.linalg.norm(x[:, -width:])
        if first > 0 and last > decay_hard * first:
            raise HorizonError(
                f"{name} snapshots decayed only to {last / first:.2e} of the "
                f"initial norm; lengthen the horizon"
            )
        if first > 0 and last > decay_tol * first:
            warnings.warn(
                f"{name} snapshot horizon is marginal "
                f"(relative final norm {last / first:.2e})",
                stacklevel=2,
            )

    w_c = (direct * np.repeat(weights, q)) @ direct.conj().T
    w_o = (adjoint * np.repeat(weights, p)) @ adjoint.conj().T
    return GramianPair(
        _hermitize(w_c), _hermitize(w_o), np.nan, np.nan, source_tag="empirical"
    )


def care_residual(a, b, q, r, x):
    """Relative residual of the continuous algebraic Riccati equation."""
    gx = b @ np.linalg.solve(r, b.conj().T @ x)
    res = a.conj().T @ x + x @ a - x @ gx + q
    den = max(
        np.linalg.norm(q),
        2.0 * np.linalg.norm(a.conj().T @ x),
        np.linalg.norm(x @ gx),
        1e-300,
    )
    return float(np.linalg.norm(res) / den)


# Relative CARE residual above which `solve_care` takes its Newton step.
_REFINE_TOL = 1e-8


def solve_care(a, b, q_weight, r_weight):
    """Stabilizing solution of A* X + X A - X B R^{-1} B* X + Q = 0.

    Uses the ordered Schur form of the Hamiltonian matrix (stable
    eigenvalues first), real for real inputs and complex otherwise, so X
    keeps the field of its inputs.  It is computed on one scipy BLAS thread
    like every Schur form (see `matkernel`).  A singular R raises
    SynthesisError.  The Hamiltonian is that of X~ = X / rho with
    rho = sqrt(||Q||_1 / ||G||_1), G = B R^{-1} B*, which gives its two
    off-diagonal blocks equal 1-norms (Laub, IEEE TAC 24 (1979)).  The
    Ginzburg-Landau filter's ||G|| is some 4e7 times ||Q||; at n = 100 its
    relative residual is 8e-13 scaled and 1.1e-8 unscaled.  If the residual
    still exceeds `_REFINE_TOL`, one Newton step (a Lyapunov solve on the
    closed loop) refines the iterate.
    """
    a = matkernel.as_matrix(a)
    b = matkernel.as_matrix(b)
    q_weight = matkernel.as_matrix(q_weight)
    r_weight = matkernel.as_matrix(r_weight)
    n = a.shape[0]
    if b.shape[0] != n or q_weight.shape != (n, n):
        raise DimensionError("incompatible Riccati dimensions")

    try:
        g = b @ np.linalg.solve(r_weight, b.conj().T)
    except np.linalg.LinAlgError as exc:
        raise SynthesisError("input weight R is singular") from exc
    norms = np.linalg.norm(q_weight, 1), np.linalg.norm(g, 1)
    rho = np.sqrt(norms[0] / norms[1]) if all(norms) else 1.0
    ham = np.block([[a, -rho * g], [-q_weight / rho, -a.conj().T]])
    with matkernel._one_lapack_thread():
        t, u, sdim = sla.schur(ham, sort="lhp")
    if sdim != n:
        raise SynthesisError(
            f"Hamiltonian has {sdim} stable eigenvalues, expected {n}: "
            "no stabilizing solution"
        )
    u11 = u[:n, :n]
    u21 = u[n:, :n]
    try:
        x = rho * np.linalg.solve(u11.T, u21.T).T
    except np.linalg.LinAlgError as exc:
        raise SynthesisError("ordered-Schur basis is singular") from exc
    x = _hermitize(x)

    if care_residual(a, b, q_weight, r_weight, x) > _REFINE_TOL:
        gx = b @ np.linalg.solve(r_weight, b.conj().T @ x)
        a_cl = a - gx
        res = a.conj().T @ x + x @ a - x @ gx + q_weight
        try:
            delta = solve_lyapunov_continuous(a_cl.conj().T, res)
            x = _hermitize(x + delta)
        except (UnstableSystemError, IllPosedError):
            pass  # keep the unrefined iterate

    a_cl = a - b @ np.linalg.solve(r_weight, b.conj().T @ x)
    if statespace._instability(matkernel.eigvals(a_cl), discrete=False):
        raise SynthesisError("Riccati closed loop is not stable")
    return x
