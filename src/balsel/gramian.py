"""Exact and empirical gramians; Lyapunov, Stein and Riccati solvers.

The Stein equation A W A* - W + M = 0 is first summed by squared Smith
doubling, W = sum_j A^j M A^j*, with GEMMs alone (`_stein_doubling`); it
stops once the neglected tail is below roundoff, which also proves A
Schur-stable, and hands a model on which it does not converge within a fixed
budget to the Schur route, which raises the stability and ill-posedness
errors.  `compute_gramians` sums both Stein equations of a discrete model
together, so the two share the squares of A.
The Schur route serves the continuous Lyapunov equation A W + W A* + M = 0
and that Stein fallback with one solver, `_solve_from_schur`; a `discrete`
flag picks the stability and ill-posedness tests on the Schur diagonal and
the equation the triangular kernels solve.  The Hermitian right-hand side
goes to the symmetric recursion `_hermitian_solve`, which hands only its
off-diagonal blocks to the general recursive blocked kernel `_tri_solve`;
one leaf, a ZTRTRS column sweep, serves both kernels and both equations on
blocks of at most _LEAF.  The triangular equation is complex, but for a
real A every n x n product around it is real: `matkernel.schur` keeps the
real Schur vectors V and the 2x2 rotations Z that fold the real Schur form
into the complex one, U = V Z, and real data get a real solution.
On that route `compute_gramians` factors A once per gramian pair, reads
the Schur form of A* off it by a flip, and refines a gramian whose residual
exceeds 1e-9 by one more solve from the same form (see there).
The Riccati solver is the continuous-time counterpart of the Stein doubling:
the structure-preserving doubling algorithm (`_care_doubling`), n x n LU
solves and GEMMs only, under the same step budget.  A problem on which it
does not converge goes unchanged to Laub's ordered-Schur method on a scaled
Hamiltonian matrix (`_care_schur`), which raises the synthesis errors.
Either answer takes one Newton refinement step when its residual still
warrants it.
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
    NumericError,
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

# `_stein_doubling` hands over to the Schur route after this many updates.
# One update of both gramians costs 5 n x n GEMMs; the Schur route (the
# Schur form and both Stein solves) measured as much as 43 updates at
# n = 30, 25 at n = 400 and 16 at n = 800 (2 CPUs, OpenBLAS), so a model
# that does not converge costs at most about twice the Schur route.  16
# updates sum 65536 terms: enough for a normal A of spectral radius up to
# about 0.9997; the random discrete models (radius 0.475-0.95) take 5-9.
_DOUBLING_STEPS = 16

# ... and as soon as ||A_k||_F exceeds this.  An update adds a rounding
# error of about eps ||A_k||^2 ||W||, which this keeps below 1e-9 relative
# (the residual bound the solvers are held to).  The converging models
# measured peak at ||A_k||_F = 18 (the n = 400 random discrete models) and
# 30 (a non-normal n = 1000 one).  An unstable A passes it early, its norm
# squaring at each update: diag(1.5, 0.5) after 5.
_DOUBLING_GROWTH = 1e3

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


def _own_field(x):
    """`x`, real if it has no imaginary part: the field the Schur route
    gives its solution."""
    return x.real if np.iscomplexobj(x) and not np.any(x.imag) else x


def _stein_doubling(a, m_c, m_o=None):
    """(W_c, W_o) with A W_c A* - W_c + M_c = 0 and, if `m_o` is given,
    A* W_o A - W_o + M_o = 0 (else W_o is None), by squared Smith doubling;
    None if it does not converge.

    With A_0 = A, each update W_c <- W_c + A_k W_c A_k*,
    W_o <- W_o + A_k* W_o A_k and A_{k+1} = A_k^2 doubles the number of
    summed terms of W = sum_j A^j M A^j* (Smith, SIAM J. Appl. Math. 16
    (1968); Penzl, SIAM J. Sci. Comput. 21 (2000)).  The two sums share the
    squares, so an update costs 5 GEMMs.  The neglected tail is exactly
    A_k W A_k*, so doubling stops once ||A_k||_F^2 <= eps, a relative error
    of at most eps.  That bound also proves A Schur-stable:
    rho(A)^(2^k) <= ||A_k||_F <= sqrt(eps) at k <= _DOUBLING_STEPS gives
    rho(A) < 1 - 2.7e-4 and |1 - lambda_i conj(lambda_j)| > 5e-4, so neither
    the stability nor the ill-posedness test of the Schur route could fail.
    After _DOUBLING_STEPS updates, or once ||A_k||_F exceeds
    _DOUBLING_GROWTH (or is not finite), it returns None, and the caller
    solves from the Schur form.  A and M with no imaginary part give a real W.
    """
    eps = np.finfo(np.float64).eps
    a_k = _own_field(a)
    w_c = _own_field(m_c)
    w_o = None if m_o is None else _own_field(m_o)
    for step in range(_DOUBLING_STEPS + 1):
        size = np.linalg.norm(a_k)
        if size * size <= eps:
            return _hermitize(w_c), None if w_o is None else _hermitize(w_o)
        if step == _DOUBLING_STEPS or not size <= _DOUBLING_GROWTH:
            return None
        a_h = a_k.conj().T
        w_c = w_c + a_k @ w_c @ a_h
        if w_o is not None:
            w_o = w_o + a_h @ w_o @ a_k
        a_k = a_k @ a_k


def _solve(a, m, discrete):
    a = matkernel.as_matrix(a)
    m = matkernel.as_matrix(m)
    n = a.shape[0]
    if a.shape[1] != n or m.shape != (n, n):
        raise DimensionError("coefficient and right-hand side must be square, same size")
    pair = _stein_doubling(a, m) if discrete else None
    if pair is not None:
        return pair[0]
    with np.errstate(over="ignore", invalid="ignore"):  # tested just below
        w = _solve_from_schur(matkernel.schur(a), m, discrete)
    if not np.isfinite(w).all():
        raise NumericError("the solution is not finite: A is too far from normal "
                           "for double precision")
    return w


def solve_lyapunov_continuous(a, m):
    """Solve A W + W A* + M = 0 for Hurwitz A and Hermitian M.

    A solution that overflows double precision raises NumericError.
    """
    return _solve(a, m, discrete=False)


def solve_stein(a, m):
    """Solve A W A* - W + M = 0 for Schur-stable A and Hermitian M.

    Squared Smith doubling first (`_stein_doubling`); an A on which it does
    not converge goes to the Schur form, which raises UnstableSystemError or
    IllPosedError as its diagonal warrants, and NumericError if the
    solution overflows double precision.
    """
    return _solve(a, m, discrete=True)


def _equation(a, w, m, discrete):
    """The residual matrix A W + W A* + M, or A W A* - W + M if `discrete`."""
    return a @ w @ a.conj().T - w + m if discrete else a @ w + w @ a.conj().T + m


def _relative(res, m):
    return float(np.linalg.norm(res) / max(np.linalg.norm(m), 1e-300))


def lyapunov_residual(a, w, m):
    return _relative(_equation(a, w, m, False), m)


def stein_residual(a, w, m):
    return _relative(_equation(a, w, m, True), m)


# Relative gramian residual above which `compute_gramians` refines a
# solution from the Schur form (the bound the A2 gates hold solvers to).
_GRAMIAN_TOL = 1e-9


def compute_gramians(m):
    """Exact controllability and observability gramians of a stable model.

    A discrete model's two Stein equations are summed together by squared
    Smith doubling (`_stein_doubling`), which computes no Schur form.  A
    continuous model, and a discrete one on which doubling does not
    converge, factor A once, and the adjoint's Schur form is read off it by
    a flip (`matkernel.SchurForm.adjoint`).  On that route a gramian whose
    relative residual exceeds `_GRAMIAN_TOL` takes one refinement step,
    W += dW with dW solving the same equation for the residual matrix, from
    the Schur form in hand.  Stability is not tested separately: convergent
    doubling proves it, and otherwise the solver raises UnstableSystemError
    from the Schur form's diagonal.  A gramian or residual that is not
    finite (A too far from normal for double precision) raises NumericError.
    """
    discrete = m.time_domain == statespace.DISCRETE
    bb = m.b @ m.b.conj().T
    cc = m.c.conj().T @ m.c
    sides = ("controllability", m.a, bb), ("observability", m.a.conj().T, cc)
    pair = _stein_doubling(m.a, bb, cc) if discrete else None
    forms = None, None
    # an overflowing solve is caught by the finiteness test below
    with np.errstate(over="ignore", invalid="ignore"):
        if pair is None:
            form = matkernel.schur(m.a)
            forms = form, form.adjoint()
            pair = [_solve_from_schur(f, rhs, discrete) for f, (_, _, rhs) in zip(forms, sides)]
        grams, errs = [], []
        for w, form, (name, a, rhs) in zip(pair, forms, sides):
            res = _equation(a, w, rhs, discrete)
            err = _relative(res, rhs)
            if form is not None and err > _GRAMIAN_TOL:
                w = _hermitize(w + _solve_from_schur(form, res, discrete))
                err = _relative(_equation(a, w, rhs, discrete), rhs)
            if not (np.isfinite(err) and np.isfinite(w).all()):
                raise NumericError(f"the {name} gramian is not finite (relative residual "
                                   f"{err:.3g}): A is too far from normal for double precision")
            grams.append(w)
            errs.append(err)
    return GramianPair(*grams, *errs)


# Relative norm of the last snapshot block (to the first) above which
# `empirical_gramians` warns, and above which it raises HorizonError.
_DECAY_WARN = 1e-6
_DECAY_MAX = 1e-3


def empirical_gramians(direct, adjoint, weights):
    """Quadrature gramians from impulse-response snapshot blocks.

    The snapshot blocks come from `statespace.impulse_snapshots`.  The final
    block must have decayed relative to the initial one: below `_DECAY_MAX`
    relative norm is required (HorizonError otherwise), below `_DECAY_WARN`
    is expected (a warning is emitted in between).  The residuals are nan.
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
        if first > 0 and last > _DECAY_MAX * first:
            raise HorizonError(
                f"{name} snapshots decayed only to {last / first:.2e} of the "
                f"initial norm; lengthen the horizon"
            )
        if first > 0 and last > _DECAY_WARN * first:
            warnings.warn(
                f"{name} snapshot horizon is marginal "
                f"(relative final norm {last / first:.2e})",
                stacklevel=2,
            )

    w_c = (direct * np.repeat(weights, q)) @ direct.conj().T
    w_o = (adjoint * np.repeat(weights, p)) @ adjoint.conj().T
    return GramianPair(_hermitize(w_c), _hermitize(w_o), np.nan, np.nan)


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


def _care_doubling(a, g, q):
    """Stabilizing solution of A* X + X A - X G X + Q = 0 by the
    structure-preserving doubling algorithm (Chu, Fan & Lin, Linear Algebra
    Appl. 396 (2005)); None if it does not converge.

    A Cayley transform with shift gamma > 0, A_g = A - gamma I and
    W = A_g* + Q A_g^{-1} G, gives E_0 = I + 2 gamma W^{-*},
    G_0 = -2 gamma (A_g^{-1} G W^{-1})* and H_0 = 2 gamma W^{-1} Q A_g^{-1}.
    Each update solves [T_1, T_2] = (I - G_k H_k)^{-1} [E_k, G_k] and sets
    G <- G + E T_2 E*, H <- H + T_1* H E and E <- E T_1: one LU and 5 GEMMs,
    since G_k and H_k stay Hermitian and the general F_k is E_k*.  E_k
    converges to zero quadratically and H_k to X, so doubling stops once
    ||E_k||_F^2 <= eps.  The shift is the geometric mean of ||A||_F / sqrt(n)
    and sqrt(||G||_F ||Q||_F) / n (at least the former).  This rule takes 9
    updates on each Ginzburg-Landau equation and 13 on random n = 40 filters
    with V = 4e-8 I, none of which converged within the budget at the first
    shift alone.  `_stein_doubling`'s budget applies: after _DOUBLING_STEPS
    updates, once ||E_k||_F exceeds _DOUBLING_GROWTH, or on a singular or
    non-finite solve, it returns None and the caller takes the ordered-Schur
    route.  At n = 100, complex, 16 updates took 0.032 s and that route
    0.044 s (2 CPUs, OpenBLAS).  Only numpy solves and GEMMs run, so real
    data give a real X.  scipy's LU here would interleave its OpenBLAS pool
    with numpy's (see `matkernel`): one GL solve so built took 0.05-0.19 s
    against 0.021 s.
    """
    n = len(a)
    eye = np.eye(n)
    lo = np.linalg.norm(a) / np.sqrt(n)
    hi = max(lo, np.sqrt(np.linalg.norm(g) * np.linalg.norm(q)) / n)
    gamma = np.sqrt(lo * hi)
    a_g = a - gamma * eye
    eps = np.finfo(np.float64).eps
    # a non-finite iterate ends the iteration below, without warnings
    with np.errstate(all="ignore"):
        try:
            aig = np.linalg.solve(a_g, g)  # A_g^{-1} G
            qai = np.linalg.solve(a_g.conj().T, q.conj().T).conj().T  # Q A_g^{-1}
            # W^{-*} [I, (A_g^{-1} G)*]
            y = np.linalg.solve((a_g.conj().T + q @ aig).conj().T, np.hstack([eye, aig.conj().T]))
            e = eye + 2.0 * gamma * y[:, :n]
            g_k = -2.0 * gamma * y[:, n:]
            h_k = 2.0 * gamma * y[:, :n].conj().T @ qai
            for step in range(_DOUBLING_STEPS + 1):
                size = np.linalg.norm(e)
                if size * size <= eps:
                    return h_k if np.isfinite(h_k).all() else None
                if step == _DOUBLING_STEPS or not size <= _DOUBLING_GROWTH:
                    return None
                t = np.linalg.solve(eye - g_k @ h_k, np.hstack([e, g_k]))
                he = h_k @ e
                et = e @ t
                g_k = g_k + et[:, n:] @ e.conj().T
                h_k = h_k + t[:, :n].conj().T @ he
                e = et[:, :n]
        except np.linalg.LinAlgError:
            return None


def _care_schur(a, g, q):
    """Stabilizing solution of A* X + X A - X G X + Q = 0 from the ordered
    Schur form of its Hamiltonian matrix (stable eigenvalues first; Laub,
    IEEE TAC 24 (1979)), real for real inputs and complex otherwise, on one
    scipy BLAS thread like every Schur form (see `matkernel`).

    The Hamiltonian is that of X~ = X / rho with rho = sqrt(||Q||_1 / ||G||_1),
    which gives its two off-diagonal blocks equal 1-norms.  The
    Ginzburg-Landau filter's ||G|| is some 4e7 times ||Q||; at n = 100 its
    relative residual is 8e-13 scaled and 1.1e-8 unscaled.  Raises
    SynthesisError if the stable subspace has the wrong dimension or is not
    a graph.
    """
    n = len(a)
    norms = np.linalg.norm(q, 1), np.linalg.norm(g, 1)
    rho = np.sqrt(norms[0] / norms[1]) if all(norms) else 1.0
    ham = np.block([[a, -rho * g], [-q / rho, -a.conj().T]])
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
        return rho * np.linalg.solve(u11.T, u21.T).T
    except np.linalg.LinAlgError as exc:
        raise SynthesisError("ordered-Schur basis is singular") from exc


def solve_care(a, b, q_weight, r_weight):
    """Stabilizing solution of A* X + X A - X B R^{-1} B* X + Q = 0.

    X comes from structure-preserving doubling (`_care_doubling`), which
    computes no Schur form; if doubling does not converge, the problem goes
    unchanged to the ordered Schur form of the Hamiltonian (`_care_schur`),
    which raises SynthesisError when no stabilizing solution exists.  Both
    keep the field of their inputs: real inputs give a real X.  A singular
    R raises SynthesisError.  If the residual exceeds `_REFINE_TOL`, one
    Newton step (a Lyapunov solve on the closed loop) refines X, and A - G X
    must then have its eigenvalues in the open left half plane
    (SynthesisError otherwise).
    """
    a = matkernel.as_matrix(a)
    b = matkernel.as_matrix(b)
    q_weight = matkernel.as_matrix(q_weight)
    r_weight = matkernel.as_matrix(r_weight)
    n = a.shape[0]
    if b.shape[0] != n or q_weight.shape != (n, n):
        raise DimensionError("incompatible Riccati dimensions")
    if not all(np.isfinite(x).all() for x in (a, b, q_weight, r_weight)):
        raise DimensionError("Riccati data has non-finite (nan or inf) entries")

    try:
        g = b @ np.linalg.solve(r_weight, b.conj().T)
    except np.linalg.LinAlgError as exc:
        raise SynthesisError("input weight R is singular") from exc
    x = _care_doubling(a, g, q_weight)
    if x is None:
        x = _care_schur(a, g, q_weight)
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
