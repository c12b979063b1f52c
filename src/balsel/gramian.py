"""Exact gramians; Lyapunov, Stein and Riccati solvers.

One doubling loop, `_doubling`, serves the Stein and the Riccati equation
with numpy GEMMs and solves alone.  It owns the step budget, the stop once
the doubled matrix E_k is below roundoff, the growth limit and the
hand-over to a Schur route.  Uncoupled, from E_0 = A, it is squared Smith
doubling: it sums W = sum_j A^j M A^j* of A W A* - W + M = 0
(`_stein_doubling`), both gramians of a discrete model at once on the same
squares of A, and its convergence proves A Schur-stable.  Coupled, from a
Cayley transform, it is the structure-preserving doubling algorithm for the
Riccati equation (`_care_doubling`).
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
One routine, `_solve`, takes every Lyapunov and Stein equation, one or a
gramian pair: it picks the route, factors A once (the Schur form of A* is a
flip of it), refines a Schur-route solution whose residual exceeds 1e-9 by
one more solve from that form, and raises the non-finite NumericError.
A Stein problem the doubling hands over goes to the Schur route unchanged,
which raises the stability and ill-posedness errors; a Riccati one goes to
Laub's ordered-Schur method on a scaled Hamiltonian matrix (`_care_schur`),
which raises the synthesis errors.  Either Riccati answer takes one Newton
step, a Lyapunov solve by `_solve`, when its residual still warrants it.
"""

from dataclasses import dataclass

import numpy as np
import scipy.linalg as sla
from scipy.linalg import lapack

from . import matkernel, statespace
from .errors import (
    DimensionError,
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
    "solve_care",
    "lyapunov_residual",
    "stein_residual",
    "care_residual",
]

# Largest block the recursive triangular solver hands to a leaf solver.
_LEAF = 128

# Relative residual above which `_solve` refines a Schur-route solution from
# the form in hand (the bound the A2 gates hold solvers to).
_GRAMIAN_TOL = 1e-9

# The update budget and the growth limit of `_doubling` (see there).
_DOUBLING_STEPS = 16
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


def _doubling(e, g, h=None, coupled=False):
    """(G_k, H_k) once ||E_k||_F^2 <= eps, doubled from E_0 = e, G_0 = g and
    H_0 = h (H_k is None if h is); None if it does not get there.

    An update takes [T_1, T_2] = (I - G_k H_k)^{-1} [E_k, G_k] if `coupled`
    (the SDA of Chu, Fan & Lin, Linear Algebra Appl. 396 (2005)), else
    [E_k, G_k] (squared Smith doubling, SIAM J. Appl. Math. 16 (1968): G_k
    and H_k sum 2^k terms of sum_j E^j G E^j* and sum_j E^j* H E^j, and the
    tail E_k G_k E_k* left at the stop is below eps relative), then sets
    G += E T_2 E*, H += T_1* H E and E <- E T_1: 5 GEMMs, and an LU if
    coupled.  It returns None after _DOUBLING_STEPS updates, once ||E_k||_F
    exceeds _DOUBLING_GROWTH, on a singular solve or a non-finite result.
    The budget, 16 updates or 65536 terms, covers a normal E of spectral
    radius up to 0.9997; the random discrete models (radius 0.475-0.95) take
    5-9, each Ginzburg-Landau Riccati equation 9, random n = 40 filters with
    V = 4e-8 I 13.  A spent budget costs at most about twice the Schur route,
    which took as long as 43 Stein-pair updates at n = 30, 25 at n = 400 and
    16 at n = 800, and at n = 100 0.044 s against 0.032 s for 16 complex SDA
    updates (2 CPUs, OpenBLAS).  The growth limit keeps an update's rounding
    error, about eps ||E_k||^2 ||G||, below 1e-9 relative; converging models
    peak at ||E_k||_F = 18-30, and diag(1.5, 0.5) passes it after 5 updates.
    Only numpy runs, so real data give real sums: a scipy LU here made one
    GL solve take 0.05-0.19 s against 0.021 s (two OpenBLAS pools, see
    `matkernel`).
    """
    # a non-finite iterate ends the iteration below, without warnings
    with np.errstate(all="ignore"):
        for step in range(_DOUBLING_STEPS + 1):
            size = np.linalg.norm(e)
            if size * size <= np.finfo(np.float64).eps:
                finite = all(x is None or np.isfinite(x).all() for x in (g, h))
                return (g, h) if finite else None
            if step == _DOUBLING_STEPS or not size <= _DOUBLING_GROWTH:
                return None
            t1, t2 = e, g
            if coupled:
                try:
                    t = np.linalg.solve(np.eye(len(e)) - g @ h, np.hstack([e, g]))
                except np.linalg.LinAlgError:
                    return None
                t1, t2 = np.hsplit(t, 2)
            if h is not None:
                h = h + t1.conj().T @ h @ e
            g = g + e @ t2 @ e.conj().T
            e = e @ t1


def _stein_doubling(a, m_c, m_o=None):
    """(W_c, W_o) with A W_c A* - W_c + M_c = 0 and, if `m_o` is given,
    A* W_o A - W_o + M_o = 0 (else W_o is None), by squared Smith doubling
    (`_doubling` from E_0 = A); None if it does not converge.  Convergence
    proves A Schur-stable: rho(A)^(2^k) <= sqrt(eps) at k <= 16 gives
    rho(A) < 1 - 2.7e-4 and |1 - lambda_i conj(lambda_j)| > 5e-4, so no test
    of the Schur route could fail.  A and M with no imaginary part give a
    real W.
    """
    pair = _doubling(_own_field(a), _own_field(m_c), None if m_o is None else _own_field(m_o))
    return None if pair is None else tuple(None if w is None else _hermitize(w) for w in pair)


def _solve(a, m_c, m_o=None, *, discrete):
    """[(W_c, residual)] for A W_c + W_c A* + M_c = 0, or A W_c A* - W_c +
    M_c = 0 if `discrete`, and with `m_o` also (W_o, residual) for the same
    equation on A*: the one solve path of every Lyapunov and Stein equation.

    A discrete equation is summed by squared Smith doubling first
    (`_stein_doubling`).  Otherwise A is factored once, the adjoint's form
    is a flip of it (`SchurForm.adjoint`), and a solution whose relative
    residual exceeds `_GRAMIAN_TOL` becomes W + dW, dW solving the equation
    for the residual matrix from that form, if that lowers the residual.
    The Schur route raises UnstableSystemError or IllPosedError from the
    form's diagonal; a solution or residual that is not finite (A too far
    from normal for double precision) raises NumericError.
    """
    rhs, names = ((m_c,), ("the solution",)) if m_o is None else (
        (m_c, m_o), ("the controllability gramian", "the observability gramian"))
    sols = _stein_doubling(a, m_c, m_o) if discrete else None
    forms = None, None
    # an overflowing solve is caught by the finiteness test below
    with np.errstate(over="ignore", invalid="ignore"):
        if sols is None:
            form = matkernel.schur(a)
            forms = form, None if m_o is None else form.adjoint()
            sols = [_solve_from_schur(f, m, discrete) for f, m in zip(forms, rhs)]
        out = []
        for w, form, m, coef, name in zip(sols, forms, rhs, (a, a.conj().T), names):
            res = _equation(coef, w, m, discrete)
            err = _relative(res, m)
            if form is not None and err > _GRAMIAN_TOL:
                refined = _hermitize(w + _solve_from_schur(form, res, discrete))
                refined_err = _relative(_equation(coef, refined, m, discrete), m)
                if refined_err < err:
                    w, err = refined, refined_err
            if not (np.isfinite(err) and np.isfinite(w).all()):
                raise NumericError(f"{name} is not finite (relative residual {err:.3g}): A is "
                                   "too far from normal for double precision")
            out.append((w, err))
    return out


def _square(a, m):
    """A and M as matrices; DimensionError unless they are square, of one
    size, not empty and finite."""
    a = matkernel.as_matrix(a)
    m = matkernel.as_matrix(m)
    n = a.shape[0]
    if a.shape[1] != n or m.shape != (n, n):
        raise DimensionError("coefficient and right-hand side must be square, same size")
    if n == 0:
        raise DimensionError("coefficient and right-hand side are empty")
    if not (np.isfinite(a).all() and np.isfinite(m).all()):
        raise DimensionError("coefficient or right-hand side has non-finite (nan or inf) entries")
    return a, m


def solve_lyapunov_continuous(a, m):
    """Solve A W + W A* + M = 0 for Hurwitz A and Hermitian M.

    The Schur route of `_solve`, refined above `_GRAMIAN_TOL`, with its
    errors; non-finite A or M raises DimensionError.
    """
    return _solve(*_square(a, m), discrete=False)[0][0]


def solve_stein(a, m):
    """Solve A W A* - W + M = 0 for Schur-stable A and Hermitian M.

    `_solve`: squared Smith doubling and its residual (2 GEMMs), or on an A
    where it does not converge the refined Schur route, with its errors;
    non-finite A or M raises DimensionError.
    """
    return _solve(*_square(a, m), discrete=True)[0][0]


def _equation(a, w, m, discrete):
    """The residual matrix A W + W A* + M, or A W A* - W + M if `discrete`."""
    return a @ w @ a.conj().T - w + m if discrete else a @ w + w @ a.conj().T + m


def _relative(res, m):
    return float(np.linalg.norm(res) / max(np.linalg.norm(m), 1e-300))


def lyapunov_residual(a, w, m):
    return _relative(_equation(a, w, m, False), m)


def stein_residual(a, w, m):
    return _relative(_equation(a, w, m, True), m)


def compute_gramians(m):
    """Exact controllability and observability gramians of a stable model:
    `_solve` on (B B*, C* C).  Stability is not tested separately: doubling
    that converges proves it, and the Schur route raises UnstableSystemError
    from the form's diagonal.
    """
    (w_c, err_c), (w_o, err_o) = _solve(m.a, m.b @ m.b.conj().T, m.c.conj().T @ m.c,
                                        discrete=m.time_domain == statespace.DISCRETE)
    return GramianPair(w_c, w_o, err_c, err_o)


def _care_terms(a, b, q, r, x):
    """The CARE residual matrix A* X + X A - X G X + Q, G X = B R^{-1} B* X
    and the relative residual, each computed once for X."""
    gx = b @ np.linalg.solve(r, b.conj().T @ x)
    ax, xgx = a.conj().T @ x, x @ gx
    res = ax + x @ a - xgx + q
    den = max(np.linalg.norm(q), 2.0 * np.linalg.norm(ax), np.linalg.norm(xgx), 1e-300)
    return res, gx, float(np.linalg.norm(res) / den)


def care_residual(a, b, q, r, x):
    """Relative residual of the continuous algebraic Riccati equation."""
    return _care_terms(a, b, q, r, x)[2]


# Relative CARE residual above which `solve_care` takes its Newton step.
_REFINE_TOL = 1e-8


def _care_doubling(a, g, q):
    """Stabilizing solution of A* X + X A - X G X + Q = 0, the H_k of the
    coupled `_doubling`; None if it does not converge.

    A Cayley transform with shift gamma > 0, A_g = A - gamma I and
    W = A_g* + Q A_g^{-1} G, gives E_0 = I + 2 gamma W^{-*},
    G_0 = -2 gamma (A_g^{-1} G W^{-1})* and H_0 = 2 gamma W^{-1} Q A_g^{-1},
    or None if A_g or W is singular.  gamma is the geometric mean of
    ||A||_F / sqrt(n) and sqrt(||G||_F ||Q||_F) / n (at least the former),
    as the former alone runs out of budget on filters with V = 4e-8 I.
    """
    n = len(a)
    eye = np.eye(n)
    lo = np.linalg.norm(a) / np.sqrt(n)
    hi = max(lo, np.sqrt(np.linalg.norm(g) * np.linalg.norm(q)) / n)
    gamma = np.sqrt(lo * hi)
    a_g = a - gamma * eye
    with np.errstate(all="ignore"):  # a non-finite start ends the doubling
        try:
            aig = np.linalg.solve(a_g, g)  # A_g^{-1} G
            qai = np.linalg.solve(a_g.conj().T, q.conj().T).conj().T  # Q A_g^{-1}
            # W^{-*} [I, (A_g^{-1} G)*]
            y = np.linalg.solve((a_g.conj().T + q @ aig).conj().T, np.hstack([eye, aig.conj().T]))
        except np.linalg.LinAlgError:
            return None
        gh = _doubling(eye + 2.0 * gamma * y[:, :n], -2.0 * gamma * y[:, n:],
                       2.0 * gamma * y[:, :n].conj().T @ qai, coupled=True)
    return None if gh is None else gh[1]


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
    R raises SynthesisError.  Above `_REFINE_TOL`, one Newton step refines
    X: `solve_lyapunov_continuous` on A - G X for the residual matrix, both
    from `_care_terms`.  A - G X must then be Hurwitz (SynthesisError
    otherwise).  A non-square A, a B, Q or R whose size does not match it or
    B's columns, or a non-finite entry raises DimensionError.
    """
    a = matkernel.as_matrix(a)
    b = matkernel.as_matrix(b)
    q_weight = matkernel.as_matrix(q_weight)
    r_weight = matkernel.as_matrix(r_weight)
    n, q = a.shape[0], b.shape[1]
    if (a.shape != (n, n) or b.shape[0] != n or q_weight.shape != (n, n)
            or r_weight.shape != (q, q)):
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

    res, gx, err = _care_terms(a, b, q_weight, r_weight, x)
    if err > _REFINE_TOL:
        try:
            x = _hermitize(x + solve_lyapunov_continuous((a - gx).conj().T, res))
            gx = b @ np.linalg.solve(r_weight, b.conj().T @ x)
        except (UnstableSystemError, IllPosedError, NumericError):
            pass  # keep the unrefined iterate

    if statespace._instability(matkernel.eigvals(a - gx), discrete=False):
        raise SynthesisError("Riccati closed loop is not stable")
    return x
