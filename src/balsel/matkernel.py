"""Dense linear-algebra kernels over the real or the complex field.

Every routine keeps the field of its input (`as_matrix`): numpy and LAPACK
pick real or complex arithmetic from the dtype, and the adjoint is always
the conjugate transpose.  Only `schur` returns complex factors for a real
matrix, whose real Schur form it splits by `rsf2csf`.  The column-pivoted
QR is implemented from scratch because the pivot sequence itself is the
product the rest of the package consumes; SVD and Schur are thin wrappers
around LAPACK with the conventions used here.

Every Schur decomposition runs with scipy's OpenBLAS at one thread
(`_one_lapack_thread`).  numpy and scipy each bundle their own OpenBLAS,
each with its own thread pool on the same CPUs.  The chain alternates
numpy matrix products with scipy LAPACK calls, and while one pool works
the other's idle workers keep spinning, so a two-thread LAPACK call waits
at every barrier.  On a 2-CPU machine with both pools at two threads, CPU
time measured about twice wall time, and a 200x200 complex Schur inside
the Ginzburg-Landau pipeline took 2-2.5x as long as the same call alone.
numpy's copy keeps its threads; the large SVDs and products need them.
"""

import contextlib
import ctypes
import functools
import gc
import glob
import os
import time
from dataclasses import dataclass, field

import numpy as np
import scipy
import scipy.linalg as sla

from .errors import DimensionError, NumericError, SingularMatrixError

# The pivoting loop is plain numpy; there is no compiled variant.  The flag
# stays for callers that record which loop ran.
_HAVE_NUMBA = False

__all__ = [
    "PivotedQR",
    "pivoted_qr",
    "svd",
    "schur",
    "logdet_abs",
    "matrix_exponential_apply",
]

# Relative threshold below which a downdated column norm is recomputed
# from scratch (classical downdating loses accuracy through cancellation).
_DOWNDATE_TOL = 1e-7


def as_matrix(a):
    """Return `a` as a 2-D ndarray in its own field (copy only if needed):
    complex128 for complex input, float64 for real or integer input."""
    a = np.atleast_2d(np.asarray(a))
    return a.astype(np.complex128 if np.iscomplexobj(a) else np.float64, copy=False)


@dataclass
class PivotedQR:
    """Result of a column-pivoted QR factorization V P = Q R.

    pivot_order is the full column permutation (pivoted columns first, in
    the order they were chosen); r_diagonal holds |R_ii| for the performed
    elimination steps and is non-increasing.
    """

    q_factor: np.ndarray
    r_factor: np.ndarray
    pivot_order: np.ndarray
    r_diagonal: np.ndarray
    n_steps: int = field(default=0)

    @property
    def permutation_matrix(self):
        n = self.pivot_order.size
        p = np.zeros((n, n))
        p[self.pivot_order, np.arange(n)] = 1.0
        return p


def _factor_loop(r, q, perm, allowed, norms2, ref2, steps, rdiag, tol):
    """Greedy pivoting loop: pick, swap and reflect up to `steps` columns.

    Returns the number of pivots chosen; their |R_kk| are in rdiag.
    """
    m, n = r.shape
    nd = 0

    def swap(k, j):
        if j != k:
            for arr in (perm, norms2, ref2):
                arr[k], arr[j] = arr[j], arr[k]
            tmp = r[:, k].copy()
            r[:, k] = r[:, j]
            r[:, j] = tmp

    for k in range(steps):
        cand = np.nonzero(allowed[perm[k:]])[0]
        if cand.size == 0:
            break
        if k >= m:
            # rows exhausted: remaining residuals are exactly zero, so the
            # pivot order continues by the lowest-index rule alone
            swap(k, k + int(cand[np.argmin(perm[k + cand])]))
            rdiag[nd] = 0.0
            nd += 1
            continue
        cnorms = norms2[k + cand]
        best = cnorms.max()
        ties = cand[cnorms == best]
        swap(k, k + int(ties[np.argmin(perm[k + ties])]))

        rdiag[nd] = _reflect_column(r, q, k)
        nd += 1

        if k + 1 < n:
            row = r[k, k + 1 :]
            norms2[k + 1 :] -= row.real**2 + row.imag**2
            tail_norms = norms2[k + 1 :]
            np.maximum(tail_norms, 0.0, out=tail_norms)
            stale = tail_norms <= tol * ref2[k + 1 :]
            if stale.any():
                cols = k + 1 + np.nonzero(stale)[0]
                blk = r[k + 1 :, cols]
                fresh = np.einsum("ij,ij->j", blk.real, blk.real) + np.einsum(
                    "ij,ij->j", blk.imag, blk.imag
                )
                norms2[cols] = fresh
                ref2[cols] = fresh
    return nd


def pivoted_qr(v, forbidden=(), max_pivots=None):
    """Businger-Golub column-pivoted QR factorization of `v`.

    At each step the pivot is the residual column of largest 2-norm among
    the not-yet-chosen columns (exact float ties broken by lowest original
    column index).  Columns listed in `forbidden` (original indices) are
    never chosen as pivots but are still orthogonalized against the chosen
    ones, so the factorization V P = Q R remains exact.

    Parameters
    ----------
    v : (m, n) array_like
    forbidden : iterable of int, optional
        Original column indices excluded from pivoting.
    max_pivots : int, optional
        Choose at most this many pivots (default: as many as possible).
        The factorization is still completed with unpivoted reflections
        afterwards, so V P = Q R always holds with triangular R; only the
        first `n_steps` columns carry pivot semantics.

    Returns
    -------
    PivotedQR
    """
    r = np.array(as_matrix(v), order="C")
    m, n = r.shape
    if m == 0 or n == 0:
        raise DimensionError("pivoted_qr requires a nonempty matrix")

    q = np.eye(m, dtype=r.dtype)
    perm = np.arange(n)
    allowed = np.ones(n, dtype=bool)
    for j in forbidden:
        allowed[j] = False

    norms2 = np.einsum("ij,ij->j", r.real, r.real) + np.einsum(
        "ij,ij->j", r.imag, r.imag
    )
    ref2 = norms2.copy()

    steps = n if max_pivots is None else min(max_pivots, n)
    rdiag = np.zeros(steps)
    nd = _factor_loop(r, q, perm, allowed, norms2, ref2, steps, rdiag, _DOWNDATE_TOL)

    # the pivoted prefix may stop early (max_pivots, or allowed columns
    # exhausted); the remaining columns still need unpivoted reflections so
    # that V P = Q R holds with a triangular R
    for k in range(int(nd), min(m, n)):
        _reflect_column(r, q, k)

    return PivotedQR(
        q_factor=q,
        r_factor=np.triu(r),
        pivot_order=perm,
        r_diagonal=rdiag[:nd],
        n_steps=int(nd),
    )


def _pivoting_times(cases, windows=8, window_seconds=0.05, seed=12345):
    """Per-call `pivoted_qr` seconds for (n, r) cases on random r x n inputs.

    Each measurement times a batch of calls spanning ~window_seconds so
    millisecond scheduling spikes amortize; the minimum over several
    windows (taken round-robin, with the collector paused) is robust
    against load on shared machines.
    """
    rng = np.random.default_rng(seed)
    inputs = [
        rng.standard_normal((r, n)) + 1j * rng.standard_normal((r, n))
        for n, r in cases
    ]
    batch = []
    for (n, r), v in zip(cases, inputs):
        t0 = time.perf_counter()
        pivoted_qr(v, max_pivots=r)  # warmup + calibration
        est = max(time.perf_counter() - t0, 1e-6)
        batch.append(max(1, int(np.ceil(window_seconds / est))))
    best = [np.inf] * len(cases)
    gc.disable()
    try:
        for _ in range(windows):
            for i, ((n, r), v) in enumerate(zip(cases, inputs)):
                t0 = time.perf_counter()
                for _ in range(batch[i]):
                    pivoted_qr(v, max_pivots=r)
                dt = (time.perf_counter() - t0) / batch[i]
                best[i] = min(best[i], dt)
    finally:
        gc.enable()
    return best


def _reflect_column(r, q, k):
    """Apply one Householder step at column k (updates r and q in place).

    The reflector zeroes r[k+1:, k] and leaves r[k, k] real nonnegative; it
    is Hermitian, so it is applied to R rows k.. and accumulated into Q.
    Returns |R_kk|, the norm of the column below the diagonal.
    """
    x = r[k:, k]
    nx = np.sqrt(np.vdot(x, x).real)
    if nx == 0.0:
        return nx
    phase = x[0] / abs(x[0]) if x[0] != 0.0 else 1.0
    beta = -phase * nx
    w = x.copy()
    w[0] -= beta
    tau = 2.0 / np.vdot(w, w).real
    wc = w.conj()
    r[k:, k:] -= np.multiply.outer(tau * w, wc @ r[k:, k:])
    q[:, k:] -= np.multiply.outer(q[:, k:] @ (tau * w), wc)
    dphase = np.conj(beta) / nx
    r[k, k:] *= dphase
    q[:, k] *= np.conj(dphase)
    r[k, k] = nx
    return nx


def svd(a):
    """Singular value decomposition a = u @ diag(s) @ v*.

    Returns (u, s, v) with `v` (not its adjoint), s non-increasing.
    """
    u, s, vh = np.linalg.svd(as_matrix(a), full_matrices=True)
    return u, s, vh.conj().T


@functools.cache
def _scipy_openblas():
    """(get, set) thread-count functions of scipy's bundled OpenBLAS, or None."""
    libdir = os.path.join(os.path.dirname(os.path.dirname(scipy.__file__)), "scipy.libs")
    for path in sorted(glob.glob(os.path.join(libdir, "*openblas*.so*"))):
        lib = ctypes.CDLL(path)
        for suffix in ("64_", ""):
            get = getattr(lib, "scipy_openblas_get_num_threads" + suffix, None)
            put = getattr(lib, "scipy_openblas_set_num_threads" + suffix, None)
            if get is not None and put is not None:
                get.argtypes, get.restype = [], ctypes.c_int
                put.argtypes, put.restype = [ctypes.c_int], None
                return get, put
    return None


@contextlib.contextmanager
def _one_lapack_thread():
    """Run the body with scipy's OpenBLAS at one thread, then restore its
    previous count (exceptions included).  A no-op without that library."""
    blas = _scipy_openblas()
    if blas is None:
        yield
        return
    get, put = blas
    previous = get()
    put(1)
    try:
        yield
    finally:
        put(previous)


def schur(a):
    """Complex Schur decomposition a = u @ t @ u* with t upper triangular.

    A matrix with no imaginary part is reduced to real Schur form and its
    2x2 blocks are then split by `rsf2csf`, which is cheaper than the QR
    iteration in complex arithmetic.  LAPACK runs on one scipy BLAS thread.
    """
    a = as_matrix(a)
    if a.shape[0] != a.shape[1]:
        raise DimensionError("schur requires a square matrix")
    try:
        with _one_lapack_thread():
            if np.any(a.imag):
                t, u = sla.schur(a, output="complex")
            else:
                t, u = sla.rsf2csf(*sla.schur(a.real, output="real"))
    except sla.LinAlgError as exc:  # QR iteration failed to converge
        raise NumericError(f"schur iteration did not converge: {exc}") from exc
    return u, t


def eigvals(a):
    """Eigenvalues of a square matrix, via the complex Schur form."""
    _, t = schur(a)
    return np.diag(t)


def logdet_abs(a):
    """log|det(a)| via the diagonal of an (unpivoted) QR factorization."""
    a = as_matrix(a)
    if a.shape[0] != a.shape[1]:
        raise DimensionError("logdet_abs requires a square matrix")
    rdiag = np.abs(np.diag(np.linalg.qr(a, mode="r")))
    if rdiag[0] == 0.0 or np.any(rdiag < 1e-14 * rdiag[0]):
        raise SingularMatrixError("matrix is singular to working precision")
    return float(np.sum(np.log(rdiag)))


def matrix_exponential_apply(a, t, x):
    """Evaluate e^{a t} x (scaling-and-squaring Pade expm, then apply)."""
    a = as_matrix(a)
    if a.shape[0] != a.shape[1]:
        raise DimensionError("matrix exponential requires a square matrix")
    return sla.expm(a * t) @ np.asarray(x)
