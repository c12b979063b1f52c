"""Dense linear-algebra kernels over the real or the complex field.

Every routine keeps the field of its input (`as_matrix`): numpy and LAPACK
pick real or complex arithmetic from the dtype, and the adjoint is always
the conjugate transpose.  Only `schur` returns complex factors for a real
matrix: it keeps the real Schur vectors V and folds the real Schur form
into the complex one by a block-diagonal unitary Z, one 2x2 rotation per
complex-conjugate eigenvalue pair, so U = V Z (`SchurForm`).  SVD, Schur
and `eigvals` are thin wrappers around LAPACK with the conventions used
here.

The column-pivoted QR is written here because its pivot sequence is the
product the package consumes.  Its loop tracks squared residual norms only
and never writes V: each step orthogonalizes the pivot column against an
orthonormal basis of the earlier ones by classical Gram-Schmidt applied
twice, as accurate as Householder here (Giraud, Langou & Rozloznik,
Numer. Math. 101 (2005)), and downdates every norm from one level-2 BLAS
`gemv`.  The pivots and |R_kk| are its whole result: Q and R are never
formed.

Schur decompositions, eigenvalues and the pivoting loop run with
scipy's OpenBLAS at one thread (`_one_lapack_thread`).  numpy and scipy each
bundle an OpenBLAS with its own thread pool on the same CPUs; while one
pool works the other's idle workers spin, so a two-thread scipy call waits
at every barrier.  On 2 CPUs a 200x200 complex Schur in the Ginzburg-Landau
pipeline took 2-2.5x as long as alone, and a 30x20000 GEMV 0.1-16 ms at two
threads against 0.2-0.6 ms at one.  numpy's copy keeps its threads for the
large SVDs.
The PSD factor, LAPACK's pivoted Cholesky, runs at one thread too: in
`balance`, numpy's SVD right after a two-thread `?pstrf` took 8-25 ms longer.
"""

import contextlib
import ctypes
import functools
import gc
import glob
import operator
import os
import time
from dataclasses import dataclass, field

import numpy as np
import scipy
import scipy.linalg as sla

from .errors import DimensionError, NumericError

# No compiled pivoting loop exists; the flag stays for callers that record it.
_HAVE_NUMBA = False

__all__ = [
    "PivotedQR",
    "pivoted_qr",
    "svd",
    "SchurForm",
    "schur",
]

# A downdated squared column norm at or below this fraction of its last
# fresh value is recomputed (downdating loses accuracy by cancellation);
# squared residual norms within _TIE_TOL of each other (relative) tie.
_DOWNDATE_TOL = 1e-7
_TIE_TOL = 1e-12


def as_matrix(a):
    """Return `a` as a 2-D ndarray in its own field (copy only if needed):
    complex128 for complex input, float64 for real or integer input."""
    a = np.atleast_2d(np.asarray(a))
    return a.astype(np.complex128 if np.iscomplexobj(a) else np.float64, copy=False)


def _integer(value, error, what):
    """`value` as an int (numpy integers pass); `error` for any other type."""
    try:
        return operator.index(value)
    except TypeError:
        raise error(f"{what} must be an integer, got {value!r}") from None


@dataclass
class PivotedQR:
    """Pivots of a column-pivoted QR factorization V P = Q R.

    pivot_order is the full column permutation: the n_steps pivots in the
    order they were chosen, then every other column in ascending original
    order.  r_diagonal holds |R_kk| for the pivots and is non-increasing.
    """

    pivot_order: np.ndarray
    r_diagonal: np.ndarray
    n_steps: int


def _colnorms2(a):
    """Squared 2-norms of the columns of `a`."""
    # viewed as reals, a complex column is two adjacent real columns
    f = np.ascontiguousarray(a).view(np.float64)
    n2 = np.einsum("ij,ij->j", f, f)
    return n2[0::2] + n2[1::2] if np.iscomplexobj(a) else n2


def _residual(basis, x):
    """`x` less its projection on the orthonormal columns of `basis`, by
    classical Gram-Schmidt applied twice."""
    for _ in range(2):
        x = x - basis @ (basis.conj().T @ x)
    return x


def pivoted_qr(v, forbidden=(), max_pivots=None):
    """Businger-Golub column-pivoted QR factorization of `v`.

    Each step pivots on the not-yet-chosen column of largest residual
    2-norm.  Ties go to the lowest original index (BLAS rounds equal columns
    differently by position, hence `_TIE_TOL`), and once the rows are
    exhausted that index rule alone decides.  Columns in `forbidden`
    (original indices) are never chosen.

    The loop tracks squared residual norms only and never writes V: a
    negative key marks chosen and forbidden columns, and each step
    orthogonalizes the pivot column against the basis of the earlier ones
    (`_residual`), takes |R_kk| from its norm, and downdates every key by
    |q_k* v_j|^2 from one scipy BLAS `gemv` at one thread.  A key that
    falls to `_DOWNDATE_TOL` of its last fresh value is recomputed as the
    column's explicit residual against the basis.

    Parameters
    ----------
    v : (m, n) array_like
    forbidden : iterable of int, optional
        Original column indices in [0, n) excluded from pivoting.
    max_pivots : int, optional
        Choose at most this many pivots (default: as many as possible);
        only the first `n_steps` columns of `pivot_order` carry pivot
        semantics.  A negative or non-integer count raises DimensionError.

    Returns
    -------
    PivotedQR
    """
    a = np.ascontiguousarray(as_matrix(v))  # read, never written
    m, n = a.shape
    if m == 0 or n == 0:
        raise DimensionError("pivoted_qr requires a nonempty matrix")
    cols = np.asarray(list(forbidden)).ravel()
    if cols.size and (cols.dtype.kind not in "iu" or cols.min() < 0 or cols.max() >= n):
        raise DimensionError(f"forbidden columns must be indices in [0, {n})")
    if max_pivots is not None and _integer(max_pivots, DimensionError, "max_pivots") < 0:
        raise DimensionError(f"max_pivots must be nonnegative, got {max_pivots}")

    cols = cols.astype(np.intp)
    live = np.ones(n, dtype=bool)
    live[cols] = False
    key = _colnorms2(a)  # squared residual norms
    if not np.isfinite(key).all():
        raise DimensionError("pivoted_qr input has nan, inf or overflowing columns")
    floor = _DOWNDATE_TOL * key  # a key at or below its floor is stale
    key[cols], floor[cols] = -1.0, -np.inf
    steps = min(np.count_nonzero(live), n if max_pivots is None else max_pivots)
    rdiag = np.zeros(steps)
    piv = []
    last = min(steps, m)
    basis = np.zeros((m, last), dtype=a.dtype, order="F")  # q_0, q_1, ...
    gemv, prod = sla.blas.get_blas_funcs("gemv", (a,)), np.empty(n, dtype=a.dtype)
    with _one_lapack_thread():
        for k in range(last):
            j = int(np.argmax(key))  # the first maximum; ties sit left of it
            j = int(np.argmax(key[: j + 1] >= key[j] * (1.0 - _TIE_TOL)))
            piv.append(j)
            live[j] = False
            x = _residual(basis[:, :k], a[:, j])
            rdiag[k] = np.linalg.norm(x)
            if k + 1 == last:
                break  # the keys are not read again
            key[j], floor[j] = -1.0, -np.inf
            if rdiag[k]:  # a zero residual leaves q_k = 0, a no-op
                basis[:, k] = x / rdiag[k]
            qv = gemv(1.0, a.T, basis[:, k].conj(), y=prod, overwrite_y=True)  # q_k* V
            f = qv.view(np.float64)
            f *= f
            key -= f[0::2] + f[1::2] if np.iscomplexobj(a) else f
            stale = np.flatnonzero(key <= floor)
            if stale.size:
                key[stale] = _colnorms2(_residual(basis[:, : k + 1], a[:, stale]))
                floor[stale] = _DOWNDATE_TOL * key[stale]

    del prod, key, floor  # freed before the index arrays below: a lower peak
    # past row m every residual is zero: the lowest allowed indices follow
    piv = np.concatenate([np.array(piv, dtype=np.intp), np.flatnonzero(live)[: steps - len(piv)]])
    rest = np.ones(n, dtype=bool)
    rest[piv] = False
    return PivotedQR(np.concatenate([piv, np.flatnonzero(rest)]), rdiag, steps)


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


def _hermitize(w):
    """The Hermitian part (W + W*) / 2."""
    return 0.5 * (w + w.conj().T)


def _psd_factor(w):
    """F with F F* = W for a Hermitian positive semidefinite n x n W:
    F = P L from LAPACK's pivoted Cholesky P* W P = L L* (`?pstrf`, default
    tolerance n eps max_i W_ii), n x n and zero past the numerical rank.
    Non-finite entries raise DimensionError (`?pstrf` calls them rank 0)."""
    if not np.isfinite(w).all():
        raise DimensionError("a PSD factor needs finite entries")
    pstrf = sla.lapack.zpstrf if np.iscomplexobj(w) else sla.lapack.dpstrf
    with _one_lapack_thread():
        f, piv, rank, _ = pstrf(_hermitize(w), lower=1)
    f[np.tri(len(f), k=-1, dtype=bool).T] = 0.0  # the strict upper triangle
    f[:, rank:] = 0.0  # the unfactored trailing block
    return f[np.argsort(piv)]


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


@dataclass
class SchurForm:
    """A = U T U* with T upper triangular (`form.t`), U kept as V and Z.

    For complex A, `v` is U itself.  For real A, `v` holds the real
    orthogonal vectors V of the real Schur form R = V^T A V, and U = V Z,
    T = Z* R Z: the fold Z is the identity but for the unitary 2x2 block
    rot[i] in rows and columns pairs[i] and pairs[i] + 1, one per 2x2
    diagonal block of R.  LAPACK's blocks never touch, so Z is
    block-diagonal, and `fold` and `unfold` apply it by O(n^2) row and
    column pair updates.  U itself is never formed.
    """

    v: np.ndarray
    t: np.ndarray
    pairs: np.ndarray = field(default_factory=lambda: np.empty(0, dtype=np.intp))
    rot: np.ndarray = field(default_factory=lambda: np.empty((0, 2, 2), dtype=np.complex128))

    def fold(self, x):
        """Z* X Z; a complex X is overwritten, a real one copied."""
        x = np.asarray(x, dtype=np.complex128)
        _pair_rows(x, self.pairs, self.rot.conj().transpose(0, 2, 1))
        _pair_rows(x.T, self.pairs, self.rot.transpose(0, 2, 1))
        return x

    def unfold(self, x):
        """Z X Z*, the inverse of `fold`; a complex X is overwritten."""
        x = np.asarray(x, dtype=np.complex128)
        _pair_rows(x, self.pairs, self.rot)
        _pair_rows(x.T, self.pairs, self.rot.conj())
        return x

    def adjoint(self):
        """The Schur form of A*: A* = (U J)(J T* J)(U J)* with J the reversal
        permutation, so J T* J is again upper triangular, U J = (V J)(J Z J),
        and J Z J is again a fold, its blocks mirrored."""
        return SchurForm(
            np.ascontiguousarray(self.v[:, ::-1]),
            np.ascontiguousarray(self.t.conj().T[::-1, ::-1]),
            len(self.t) - 2 - self.pairs[::-1],
            self.rot[::-1, ::-1, ::-1],
        )


def _pair_rows(x, pairs, g):
    """Rows k, k + 1 of `x` <- g[i] @ those rows for each k = pairs[i], in place."""
    rows = pairs[:, None] + np.arange(2)
    x[rows] = g @ x[rows]


def schur(a):
    """Schur decomposition a = u @ t @ u* with t upper triangular, as a
    `SchurForm`.

    A matrix with no imaginary part is reduced to real Schur form, which is
    cheaper than the QR iteration in complex arithmetic.  LAPACK's `dgees`
    standardizes each 2x2 diagonal block, in rows k and k + 1, to
    [[a, b], [c, a]] with b c < 0; its rotation turns e_k into the unit
    eigenvector (mu, c) / |(mu, c)| of the eigenvalue a + mu,
    mu = i sqrt(|b|) sqrt(|c|), and all blocks are folded in one vectorized
    step.  LAPACK runs on one scipy BLAS thread.
    """
    a = as_matrix(a)
    if a.shape[0] != a.shape[1]:
        raise DimensionError("schur requires a square matrix")
    try:
        with _one_lapack_thread():
            if np.any(a.imag):
                t, u = sla.schur(a, output="complex")
                return SchurForm(u, t)
            r, v = sla.schur(a.real, output="real")
    except sla.LinAlgError as exc:  # QR iteration failed to converge
        raise NumericError(f"schur iteration did not converge: {exc}") from exc
    k = np.flatnonzero(np.diag(r, -1))  # the first row of each 2x2 block
    mu = 1j * np.sqrt(np.abs(r[k, k + 1])) * np.sqrt(np.abs(r[k + 1, k]))
    rho = np.hypot(mu.imag, r[k + 1, k])
    c, s = mu / rho, r[k + 1, k] / rho
    rot = np.array([[c, -s], [s, c.conj()]]).transpose(2, 0, 1)
    form = SchurForm(v, r, k, rot)
    form.t = form.fold(r)
    form.t[k + 1, k] = 0.0
    return form


def eigvals(a):
    """Eigenvalues of a square matrix, without Schur vectors (LAPACK `?geev`
    on one scipy BLAS thread)."""
    try:
        with _one_lapack_thread():
            return sla.eigvals(as_matrix(a))
    except sla.LinAlgError as exc:
        raise NumericError(f"eigenvalue iteration did not converge: {exc}") from exc
