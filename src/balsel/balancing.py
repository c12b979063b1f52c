"""Square-root balanced truncation.

Each gramian is factored as W = L L* by one rank-revealing pivoted
Cholesky (`matkernel._psd_factor`), which takes definite gramians and
those semidefinite at the rounding floor alike.
The product of the factors is SVD'd, and the direct/adjoint mode matrices
are assembled so that both transformed gramians equal diag(sigma) without
ever forming the product W_c W_o explicitly.
"""

from dataclasses import dataclass

import numpy as np

from . import matkernel, statespace
from .errors import RankError

__all__ = [
    "BalancedRealization",
    "ReducedModel",
    "balance",
    "truncate",
    "truncation_error_bound",
]


@dataclass
class BalancedRealization:
    """Rank-r balancing transformation.

    psi_r columns are the direct modes (x ~ psi_r @ a_r), phi_r the adjoint
    modes (a_r = phi_r* @ x); hankel holds all Hankel singular values padded
    with zeros up to the state dimension.
    """

    psi_r: np.ndarray
    phi_r: np.ndarray
    hankel: np.ndarray
    rank: int


@dataclass
class ReducedModel:
    """Balanced-truncation reduced model with its H-infinity error bound."""

    model: statespace.StateSpaceModel
    error_bound: float


def balance(w, r):
    """Square-root balancing of a GramianPair, truncated at rank r.

    Raises RankError for an r that is not an integer in [1, n], and
    (naming the largest admissible rank) when sigma_r is below
    1e-12 * sigma_1, i.e. the requested rank crosses the numerical rank of
    the Hankel spectrum.
    """
    return _truncated(_factored(w), r)


def _factored(w):
    """The rank-independent half of `balance`, which serves every rank: the
    gramian factors L_c, L_o and the SVD U, sigma, V of L_o* L_c."""
    l_c = matkernel._psd_factor(w.w_c)
    l_o = matkernel._psd_factor(w.w_o)
    return l_c, l_o, *matkernel.svd(l_o.conj().T @ l_c)


def _truncated(factored, r):
    """The rank-r half of `balance` on the output of `_factored`."""
    l_c, l_o, u, hankel, v = factored
    n, r = l_c.shape[0], matkernel._integer(r, RankError, "rank")
    if not 1 <= r <= n:
        raise RankError(f"rank must be between 1 and {n}, got {r}")
    if hankel[r - 1] <= 1e-12 * hankel[0]:
        admissible = int(np.sum(hankel > 1e-12 * hankel[0]))
        raise RankError(
            f"Hankel value {r} is below the rank threshold; "
            f"largest admissible rank is {admissible}"
        )
    scale = 1.0 / np.sqrt(hankel[:r])
    psi = (l_c @ v[:, :r]) * scale
    phi = (l_o @ u[:, :r]) * scale

    # sign convention: largest-magnitude entry of each direct mode is made
    # real positive (keeps downstream pivot sequences reproducible)
    for i in range(r):
        j = np.argmax(np.abs(psi[:, i]))
        z = psi[j, i]
        if z != 0.0:
            phase = np.conj(z) / abs(z)
            psi[:, i] *= phase
            phi[:, i] *= phase
    return BalancedRealization(psi_r=psi, phi_r=phi, hankel=hankel, rank=r)


def truncate(m, bal):
    """Petrov-Galerkin reduction of `m` onto the balanced modes."""
    psi, phi = bal.psi_r, bal.phi_r
    reduced = statespace.StateSpaceModel(
        phi.conj().T @ m.a @ psi,
        phi.conj().T @ m.b,
        m.c @ psi,
        time_domain=m.time_domain,
    )
    return ReducedModel(reduced, truncation_error_bound(bal.hankel, bal.rank))


def truncation_error_bound(hankel, r):
    """Twice the tail sum of the Hankel singular values, 2 sum_{i>r} sigma_i,
    for an integer 0 <= r <= the number of values (RankError otherwise)."""
    hankel = np.asarray(hankel, dtype=float)
    r = matkernel._integer(r, RankError, "rank")
    if r > hankel.size:
        raise RankError("rank exceeds number of Hankel values")
    if r < 0:
        raise RankError(f"rank must be non-negative, got {r}")
    return float(2.0 * np.sum(hankel[r:]))
