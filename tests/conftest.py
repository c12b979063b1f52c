import numpy as np
import pytest

from balsel import matkernel


def pivot_oracle(v, n_pivots, forbidden=()):
    """Step-wise argmax of residual norms by explicit orthogonal projection
    (exact ties, to 1e-12 relative, go to the lowest column index); columns
    in `forbidden` are never chosen."""
    v = np.asarray(v, dtype=complex)
    chosen = []
    for _ in range(n_pivots):
        if chosen:
            qb = np.linalg.qr(v[:, chosen])[0]
            resid = v - qb @ (qb.conj().T @ v)
        else:
            resid = v
        norms = np.linalg.norm(resid, axis=0)
        norms[chosen + list(forbidden)] = -1.0
        ties = np.nonzero(norms >= norms.max() * (1 - 1e-12))[0]
        chosen.append(int(ties.min()))
    return chosen


def overflowing_a(domain, scale, n=60):
    """A stable upper-triangular A whose strict upper part, N(0,1) times
    `scale`, makes its gramians overflow double precision: at 1e3 a
    continuous W reaches 1e304 and its residual inf, at 1e6 W is nan.  The
    rng is returned for the caller's B and C."""
    rng = np.random.default_rng(0)
    if domain == "continuous":
        lam = -0.5 - rng.uniform(0.0, 1.0, n)
    else:
        lam = rng.uniform(-0.9, 0.9, n)
    return np.diag(lam) + scale * np.triu(rng.standard_normal((n, n)), 1), rng


@pytest.fixture
def schur_calls(monkeypatch):
    """Record the size of every Schur decomposition made via matkernel."""
    calls = []
    inner = matkernel.schur

    def counting(a):
        calls.append(np.shape(a)[0])
        return inner(a)

    monkeypatch.setattr(matkernel, "schur", counting)
    return calls


@pytest.fixture
def eigvals_calls(monkeypatch):
    """Record the size of every eigenvalue-only computation made via matkernel."""
    calls = []
    inner = matkernel.eigvals

    def counting(a):
        calls.append(np.shape(a)[0])
        return inner(a)

    monkeypatch.setattr(matkernel, "eigvals", counting)
    return calls
