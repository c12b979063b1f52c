"""Selection objectives, brute-force enumeration and random baselines.

The log-det objective of an index set is the log absolute determinant of
the corresponding principal submatrix of the projected gramian
(C W_c C* for sensors, B* W_o B for actuators).  Enumeration is
lexicographic and vectorized in batches; percentiles count values strictly
below the reference, times 100.
"""

import itertools
import math

import numpy as np

from . import balancing, gramian, matkernel, selection
from .errors import DimensionError, EnumerationCapError, RankError

__all__ = [
    "logdet_objective",
    "trace_objective",
    "brute_force",
    "random_ensemble",
    "percentile_strictly_below",
    "rank_sweep",
    "rank_sweeps",
]

DEFAULT_CAP = 10**6
# Principal submatrices per slogdet call in `_batched_logdets`.
_BATCH = 50000


def percentile_strictly_below(values, x):
    """Fraction of `values` strictly below `x`, times 100."""
    values = np.asarray(values, dtype=float)
    return float(100.0 * np.mean(values < x))


def logdet_objective(indices, gram):
    """log |principal submatrix| of the projected gramian at `indices`.

    Returns -inf for a singular submatrix.  Pass C W_c C* for sensors and
    B* W_o B for actuators.  DimensionError unless `gram` is square and
    `indices` is a 1-D array of integers in [0, p).
    """
    return float(_subset_values(*_one_subset(indices, gram), "logdet")[0])


def trace_objective(indices, gram):
    """Trace of the principal submatrix (the H2-type objective), with the
    DimensionError rules of `logdet_objective`."""
    return float(_subset_values(*_one_subset(indices, gram), "trace")[0])


def _one_subset(indices, gram):
    """The p x p `gram` and `indices` as a one-row index array for
    `_subset_values`; DimensionError unless they fit."""
    gram = matkernel.as_matrix(gram)
    p = gram.shape[0]
    if gram.shape != (p, p):
        raise DimensionError(f"the projected gramian must be square, got shape {gram.shape}")
    idx = np.asarray(indices)
    if idx.ndim != 1 or idx.dtype.kind not in "iu":
        raise DimensionError("subset indices must be a 1-D array of integers")
    if not ((idx >= 0) & (idx < p)).all():
        raise DimensionError(f"subset indices must lie in [0, {p})")
    return gram, idx[None]


def _batched_logdets(gram, index_array):
    """slogdet of many principal submatrices, `_BATCH` at a time to bound memory."""
    count = index_array.shape[0]
    vals = np.empty(count)
    for s in range(0, count, _BATCH):
        blk = index_array[s : s + _BATCH]
        sub = gram[blk[:, :, None], blk[:, None, :]]
        sign, ld = np.linalg.slogdet(sub)
        ld = np.where(sign == 0, -np.inf, ld)
        vals[s : s + _BATCH] = ld
    return vals


def _subset_values(gram, index_array, metric):
    """The objective of each index row: log-det or trace of its principal
    submatrix.  Every subset objective is scored here, so the QR subset's
    own enumerated entry in `cmd_bruteforce` is bit-identical to its score.
    A complex trace is summed in the complex field, like `np.trace`."""
    if metric == "trace":
        return gram.diagonal()[index_array].sum(axis=1).real
    return _batched_logdets(gram, index_array)


def _check_budget(budget, p):
    """DimensionError unless `budget` is an integer in [0, p]."""
    if not 0 <= matkernel._integer(budget, DimensionError, "budget") <= p:
        raise DimensionError(f"budget must be between 0 and p = {p}, got {budget}")


def brute_force(gram, budget, cap=DEFAULT_CAP, metric="logdet"):
    """Exhaustively enumerate all size-`budget` principal subset objectives.

    Returns (best_indices, values) where `values` lists the objective
    (log-det or trace of the principal submatrix) for every subset in
    lexicographic order.  Raises EnumerationCapError if C(p, budget)
    exceeds `cap` (sample with `random_ensemble` instead), and
    DimensionError for a budget that is not an integer in [0, p].
    """
    if metric not in ("logdet", "trace"):
        raise ValueError(f"unknown metric {metric!r}")
    gram = matkernel.as_matrix(gram)
    p = gram.shape[0]
    _check_budget(budget, p)
    total = math.comb(p, budget)
    if total > cap:
        raise EnumerationCapError(
            f"C({p},{budget}) = {total} exceeds the cap of {cap}; "
            "use random sampling instead"
        )
    index_array = np.fromiter(
        itertools.chain.from_iterable(itertools.combinations(range(p), budget)),
        dtype=np.intp,
        count=total * budget,
    ).reshape(total, budget)
    vals = _subset_values(gram, index_array, metric)
    best = index_array[int(np.argmax(vals))]
    return best, vals


def random_ensemble(gram, budget, count, seed):
    """Log-dets of `count` uniform random index subsets (without replacement);
    DimensionError for a budget that is not an integer in [0, p] or a count
    that is not a positive integer."""
    if matkernel._integer(count, DimensionError, "count") < 1:
        raise DimensionError("need at least one sample")
    gram = matkernel.as_matrix(gram)
    p = gram.shape[0]
    _check_budget(budget, p)
    rng = np.random.default_rng(seed)
    index_array = np.empty((count, budget), dtype=np.intp)
    for i in range(count):
        index_array[i] = rng.choice(p, size=budget, replace=False)
    return _subset_values(gram, index_array, "logdet")


def rank_sweep(model, ranks, count=200, seed=0):
    """QR selection vs. random ensembles across truncation ranks.

    For each rank r the QR selection uses rank-r balanced modes, and the
    combined objective (sensor log-det plus actuator log-det) is compared
    against `count` random sensor/actuator pairs.  Returns a list of dicts
    with keys r, qr_value, samples, median, percentile.  RankError for a
    rank that is not an integer in [1, n], as in `balance`.
    """
    return rank_sweeps(model, ranks, [seed], count=count)[0]


def rank_sweeps(model, ranks, seeds, count=200):
    """`rank_sweep` for each ensemble seed in `seeds`, as a list of row lists.

    The gramians and the per-rank QR selections do not depend on the seed,
    so they are computed once for all seeds.  One factor-and-SVD of the
    gramians serves every rank: each rank's modes are `balance(grams, r)`'s.
    """
    # a range's extremes are its ends, read in O(1) however long it is
    ends = (ranks[0], ranks[-1]) if isinstance(ranks, range) and ranks else ranks
    if min(ends, default=0) < 1:
        raise RankError(f"ranks must be at least 1, got {ranks}")
    grams = gramian.compute_gramians(model)
    gram_sensor = model.c @ grams.w_c @ model.c.conj().T
    gram_actuator = model.b.conj().T @ grams.w_o @ model.b
    factored = balancing._factored(grams)
    balancing._truncated(factored, max(ends))  # its RankError covers every rank, up front
    qr_values = []
    for r in ranks:
        bal = balancing._truncated(factored, r)
        sel = selection.select_subsets(model.c, model.b, bal.psi_r, bal.phi_r)
        qr_values.append(
            logdet_objective(sel.gamma, gram_sensor)
            + logdet_objective(sel.beta, gram_actuator)
        )
    sweeps = []
    for seed in seeds:
        rng = np.random.default_rng(seed)
        rows = []
        for r, qr_value in zip(ranks, qr_values):
            sub_seed = int(rng.integers(0, 2**63 - 1))
            samples = (random_ensemble(gram_sensor, r, count, sub_seed)
                       + random_ensemble(gram_actuator, r, count, sub_seed + 1))
            rows.append(
                {
                    "r": r,
                    "qr_value": qr_value,
                    "samples": samples,
                    "median": float(np.median(samples)),
                    "percentile": percentile_strictly_below(samples, qr_value),
                }
            )
        sweeps.append(rows)
    return sweeps
