import itertools

import numpy as np
import pytest

from balsel import balancing, evaluation, gramian, matkernel, selection
from balsel.errors import DimensionError, EnumerationCapError, RankError
from balsel.models import random_stable_system


def incremental_cholesky_logdet(w, indices):
    """Independent log-det oracle: grow a Cholesky factor index by index."""
    chosen = []
    logdet = 0.0
    l_fac = np.zeros((0, 0), dtype=complex)
    for j in indices:
        cross = np.array([w[i, j] for i in chosen], dtype=complex)
        if chosen:
            y = np.linalg.solve(l_fac, cross)
        else:
            y = np.zeros(0, dtype=complex)
        pivot = (w[j, j] - np.vdot(y, y)).real
        assert pivot > 0
        new = np.zeros((len(chosen) + 1, len(chosen) + 1), dtype=complex)
        new[: len(chosen), : len(chosen)] = l_fac
        new[len(chosen), : len(chosen)] = y.conj()
        new[len(chosen), len(chosen)] = np.sqrt(pivot)
        l_fac = new
        chosen.append(j)
        logdet += np.log(pivot)
    return logdet


def random_psd(rng, n):
    a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return a @ a.conj().T + 0.1 * np.eye(n)


class TestLogdetObjective:
    def test_full_two_by_two(self):
        w = np.array([[0.5, 1 / 3], [1 / 3, 0.25]])
        val = evaluation.logdet_objective([0, 1], w)
        assert val == pytest.approx(np.log(1 / 72), rel=1e-10)

    def test_single_index(self):
        w = np.array([[0.5, 1 / 3], [1 / 3, 0.25]])
        assert evaluation.logdet_objective([0], w) == pytest.approx(np.log(0.5))

    def test_singular_sentinel(self):
        w = np.ones((3, 3))
        assert evaluation.logdet_objective([0, 1], w) == -np.inf

    def test_matches_incremental_cholesky_oracle(self):
        m = random_stable_system(25, 25, 25, seed=0, time_domain="discrete")
        grams = gramian.compute_gramians(m)
        bal = balancing.balance(grams, 7)
        gamma, _ = selection.select_sensors(m.c, bal.psi_r)
        gram_sensor = m.c @ grams.w_c @ m.c.conj().T
        val = evaluation.logdet_objective(gamma, gram_sensor)
        oracle = incremental_cholesky_logdet(gram_sensor, gamma.tolist())
        assert val == pytest.approx(oracle, rel=1e-9)


class TestTraceObjective:
    def test_value(self):
        w = np.diag([1.0, 2.0, 3.0])
        assert evaluation.trace_objective([0, 2], w) == 4.0


@pytest.mark.parametrize("objective", [evaluation.logdet_objective, evaluation.trace_objective],
                         ids=["logdet", "trace"])
@pytest.mark.parametrize(
    "indices, gram, match",
    [
        ([0, -1], np.eye(5), r"must lie in \[0, 5\)"),
        ([0, 99], np.eye(5), r"must lie in \[0, 5\)"),
        ([0, 1.0], np.eye(5), "1-D array of integers"),
        ([[0, 1]], np.eye(5), "1-D array of integers"),
        ([0, 1], np.ones((5, 4)), "must be square"),
    ],
    ids=["negative", "past_p", "float", "two_d", "non_square"],
)
def test_objective_input_raises_dimension_error(objective, indices, gram, match):
    with pytest.raises(DimensionError, match=match):
        objective(indices, gram)


@pytest.mark.parametrize(
    "call, error",
    [
        (lambda g: balancing.balance(gramian.compute_gramians(random_stable_system(4, 2, 2, seed=1)),
                                     2.5), RankError),
        (lambda g: evaluation.rank_sweep(random_stable_system(4, 4, 4, seed=1), [2.5]), RankError),
        (lambda g: balancing.truncation_error_bound(np.diag(g), 2.5), RankError),
        (lambda g: matkernel.pivoted_qr(g, max_pivots=2.5), DimensionError),
        (lambda g: evaluation.brute_force(g, 2.5), DimensionError),
        (lambda g: evaluation.random_ensemble(g, 2.5, 3, 0), DimensionError),
        (lambda g: evaluation.random_ensemble(g, 2, 2.5, 0), DimensionError),
        (lambda g: evaluation.random_ensemble(g, 2, 0, 0), DimensionError),
    ],
    ids=["balance", "rank_sweep", "truncation_error_bound", "max_pivots", "brute_force",
         "random_ensemble-budget", "random_ensemble-count", "random_ensemble-zero_count"],
)
def test_non_integer_ranks_budgets_and_counts_raise_typed_errors(call, error):
    with pytest.raises(error):
        call(np.diag([4.0, 3.0, 2.0, 1.0]))


@pytest.mark.parametrize(
    "call",
    [
        lambda g, k: [balancing.truncation_error_bound(np.diag(g), k)],
        lambda g, k: balancing.balance(gramian.compute_gramians(random_stable_system(4, 2, 2, seed=1)),
                                       k).psi_r.tolist(),
        lambda g, k: matkernel.pivoted_qr(g, max_pivots=k).pivot_order.tolist(),
        lambda g, k: evaluation.brute_force(g, k)[1].tolist(),
        lambda g, k: evaluation.random_ensemble(g, k, k + 1, 0).tolist(),
    ],
    ids=["truncation_error_bound", "balance", "max_pivots", "brute_force", "random_ensemble"],
)
def test_numpy_integers_pass_like_ints(call):
    g = np.diag([4.0, 3.0, 2.0, 1.0]) + 0.1
    assert call(g, np.int64(2)) == call(g, 2)


class TestBruteForce:
    def test_budget_equals_size(self):
        rng = np.random.default_rng(80)
        w = random_psd(rng, 5)
        best, vals = evaluation.brute_force(w, 5)
        assert vals.size == 1
        assert best.tolist() == [0, 1, 2, 3, 4]

    def test_budget_one_is_diag_argmax(self):
        w = np.diag([1.0, 5.0, 2.0]).astype(complex)
        best, vals = evaluation.brute_force(w, 1)
        assert best.tolist() == [1]
        np.testing.assert_allclose(np.sort(vals), np.log([1.0, 2.0, 5.0]))

    def test_cap_enforced(self):
        w = np.eye(30, dtype=complex)
        with pytest.raises(EnumerationCapError):
            evaluation.brute_force(w, 10, cap=1000)

    def test_trace_metric(self):
        w = np.diag([1.0, 5.0, 2.0]).astype(complex)
        best, vals = evaluation.brute_force(w, 2, metric="trace")
        assert best.tolist() == [1, 2]
        np.testing.assert_allclose(np.sort(vals), [3.0, 6.0, 7.0])

    @pytest.mark.parametrize("metric", ["logdet", "trace"])
    def test_entries_equal_the_single_subset_objectives(self, metric):
        # one kernel scores both, so they agree bit for bit, complex traces too
        rng = np.random.default_rng(85)
        w = random_psd(rng, 10) * 10.0 ** rng.uniform(-3, 3, 10)
        objective = {"logdet": evaluation.logdet_objective, "trace": evaluation.trace_objective}
        _, vals = evaluation.brute_force(w, 6, metric=metric)
        singles = [objective[metric](idx, w) for idx in itertools.combinations(range(10), 6)]
        assert vals.tolist() == singles

    def test_order_relation_with_qr_and_median(self):
        m = random_stable_system(12, 12, 12, seed=81, time_domain="discrete")
        grams = gramian.compute_gramians(m)
        bal = balancing.balance(grams, 4)
        gamma, _ = selection.select_sensors(m.c, bal.psi_r)
        gram_sensor = m.c @ grams.w_c @ m.c.conj().T
        qr_val = evaluation.logdet_objective(gamma, gram_sensor)
        _, vals = evaluation.brute_force(gram_sensor, 4)
        assert vals.max() >= qr_val >= np.median(vals)


class TestRandomEnsemble:
    def test_single_full_sample(self):
        rng = np.random.default_rng(82)
        w = random_psd(rng, 4)
        samples = evaluation.random_ensemble(w, 4, 1, seed=5)
        assert samples.size == 1
        full = evaluation.logdet_objective([0, 1, 2, 3], w)
        assert samples[0] == pytest.approx(full, rel=1e-10)

    def test_percentile_hundred_when_above_all(self):
        rng = np.random.default_rng(83)
        w = random_psd(rng, 6)
        samples = evaluation.random_ensemble(w, 2, 200, seed=6)
        assert evaluation.percentile_strictly_below(samples, 1e9) == 100.0

    def test_seed_determinism(self):
        rng = np.random.default_rng(84)
        w = random_psd(rng, 8)
        s1 = evaluation.random_ensemble(w, 3, 50, seed=7)
        s2 = evaluation.random_ensemble(w, 3, 50, seed=7)
        assert np.array_equal(s1, s2)


@pytest.mark.parametrize("budget", [-1, 4])
@pytest.mark.parametrize("enumerate_", [
    lambda gram, budget: evaluation.brute_force(gram, budget),
    lambda gram, budget: evaluation.random_ensemble(gram, budget, 10, 0),
], ids=["brute_force", "random_ensemble"])
def test_budget_outside_zero_to_p_raises_dimension_error(enumerate_, budget):
    with pytest.raises(DimensionError,
                       match=rf"^budget must be between 0 and p = 3, got {budget}$"):
        enumerate_(np.eye(3), budget)


def test_zero_budget_is_one_empty_subset():
    best, vals = evaluation.brute_force(np.eye(3), 0)
    assert best.shape == (0,) and vals.tolist() == [0.0]


class TestMonotoneGrowth:
    def test_adding_index_conditional_increment(self):
        rng = np.random.default_rng(85)
        for _ in range(10):
            w = random_psd(rng, 7)
            subset = sorted(rng.choice(7, size=3, replace=False).tolist())
            base = evaluation.logdet_objective(subset, w)
            for j in range(7):
                if j in subset:
                    continue
                grown = evaluation.logdet_objective(subset + [j], w)
                sub = w[np.ix_(subset, subset)]
                cross = w[np.ix_(subset, [j])]
                cond = (w[j, j] - cross.conj().T @ np.linalg.solve(sub, cross)).real
                assert grown >= base + np.log(cond[0, 0]) - 1e-9


class TestRankSweep:
    def test_shapes_and_relation(self):
        m = random_stable_system(20, 20, 20, seed=86)
        rows = evaluation.rank_sweep(m, ranks=[1, 2, 3], count=50, seed=1)
        assert [row["r"] for row in rows] == [1, 2, 3]
        for row in rows:
            assert row["samples"].size == 50
            assert row["qr_value"] >= row["median"]

    def test_one_balancing_for_all_ranks(self, monkeypatch):
        calls = []

        def counting(a, _inner=matkernel.svd):
            calls.append(np.shape(a))
            return _inner(a)

        monkeypatch.setattr(matkernel, "svd", counting)
        m = random_stable_system(40, 10, 10, seed=3, time_domain="discrete")
        rows = evaluation.rank_sweep(m, ranks=range(1, 11), count=10, seed=0)
        assert len(rows) == 10
        assert calls == [(40, 40)]

    def test_rank_slices_pick_the_per_rank_pivots(self, monkeypatch):
        # slices of a wider balancing pick the same pivots, but differ from
        # each rank's own modes at roundoff; rank_sweep hands over the latter
        m = random_stable_system(30, 12, 12, seed=8)
        grams = gramian.compute_gramians(m)
        full = balancing.balance(grams, 6)
        for r in range(1, 7):
            bal = balancing.balance(grams, r)
            own = selection.select_subsets(m.c, m.b, bal.psi_r, bal.phi_r)
            sliced = selection.select_subsets(m.c, m.b, full.psi_r[:, :r], full.phi_r[:, :r])
            assert np.array_equal(own.gamma, sliced.gamma)
            assert np.array_equal(own.beta, sliced.beta)

        handed = []

        def recording(c, b, psi_r, phi_r, _inner=selection.select_subsets):
            handed.append((psi_r, phi_r))
            return _inner(c, b, psi_r, phi_r)

        monkeypatch.setattr(selection, "select_subsets", recording)
        evaluation.rank_sweep(m, ranks=range(1, 7), count=5)
        assert len(handed) == 6
        for r, (psi_r, phi_r) in enumerate(handed, 1):
            bal = balancing.balance(grams, r)
            np.testing.assert_array_equal(psi_r, bal.psi_r)
            np.testing.assert_array_equal(phi_r, bal.phi_r)

    def test_inadmissible_largest_rank_is_named(self):
        m = random_stable_system(4, 4, 4, seed=1)
        with pytest.raises(RankError, match="got 5"):
            evaluation.rank_sweep(m, ranks=[1, 2, 5], count=5)

    @pytest.mark.parametrize("ranks", [[], [0, 2], [3, -1]])
    def test_ranks_below_one_raise(self, ranks):
        m = random_stable_system(4, 4, 4, seed=1)
        with pytest.raises(RankError, match="at least 1"):
            evaluation.rank_sweep(m, ranks=ranks, count=5)

    def test_median_percentile_trend_across_seeds(self):
        # over several model seeds the median QR percentile does not
        # deteriorate as the retained rank grows
        ranks = [1, 3, 5, 8, 10]
        pcts = np.empty((5, len(ranks)))
        for i in range(5):
            m = random_stable_system(60, 60, 60, seed=500 + i)
            rows = evaluation.rank_sweep(m, ranks=ranks, count=100, seed=i)
            pcts[i] = [row["percentile"] for row in rows]
        medians = np.median(pcts, axis=0)
        assert np.all(np.diff(medians) >= -0.5), medians
