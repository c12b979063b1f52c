"""Acceptance suite: the package's end-to-end quality gates.

Each test prints one ``[PASS]/[FAIL]`` line (visible with ``pytest -s``)
and enforces the gate with asserts.  Gates A1-A9 cover: brute-force
percentile reproduction, matrix-equation residuals, balancing invariants,
pivoting properties, the a priori bound suite, the QR-vs-random rank
sweep, the Ginzburg-Landau closed-loop pipeline, the controller gain
structure, and pivoting runtime scaling.
"""

import time

import numpy as np
import pytest
import scipy.stats

from balsel import (
    balancing,
    evaluation,
    gramian,
    matkernel,
    models,
    selection,
    statespace,
)
from conftest import pivot_oracle


def report(name, ok, detail=""):
    line = f"[{'PASS' if ok else 'FAIL'}] {name}"
    if detail:
        line += f"  ({detail})"
    print(line)
    assert ok, line


# ------------------------------------------------------------------ A1


class TestA1BruteForce:
    BUDGET = 7
    N = 25

    def _percentile(self, seed):
        m = models.random_stable_system(
            self.N, self.N, self.N, seed=seed, time_domain="discrete"
        )
        grams = gramian.compute_gramians(m)
        bal = balancing.balance(grams, self.BUDGET)
        gamma, _ = selection.select_sensors(m.c, bal.psi_r)
        gram_sensor = m.c @ grams.w_c @ m.c.conj().T
        qr_value = evaluation.logdet_objective(gamma, gram_sensor)
        _, values = evaluation.brute_force(gram_sensor, self.BUDGET)
        return evaluation.percentile_strictly_below(values, qr_value), values.size

    def test_a1_single_seed_enumeration(self):
        t0 = time.perf_counter()
        pct, count = self._percentile(seed=0)
        elapsed = time.perf_counter() - t0
        report(
            "A1a exhaustive 25-choose-7 enumeration",
            count == 480700 and elapsed <= 300.0,
            f"{count} subsets in {elapsed:.1f}s",
        )
        report("A1b single-seed percentile >= 99", pct >= 99.0, f"percentile {pct:.3f}")

    def test_a1_mean_percentile_over_seeds(self):
        pcts = [self._percentile(seed)[0] for seed in range(50)]
        mean = float(np.mean(pcts))
        report(
            "A1c mean percentile over 50 seeds >= 98",
            mean >= 98.0,
            f"mean {mean:.3f}, min {min(pcts):.3f}, std {np.std(pcts):.3f}",
        )


# ------------------------------------------------------------------ A2


class TestA2GramianCorrectness:
    def test_a2_equation_residuals(self):
        rng = np.random.default_rng(2024)
        worst_lyap = worst_stein = worst_care = 0.0
        for k in range(100):
            n = int(rng.integers(3, 101))
            mc = models.random_stable_system(n, 2, 2, seed=10_000 + k)
            rhs = np.eye(n) + 0.05 * np.ones((n, n))
            w = gramian.solve_lyapunov_continuous(mc.a, rhs)
            worst_lyap = max(
                worst_lyap, gramian.lyapunov_residual(mc.a, w, rhs.astype(complex))
            )
            md = models.random_stable_system(
                n, 2, 2, seed=20_000 + k, time_domain="discrete"
            )
            w = gramian.solve_stein(md.a, rhs)
            worst_stein = max(
                worst_stein, gramian.stein_residual(md.a, w, rhs.astype(complex))
            )
        for k in range(100):
            n = int(rng.integers(3, 61))
            m = models.random_stable_system(n, 3, 3, seed=30_000 + k)
            q = np.eye(n, dtype=complex)
            r = np.eye(3, dtype=complex)
            x = gramian.solve_care(m.a, m.b, q, r)
            worst_care = max(worst_care, gramian.care_residual(m.a, m.b, q, r, x))
        report(
            "A2a Lyapunov residuals <= 1e-9 (100 systems)",
            worst_lyap <= 1e-9,
            f"worst {worst_lyap:.2e}",
        )
        report(
            "A2b Stein residuals <= 1e-9 (100 systems)",
            worst_stein <= 1e-9,
            f"worst {worst_stein:.2e}",
        )
        report(
            "A2c Riccati residuals <= 1e-8 (100 systems)",
            worst_care <= 1e-8,
            f"worst {worst_care:.2e}",
        )

    def test_a2_duality_and_trace_identities(self):
        worst_dual = worst_trace = 0.0
        for k in range(100):
            n = 4 + (k % 45)
            m = models.random_stable_system(n, 3, 2, seed=40_000 + k)
            g = gramian.compute_gramians(m)
            g_adj = gramian.compute_gramians(statespace.adjoint_model(m))
            worst_dual = max(
                worst_dual,
                np.abs(g.w_o - g_adj.w_c).max() / max(np.abs(g.w_o).max(), 1e-300),
            )
            t1 = np.trace(m.c @ g.w_c @ m.c.conj().T).real
            t2 = np.trace(m.b.conj().T @ g.w_o @ m.b).real
            worst_trace = max(worst_trace, abs(t1 - t2) / max(abs(t1), 1e-300))
        report(
            "A2d gramian duality within 1e-8",
            worst_dual <= 1e-8,
            f"worst {worst_dual:.2e}",
        )
        report(
            "A2e trace-formula identity within 1e-8",
            worst_trace <= 1e-8,
            f"worst {worst_trace:.2e}",
        )


# ------------------------------------------------------------------ A3


class TestA3BalancingInvariants:
    def test_a3_balanced_gramians_and_similarity(self):
        worst_diag = worst_sim = 0.0
        rng = np.random.default_rng(7)
        for k in range(100):
            n = 6 + (k % 10)
            m = models.random_stable_system(n, 3, 3, seed=50_000 + k)
            grams = gramian.compute_gramians(m)
            r = max(2, n // 2)
            bal = balancing.balance(grams, r)
            sig = np.diag(bal.hankel[:r])
            wc_t = bal.phi_r.conj().T @ grams.w_c @ bal.phi_r
            wo_t = bal.psi_r.conj().T @ grams.w_o @ bal.psi_r
            scale = np.linalg.norm(sig)
            worst_diag = max(
                worst_diag,
                np.linalg.norm(wc_t - sig) / scale,
                np.linalg.norm(wo_t - sig) / scale,
            )
            t = rng.standard_normal((n, n)) + 0.2 * np.eye(n)
            ti = np.linalg.inv(t)
            m2 = statespace.StateSpaceModel(t @ m.a @ ti, t @ m.b, m.c @ ti)
            h2 = balancing.balance(gramian.compute_gramians(m2), r).hankel
            worst_sim = max(
                worst_sim,
                np.abs(h2 - bal.hankel).max() / max(bal.hankel[0], 1e-300),
            )
        report(
            "A3a balanced gramians equal and diagonal within 1e-7",
            worst_diag <= 1e-7,
            f"worst {worst_diag:.2e}",
        )
        report(
            "A3b Hankel similarity invariance within 1e-7",
            worst_sim <= 1e-7,
            f"worst {worst_sim:.2e}",
        )

    def test_a3_truncation_bound_all_ranks(self):
        grid = statespace.log_grid(1e-3, 1e3, 128)
        violations = 0
        worst_margin = -np.inf
        for k in range(100):
            m = models.random_stable_system(20, 3, 3, seed=60_000 + k)
            grams = gramian.compute_gramians(m)
            for r in range(1, 20):
                bal = balancing.balance(grams, r)
                red = balancing.truncate(m, bal)
                est = statespace.hinf_estimate(
                    statespace.difference_model(m, red.model), grid
                )
                margin = est - red.error_bound
                worst_margin = max(worst_margin, margin)
                if margin > 1e-9:
                    violations += 1
        report(
            "A3c truncation error within tail bound at every rank",
            violations == 0,
            f"100 systems x 19 ranks, worst margin {worst_margin:.2e}",
        )


# ------------------------------------------------------------------ A4


class TestA4PivotingProperties:
    def test_a4_oracle_and_diagonal_dominance(self):
        mismatches = 0
        dominance_failures = 0
        rng = np.random.default_rng(99)
        for k in range(100):
            m = int(rng.integers(2, 10))
            n = int(rng.integers(m, 21))
            gen = np.random.default_rng(70_000 + k)
            v = gen.standard_normal((m, n)) + 1j * gen.standard_normal((m, n))
            fac = matkernel.pivoted_qr(v)
            if fac.pivot_order[:m].tolist() != pivot_oracle(v, m):
                mismatches += 1
            rfac = fac.r_factor
            for i in range(min(m, n)):
                lead = abs(rfac[i, i]) ** 2
                for col in range(i, n):
                    tail = np.sum(np.abs(rfac[i : min(col + 1, m), col]) ** 2)
                    if lead < tail:
                        dominance_failures += 1
        report(
            "A4a pivot order matches argmax oracle (100 matrices)",
            mismatches == 0,
            f"{mismatches} mismatches",
        )
        report(
            "A4b diagonal dominance holds exactly",
            dominance_failures == 0,
            f"{dominance_failures} violations",
        )


# ------------------------------------------------------------------ A5


class TestA5BoundSuite:
    N = 20
    R = 4
    N_STATES = 1000

    def _system(self, k):
        m = models.random_stable_system(self.N, self.N, self.N, seed=80_000 + k)
        grams = gramian.compute_gramians(m)
        bal = balancing.balance(grams, self.R)
        return m, bal

    @staticmethod
    def _scaled_states(rng, basis, dual, tail, count, n):
        x = rng.standard_normal((n, count)) + 1j * rng.standard_normal((n, count))
        span = basis @ (dual.conj().T @ x)
        v = x - span
        nv = np.linalg.norm(v, axis=0)
        scale = np.where(nv > 0, rng.uniform(0.0, 1.0, count) * tail / np.maximum(nv, 1e-300), 0.0)
        return span + v * scale

    def test_a5_bound_suite(self):
        chain_bad = growth_bad = mc_bad = lower_bad = 0
        rng = np.random.default_rng(55)
        for k in range(100):
            m, bal = self._system(k)
            tail = 2.0 * bal.hankel[self.R :].sum()

            gamma, _ = selection.select_sensors(m.c, bal.psi_r)
            beta, _ = selection.select_actuators(m.b, bal.phi_r)
            op_c = selection.sensor_projection(m.c, bal.psi_r, gamma)
            op_b = selection.actuator_projection(m.b, bal.phi_r, beta)

            # pivot-growth bound on the inverse of the sampled block
            for op, cand in ((op_c, m.c @ bal.psi_r), (op_b, m.b.conj().T @ bal.phi_r)):
                inv_norm = np.linalg.norm(np.linalg.inv(op.sampled_rows), 2)
                if inv_norm > selection.pivot_inverse_norm_bound(cand) * (1 + 1e-9):
                    growth_bad += 1

            # factored chain on arbitrary states
            x = rng.standard_normal((self.N, self.N_STATES)) + 1j * rng.standard_normal(
                (self.N, self.N_STATES)
            )
            proj = op_c.basis @ np.linalg.solve(op_c.sampled_rows, op_c.sampler @ x)
            lhs = np.linalg.norm(x - proj, axis=0)
            xstar = bal.psi_r @ (bal.phi_r.conj().T @ x)
            factor = (
                np.linalg.norm(bal.psi_r, 2)
                * np.linalg.norm(np.linalg.inv(op_c.sampled_rows), 2)
                * np.linalg.norm(m.c, 2)
            )
            rhs = factor * np.linalg.norm(x - xstar, axis=0)
            chain_bad += int(np.sum(lhs > rhs * (1 + 1e-9)))

            # interpolation error against the assembled a priori bounds
            bound_c = selection.sensor_state_error_bound(m.c, bal.psi_r, bal.hankel)
            xs = self._scaled_states(rng, bal.psi_r, bal.phi_r, tail, self.N_STATES, self.N)
            proj = op_c.basis @ np.linalg.solve(op_c.sampled_rows, op_c.sampler @ xs)
            mc_bad += int(
                np.sum(np.linalg.norm(xs - proj, axis=0) > bound_c * (1 + 1e-9))
            )
            bound_b = selection.actuator_state_error_bound(m.b, bal.phi_r, bal.hankel)
            zs = self._scaled_states(rng, bal.phi_r, bal.psi_r, tail, self.N_STATES, self.N)
            proj = op_b.basis @ np.linalg.solve(op_b.sampled_rows, op_b.sampler @ zs)
            mc_bad += int(
                np.sum(np.linalg.norm(zs - proj, axis=0) > bound_b * (1 + 1e-9))
            )

            # guaranteed log-det lower bounds (raise internally on violation)
            try:
                selection.sensor_logdet_lower_bound(m.c, bal.psi_r, bal.hankel, gamma)
                selection.actuator_logdet_lower_bound(m.b, bal.phi_r, bal.hankel, beta)
            except Exception:
                lower_bad += 1

        report(
            "A5a factored interpolation chain (1000 states x 100 systems)",
            chain_bad == 0,
            f"{chain_bad} violations",
        )
        report("A5b pivot-growth inverse-norm bound", growth_bad == 0, f"{growth_bad} violations")
        report(
            "A5c interpolation error bound Monte-Carlo (zero violations)",
            mc_bad == 0,
            f"{mc_bad} violations",
        )
        report(
            "A5d log-det lower bounds never exceed achieved",
            lower_bad == 0,
            f"{lower_bad} violations",
        )


# ------------------------------------------------------------------ A6


class TestA6RankSweep:
    def test_a6_qr_vs_random_trend(self):
        m = models.random_stable_system(100, 100, 100, seed=314)
        rows = evaluation.rank_sweep(m, ranks=range(1, 11), count=200, seed=0)
        gaps = [row["qr_value"] - row["median"] for row in rows]
        above = all(row["qr_value"] > row["median"] for row in rows)
        rho = scipy.stats.spearmanr(np.arange(1, 11), gaps).statistic
        report(
            "A6a QR beats the random median at every rank 1..10",
            above,
            f"min gap {min(gaps):.3f}",
        )
        report(
            "A6b gap grows with rank (Spearman > 0.5)",
            rho > 0.5,
            f"rho {rho:.3f}",
        )


# ------------------------------------------------------------------ A7 / A8


@pytest.fixture(scope="module")
def gl_run():
    return models.gl_pipeline(models.GinzburgLandauParams(), r=5)


class TestA7GinzburgLandau:
    H2_REFERENCE = 27.8

    def test_a7_stability_chain(self, gl_run):
        a, b2, c2 = gl_run["plant"]
        lam = np.linalg.eigvals(a)
        report(
            "A7a open-loop plant is unstable",
            lam.real.max() > 0,
            f"max Re eig {lam.real.max():.4f}",
        )
        ctl = gl_run["controller"]
        full = models.closed_loop_assemble(
            a, b2, c2, ctl, np.arange(a.shape[0]), np.arange(a.shape[0])
        )
        report(
            "A7b full LQG closed loop is stable",
            statespace.is_stable(full),
        )
        report(
            "A7c QR r=5 restricted closed loop is stable",
            gl_run["stable"],
            f"H2 {gl_run['h2']:.2f}",
        )

    def test_a7_h2_target_or_fallback(self, gl_run):
        h2 = gl_run["h2"]
        within = abs(h2 - self.H2_REFERENCE) <= 0.15 * self.H2_REFERENCE
        if within:
            report("A7d closed-loop H2 within 15% of 27.8", True, f"H2 {h2:.2f}")
            return
        # documented fallback for drifting reference parameters: the QR
        # selection must beat the median of 200 random selections and the
        # chosen sensors/actuators must collocate to within one grid point
        a, b2, c2 = gl_run["plant"]
        ctl = gl_run["controller"]
        n = a.shape[0]
        rng = np.random.default_rng(161)
        h2_random = []
        for _ in range(200):
            gamma = np.sort(rng.choice(n, size=5, replace=False))
            beta = np.sort(rng.choice(n, size=5, replace=False))
            cl = models.closed_loop_assemble(a, b2, c2, ctl, gamma, beta)
            h2_random.append(models.closed_loop_h2(cl)[0])
        h2_random = np.asarray(h2_random)
        median = float(np.median(h2_random))
        beats = h2 < median
        n_unstable = int(np.sum(np.isinf(h2_random)))

        xi = gl_run["params"].grid
        sel = gl_run["selection"]
        sens = np.sort(sel.gamma)
        acts = np.sort(sel.beta)
        gap_ok = all(abs(int(s) - int(t)) <= 1 for s, t in zip(sens, acts))
        report(
            "A7d closed-loop H2 beats median of 200 random selections "
            "(fallback: reference weights unavailable)",
            beats,
            f"H2 {h2:.2f} vs median {median:.2f} ({n_unstable}/200 random unstable)",
        )
        # the median above is inf whenever most random loops are unstable;
        # the stable ones give a finite comparator
        stable = h2_random[np.isfinite(h2_random)]
        p10 = float(np.percentile(stable, 10)) if stable.size else np.inf
        report(
            "A7d closed-loop H2 below the 10th percentile of the stable "
            "random selections",
            h2 < p10,
            f"H2 {h2:.2f} vs p10 {p10:.2f} ({stable.size}/200 random stable)",
        )
        report(
            "A7e collocation emerges (pairwise gap <= 1 grid point)",
            gap_ok,
            f"sensor xi {np.round(xi[sens], 2).tolist()} vs "
            f"actuator xi {np.round(xi[acts], 2).tolist()}",
        )


class TestA8GainStructure:
    def test_a8_gain_concentrates_on_diagonal(self, gl_run):
        grid = statespace.FrequencyGrid(np.array([10.0]))
        gains, gs, bs = models.lqg_gain_grid(
            gl_run["controller"],
            gl_run["selection"].gamma,
            gl_run["selection"].beta,
            grid,
            gl_run["params"].grid,
        )
        argmax_rows = gains[0].argmax(axis=0)
        ok = all(abs(int(argmax_rows[k]) - k) <= 1 for k in range(gains.shape[2]))
        report(
            "A8 controller gain column argmax lies on/adjacent to the diagonal",
            ok,
            f"argmax rows {argmax_rows.tolist()}",
        )


# ------------------------------------------------------------------ A9


class TestA9Scaling:
    def test_a9_runtime_exponents(self):
        t0 = time.perf_counter()
        ns = [1000, 2000, 4000, 8000]
        t_n = matkernel._pivoting_times([(n, 10) for n in ns])
        slope_n = float(np.polyfit(np.log(ns), np.log(t_n), 1)[0])
        rs = [5, 10, 20, 40]
        t_r = matkernel._pivoting_times([(4000, r) for r in rs])
        slope_r = float(np.polyfit(np.log(rs), np.log(t_r), 1)[0])
        elapsed = time.perf_counter() - t0
        report(
            "A9a pivoting time scales ~linearly in n (exponent in [0.7, 1.5])",
            0.7 <= slope_n <= 1.5,
            f"exponent {slope_n:.3f}",
        )
        report(
            "A9b pivoting time scales ~quadratically in r (exponent in [1.5, 2.5])",
            1.5 <= slope_r <= 2.5,
            f"exponent {slope_r:.3f}",
        )
        report("A9c scaling study finishes within 2 minutes", elapsed <= 120.0, f"{elapsed:.1f}s")
