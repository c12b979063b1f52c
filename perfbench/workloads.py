"""The four benchmark workloads: inputs, one op, and the output check.

Each workload builds its inputs from a seed in `prepare`, runs one op in
`op`, and turns the op's output into a flat dict of facts in `facts`.
`check` compares those facts with the references recorded in `refs/`:
index sequences and counts must be equal, floats must agree to a relative
`RTOL`, and gramian residuals must stay within `RESIDUAL_MAX`.

Workload seeds map onto `REF_SEEDS` input seeds (seed mod REF_SEEDS), so
every input the benchmark can build has a stored reference.
"""

import contextlib
import io
import json
import os

import numpy as np

import balsel
from balsel import cli, models

REF_SEEDS = 32
RTOL = 1e-6
RESIDUAL_MAX = 1e-9  # the A2 gramian residual bound
REF_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "refs")


def _run_cli(argv):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(argv)
    return code, buf.getvalue()


def _read(path):
    with open(path) as fh:
        return fh.read()


def _stdout_fields(text):
    """`key value...` lines of a CLI report as {key: [tokens]}."""
    out = {}
    for line in text.splitlines():
        key, _, rest = line.partition(" ")
        out[key] = rest.split()
    return out


class Workload:
    name = ""
    exact = ()  # fact keys compared for equality; the rest by RTOL
    uses_seed = True
    # The A2 residual bound holds for random_stable_system models; traced
    # runs check it on every compute_gramians call of such a workload.
    random_model = True

    def prepare(self, seed, workdir):
        raise NotImplementedError

    def op(self):
        raise NotImplementedError

    def facts(self, out):
        raise NotImplementedError

    def csv_bytes(self):
        return 0

    def reference(self, seed):
        with open(os.path.join(REF_DIR, f"{self.name}.json")) as fh:
            refs = json.load(fh)
        return refs[str(seed) if self.uses_seed else "fixed"]

    def check(self, out, ref):
        """Problems found in one op's output (empty when it is correct)."""
        try:
            got = self.facts(out)
        except (ValueError, KeyError, IndexError) as exc:
            return [f"unreadable output: {exc!r}"]
        problems = list(got.pop("_problems", []))
        for key, want in ref.items():
            have = got.get(key)
            if have is None:
                problems.append(f"{key}: missing")
            elif key in self.exact:
                if have != want:
                    problems.append(f"{key}: {have} != reference {want}")
            else:
                have_a = np.asarray(have, dtype=float)
                want_a = np.asarray(want, dtype=float)
                if have_a.shape != want_a.shape or not np.all(
                    np.abs(have_a - want_a) <= RTOL * np.abs(want_a)
                ):
                    problems.append(f"{key}: {have} differs from reference {want}")
        return problems


class SelectN400(Workload):
    """`balsel select --rank 10` on a 400-state discrete model file."""

    name = "select_n400"
    exact = ("exit_code", "gamma", "beta", "csv")
    N = 400
    RANK = 10

    def prepare(self, seed, workdir):
        m = models.random_stable_system(self.N, self.N, self.N, seed, time_domain="discrete")
        self.model_path = os.path.join(workdir, "select_n400.txt")
        self.csv_path = os.path.join(workdir, "select_n400.csv")
        with open(self.model_path, "w") as fh:
            cli.write_model(fh, m)

    def op(self):
        return _run_cli(
            ["select", "--model", self.model_path, "--rank", str(self.RANK),
             "--out", self.csv_path]
        )

    def csv_bytes(self):
        return os.path.getsize(self.csv_path)

    def facts(self, out):
        code, text = out
        f = _stdout_fields(text)
        got = {
            "exit_code": code,
            "gamma": [int(v) for v in f["gamma"][0].split(",")],
            "beta": [int(v) for v in f["beta"][0].split(",")],
        }
        for key in ("r_diag_sensors", "r_diag_actuators"):
            got[key] = [float(v) for v in f[key]]
        for key in (
            "logdet_sensor",
            "logdet_actuator",
            "trace_sensor",
            "interp_error_bound",
            "interp_error_bound_sqrt_p",
            "logdet_lower_bound_sensor",
            "logdet_lower_bound_actuator",
        ):
            got[key] = float(f[key][0])
        # the CSV must list the same pivots and |R_ii| as the report
        rows = _read(self.csv_path).splitlines()
        expect = ["side,pivot_rank,index,abs_r_diag"]
        for side, idx, diag in (("sensor", f["gamma"][0], f["r_diag_sensors"]),
                                ("actuator", f["beta"][0], f["r_diag_actuators"])):
            for k, (j, d) in enumerate(zip(idx.split(","), diag), 1):
                expect.append(f"{side},{k},{j},{d}")
        got["csv"] = "consistent" if rows == expect else "inconsistent"
        return got


class GlLqg(Workload):
    """`models.gl_pipeline(r=5)` on the default Ginzburg-Landau plant."""

    name = "gl_lqg"
    exact = ("gamma", "beta", "stable")
    uses_seed = False
    random_model = False
    RANK = 5

    def prepare(self, seed, workdir):
        self.params = models.GinzburgLandauParams()

    def op(self):
        return models.gl_pipeline(self.params, r=self.RANK)

    def facts(self, out):
        sel = out["selection"]
        return {
            "stable": bool(out["stable"]),
            "gamma": sel.gamma.tolist(),
            "beta": sel.beta.tolist(),
            "r_diag_sensors": sel.r_diag_sensors.tolist(),
            "r_diag_actuators": sel.r_diag_actuators.tolist(),
            "hankel": out["balanced"].hankel[: self.RANK + 1].tolist(),
            "h2": float(out["h2"]),
        }


class SelectWide(Workload):
    """Library chain with 20000 sensor and 20000 actuator candidates.

    `balsel select` would form p x p projected gramians (6.4 GB at
    p = 20000), so this op calls the library stages directly.
    """

    name = "select_wide"
    exact = ("gamma", "beta")
    N, P, RANK = 60, 20000, 40

    def prepare(self, seed, workdir):
        self.model = models.random_stable_system(
            self.N, self.P, self.P, seed, time_domain="discrete"
        )

    def op(self):
        m = self.model
        grams = balsel.gramian.compute_gramians(m)
        bal = balsel.balancing.balance(grams, self.RANK)
        sel = balsel.selection.select_subsets(m.c, m.b, bal.psi_r, bal.phi_r)
        sl = balsel.selection
        bounds = {
            "sensor_state_error_bound": sl.sensor_state_error_bound(m.c, bal.psi_r, bal.hankel),
            "actuator_state_error_bound": sl.actuator_state_error_bound(
                m.b, bal.phi_r, bal.hankel
            ),
            "sensor_logdet_lower_bound": sl.sensor_logdet_lower_bound(
                m.c, bal.psi_r, bal.hankel, sel.gamma
            ),
            "actuator_logdet_lower_bound": sl.actuator_logdet_lower_bound(
                m.b, bal.phi_r, bal.hankel, sel.beta
            ),
        }
        return grams, sel, bounds

    def facts(self, out):
        grams, sel, bounds = out
        got = {
            "gamma": sel.gamma.tolist(),
            "beta": sel.beta.tolist(),
            "r_diag_sensors": sel.r_diag_sensors.tolist(),
            "r_diag_actuators": sel.r_diag_actuators.tolist(),
            **{k: float(v) for k, v in bounds.items()},
        }
        residual = max(grams.residual_c, grams.residual_o)
        if not residual <= RESIDUAL_MAX:
            got["_problems"] = [f"gramian residual {residual} > {RESIDUAL_MAX}"]
        return got


class Bruteforce25c7(Workload):
    """`balsel bruteforce --budget 7` on a 25-state discrete model (A1)."""

    name = "bruteforce_25c7"
    exact = ("exit_code", "subsets", "csv_rows", "percentile")
    N = 25
    BUDGET = 7

    def prepare(self, seed, workdir):
        m = models.random_stable_system(self.N, self.N, self.N, seed, time_domain="discrete")
        self.model_path = os.path.join(workdir, "bruteforce_25c7.txt")
        self.csv_path = os.path.join(workdir, "bruteforce_25c7.csv")
        with open(self.model_path, "w") as fh:
            cli.write_model(fh, m)

    def op(self):
        return _run_cli(
            ["bruteforce", "--model", self.model_path, "--budget", str(self.BUDGET),
             "--out", self.csv_path]
        )

    def csv_bytes(self):
        return os.path.getsize(self.csv_path)

    def facts(self, out):
        code, text = out
        f = _stdout_fields(text)
        lines = _read(self.csv_path).splitlines()
        values = np.array(lines[1:-1], dtype=float)
        return {
            "exit_code": code,
            "subsets": int(f["subsets"][0]),
            "percentile": float(f["percentile"][0]),
            "best": float(f["best"][0]),
            "qr_value": float(f["qr_value"][0]),
            "csv_rows": len(values),
            "csv_sum": float(values.sum()),
            "csv_max": float(values.max()),
        }


WORKLOADS = {w.name: w for w in (SelectN400, GlLqg, SelectWide, Bruteforce25c7)}
