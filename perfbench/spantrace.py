"""Span tracing of balsel's public functions, installed from outside the library.

`Tracer.install` replaces every public function of each traced
`balsel.<module>` with a wrapper by `setattr` on the module object.  balsel's
own code calls across modules as `matkernel.schur(...)` and within a module
through its globals, so both kinds of call reach the wrappers.  `cli._COMMANDS`
holds the `cmd_*` function objects themselves, so its entries are swapped
too.  `uninstall` puts every original back.

Each call records one span: name, start, end, parent span and op id.  Spans
stay in memory until `dump` writes them out.  Self time is a span's duration
minus the durations of its direct children.
"""

import functools
import importlib
import inspect
import json
import math
import time

import numpy as np

# Traced modules, in call-chain order.
MODULES = (
    "matkernel",
    "statespace",
    "gramian",
    "balancing",
    "selection",
    "evaluation",
    "models",
    "cli",
)

# The benchmark enters the CLI through cli.main; a span around it would
# cover the whole op and make trace.coverage read 1 by construction.
_UNTRACED = {"cli.main"}

_BOUND_FUNCS = (
    "selection.pivot_inverse_norm_bound",
    "selection.sensor_state_error_bound",
    "selection.actuator_state_error_bound",
    "selection.sensor_logdet_lower_bound",
    "selection.actuator_logdet_lower_bound",
    "selection.achieved_rank_r_logdet",
)

# Metrics that sum the self time of several functions.
GROUPS = {
    "selection.select_subsets": (
        "selection.select_subsets",
        "selection.select_sensors",
        "selection.select_actuators",
        "selection.select_noncollocated",
    ),
    "selection.bounds": _BOUND_FUNCS,
}


def _qr_flops(shape):
    """Real flops of the Householder updates in pivoted_qr, from shapes.

    Step k updates R rows k.. over columns k.. (a dot and a rank-1 update)
    and accumulates into Q's columns k..; each complex multiply-add is 8
    real flops.
    """
    m, n = shape
    steps = min(m, n)
    total = 0
    for k in range(steps):
        total += 16 * ((m - k) * (n - k) + m * (m - k))
    return total


def _observe(name, args, result):
    """Facts recorded on a span besides its timing (None when none)."""
    if name == "gramian.compute_gramians":
        return {"residual": max(result.residual_c, result.residual_o)}
    if name == "matkernel.pivoted_qr":
        return {"flops": _qr_flops(np.shape(args[0]))}
    if name == "cli.read_model":
        return {"bytes": len(args[0])}
    if name == "evaluation.brute_force":
        return {"subsets": int(np.size(result[1]))}
    return None


class Tracer:
    """Installs span-recording wrappers on the balsel modules."""

    def __init__(self):
        self.spans = []  # [name, start, end, parent index, op id, facts]
        self.op = None
        self._stack = []
        self._saved = []

    def _wrap(self, name, fn):
        spans, stack = self.spans, self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            span = [name, clock(), 0.0, stack[-1] if stack else -1, self.op, None]
            spans.append(span)
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            span[5] = _observe(name, args, result)
            return result

        return traced

    def install(self):
        wrapped = {}
        for mod_name in MODULES:
            mod = importlib.import_module(f"balsel.{mod_name}")
            for attr, fn in list(vars(mod).items()):
                name = f"{mod_name}.{attr}"
                if (
                    attr.startswith("_")
                    or not inspect.isfunction(fn)
                    or fn.__module__ != mod.__name__
                    or name in _UNTRACED
                ):
                    continue
                wrapped[fn] = self._wrap(name, fn)
                self._saved.append((mod, attr, fn))
                setattr(mod, attr, wrapped[fn])
        commands = importlib.import_module("balsel.cli")._COMMANDS
        for key, fn in list(commands.items()):
            if fn in wrapped:
                self._saved.append((commands, key, fn))
                commands[key] = wrapped[fn]

    def uninstall(self):
        for owner, key, fn in reversed(self._saved):
            if isinstance(owner, dict):
                owner[key] = fn
            else:
                setattr(owner, key, fn)
        self._saved.clear()

    def max_fact(self, op, key):
        """Largest value of fact `key` over the spans of op `op` (0 if none)."""
        return max(
            (s[5][key] for s in self.spans if s[4] == op and s[5] and key in s[5]),
            default=0.0,
        )

    def dump(self, path):
        with open(path, "w") as fh:
            json.dump(
                {
                    "fields": ["name", "start", "end", "parent", "op", "facts"],
                    "spans": self.spans,
                },
                fh,
            )


def layer_metrics(spans, op_walls, csv_bytes):
    """Per-op layer metrics from the spans of the traced ops.

    `op_walls` maps op id to the op's wall time and `csv_bytes` maps op id
    to the bytes of CSV it wrote.  Sums are divided by the traced op count.
    """
    ops = len(op_walls) or 1  # every traced op failed: report zeros
    child = [0.0] * len(spans)
    for name, start, end, parent, op, facts in spans:
        if parent >= 0:
            child[parent] += end - start
    calls, self_s, total_s = {}, {}, {}
    residual, flops, read_bytes, subsets = 0.0, 0, 0, 0
    top = 0.0
    for i, (name, start, end, parent, op, facts) in enumerate(spans):
        if op not in op_walls:
            continue
        dur = end - start
        calls[name] = calls.get(name, 0) + 1
        self_s[name] = self_s.get(name, 0.0) + dur - child[i]
        total_s[name] = total_s.get(name, 0.0) + dur
        if parent < 0:
            top += dur
        if facts:
            residual = max(residual, facts.get("residual", 0.0))
            flops += facts.get("flops", 0)
            read_bytes += facts.get("bytes", 0)
            subsets += facts.get("subsets", 0)

    def per_op(x):
        return x / ops

    def rate(amount, name):
        seconds = total_s.get(name, 0.0)
        return amount / seconds if seconds > 0 else 0.0

    out = {}
    for name in (
        "matkernel.schur",
        "matkernel.svd",
        "matkernel.pivoted_qr",
        "statespace.is_stable",
        "gramian.solve_stein",
        "gramian.solve_lyapunov_continuous",
        "gramian.solve_care",
    ):
        out[f"{name}.calls"] = (per_op(calls.get(name, 0)), "count")
    for name in (
        "matkernel.schur",
        "matkernel.svd",
        "matkernel.pivoted_qr",
        "statespace.is_stable",
        "statespace.h2_norm_gramian",
        "gramian.solve_stein",
        "gramian.solve_lyapunov_continuous",
        "gramian.solve_care",
        "gramian.compute_gramians",
        "balancing.balance",
        "evaluation.brute_force",
        "evaluation.objective_report",
        "models.lqg_synthesize",
        "models.closed_loop_assemble",
        "models.closed_loop_h2",
        "cli.read_model",
        "cli.cmd_select",
        "cli.cmd_bruteforce",
    ):
        out[f"{name}.self_s"] = (per_op(self_s.get(name, 0.0)), "s")
    for group, members in GROUPS.items():
        out[f"{group}.self_s"] = (per_op(sum(self_s.get(m, 0.0) for m in members)), "s")
    for mod in MODULES:
        mod_self = sum(v for k, v in self_s.items() if k.startswith(mod + "."))
        out[f"{mod}.self_s"] = (per_op(mod_self), "s")
    wall = sum(op_walls.values())
    out["bench.self_s"] = (per_op(wall - top), "s")
    out["gramian.residual_max"] = (residual, "ratio")
    out["matkernel.pivoted_qr.computed_gflop"] = (per_op(flops) / 1e9, "GFLOP")
    out["evaluation.brute_force.subsets_per_s"] = (
        rate(subsets, "evaluation.brute_force"),
        "1/s",
    )
    out["cli.read_model.mb_per_s"] = (rate(read_bytes / 2**20, "cli.read_model"), "MiB/s")
    out["cli.csv_bytes"] = (per_op(sum(csv_bytes.values())), "B")
    out["trace.coverage"] = (top / wall if wall > 0 else math.nan, "ratio")
    return out
