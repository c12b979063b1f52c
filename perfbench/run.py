"""Closed-loop benchmark of balsel's selection chain.

Usage (from the repository root):

    python3 perfbench/run.py --workload select_n400 --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30 --trace 0

One process runs one workload: set-up builds every input from the seed and
runs one checked warm-up op (both count into setup_s), then ops run back to
back for `--seconds`, each checked against the stored references outside
its timed span.  With
`--trace 0` the last stdout line reports the end-to-end metrics; with
`--trace 1` traced and untraced ops alternate and the line reports the
per-layer metrics of the traced ones (see README.md).  The exit code is
non-zero when any op failed its check.
"""

import time

_T0 = time.perf_counter()

import argparse  # noqa: E402
import ctypes  # noqa: E402
import gc  # noqa: E402
import glob  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402

# BLAS threads are pinned to 2 (fewer if fewer CPUs are usable) before numpy
# loads.  The count changes rounding, and with it which branches run: at 1
# thread solve_care takes one Newton step in gl_lqg that it skips at 2.
BLAS_THREADS = min(2, len(os.sched_getaffinity(0)))
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT_DIR = os.path.join(HERE, "out")
SRC = os.path.join(ROOT, "src")
sys.path.insert(0, SRC)

# Set-up preparation runs this many times; setup_s takes the median.
SETUP_REPEATS = 3
# A run keeps going past --seconds until it has attempted this many timed
# ops (in a traced run, odd ops are traced and even ops are not).
MIN_OPS = 3


def _median(xs):
    return statistics.median(xs) if xs else float("nan")


def environment():
    """Machine and library facts stored next to the numbers."""
    import numpy as np
    import scipy

    import balsel
    from balsel import matkernel

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    threads = {}
    for pkg in (np, scipy):
        libdir = os.path.join(os.path.dirname(os.path.dirname(pkg.__file__)), pkg.__name__ + ".libs")
        for path in glob.glob(os.path.join(libdir, "*openblas*.so*")):
            lib = ctypes.CDLL(path)
            for fn in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                       "openblas_get_num_threads64_", "openblas_get_num_threads"):
                getter = getattr(lib, fn, None)
                if getter is not None:
                    getter.restype = ctypes.c_int
                    threads[pkg.__name__] = getter()
                    break
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "blas_threads_pinned": BLAS_THREADS,
        "blas_threads_reported": threads,
        "blas_name": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_config": blas.get("openblas configuration"),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "balsel": balsel.__version__,
        # matkernel sets _HAVE_NUMBA by trying to import numba
        "numba_present": matkernel._HAVE_NUMBA,
        "pivoting_loop": "numba" if matkernel._HAVE_NUMBA else "numpy",
    }


def run_workload(name, seed, seconds, traced):
    import numpy as np  # noqa: F401  (import cost belongs to set-up)

    import spantrace
    import workloads
    from balsel.errors import BalselError

    import_s = time.perf_counter() - _T0
    wl = workloads.WORKLOADS[name]()
    input_seed = seed % workloads.REF_SEEDS
    os.makedirs(OUT_DIR, exist_ok=True)
    workdir = os.path.join(OUT_DIR, f"{name}-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    try:
        prepare_s = []
        for _ in range(SETUP_REPEATS):
            t = time.perf_counter()
            wl.prepare(input_seed, workdir)
            ref = wl.reference(input_seed)
            prepare_s.append(time.perf_counter() - t)

        attempted = failed = 0
        problems = []

        def one_op():
            nonlocal attempted, failed
            gc.collect()
            attempted += 1
            t = time.perf_counter()
            try:
                out = wl.op()
            except BalselError as exc:
                failed += 1
                problems.append(f"op {attempted}: {type(exc).__name__}: {exc}")
                return None, None
            wall = time.perf_counter() - t
            bad = wl.check(out, ref)
            if bad:
                failed += 1
                problems.extend(f"op {attempted}: {p}" for p in bad)
                return None, None
            return wall, wl.csv_bytes()

        t = time.perf_counter()
        one_op()
        warmup_s = time.perf_counter() - t
        setup_s = import_s + _median(prepare_s) + warmup_s

        tracer = spantrace.Tracer()
        walls, traced_walls, csv_bytes = [], {}, {}
        start = time.perf_counter()
        op_id = 0
        while time.perf_counter() - start < seconds or op_id < MIN_OPS:
            op_id += 1
            use_trace = traced and op_id % 2 == 1
            if use_trace:
                tracer.op = op_id
                tracer.install()
            try:
                wall, nbytes = one_op()
            finally:
                if use_trace:
                    tracer.uninstall()
            if wall is None:
                continue
            residual = tracer.max_fact(op_id, "residual") if use_trace else 0.0
            if wl.random_model and residual > workloads.RESIDUAL_MAX:
                failed += 1
                problems.append(f"op {attempted}: gramian residual {residual} > A2 bound")
                continue
            if use_trace:
                traced_walls[op_id] = wall
                csv_bytes[op_id] = nbytes
            else:
                walls.append(wall)

        if traced:
            metrics = spantrace.layer_metrics(tracer.spans, traced_walls, csv_bytes)
            p50 = _median(walls)
            metrics["trace.overhead_frac"] = (_median(list(traced_walls.values())) / p50 - 1.0, "ratio")
            tracer.dump(os.path.join(OUT_DIR, f"spans-{name}-seed{seed}.json"))
        else:
            metrics = {
                "ops_per_s": (len(walls) / sum(walls) if walls else 0.0, "ops/s"),
                "op_s_p50": (_median(walls), "s"),
                "setup_s": (setup_s, "s"),
                "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MiB"),
            }
        info = {
            "workload": name,
            "seed": seed,
            "input_seed": input_seed,
            "timed_ops": len(walls),
            "traced_ops": len(traced_walls),
            "setup_parts_s": {"import": import_s, "prepare": prepare_s, "warmup_op": warmup_s},
            "env": environment(),
        }
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    print("run " + json.dumps(info))
    for p in problems:
        print(f"FAILED {p}")
    for key, (value, unit) in sorted(metrics.items()):
        print(f"{key:45s} {value:14.6g} {unit}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0 if failed == 0 else 1


def run_all(seed, seconds, traced):
    """Run every workload in its own process and print one combined line."""
    import workloads

    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in workloads.WORKLOADS:
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", name,
             "--seed", str(seed), "--seconds", str(seconds), "--trace", str(int(traced))],
            capture_output=True, text=True, check=False,
        )
        sys.stdout.write(f"== {name}\n{proc.stdout}")
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 and not lines:
            merged["correct"] = False
            continue
        result = json.loads(lines[-1])
        merged["correct"] &= result["correct"]
        merged["attempted"] += result["attempted"]
        merged["failed"] += result["failed"]
        for key, val in result["metrics"].items():
            merged["metrics"][f"{name}.{key}"] = val
    print(json.dumps(merged))
    return 0 if merged["correct"] else 1


def main(argv=None):
    # measure the checkout's balsel, never an installed copy
    if not os.path.isdir(os.path.join(SRC, "balsel")):
        sys.exit(f"balsel sources not found under {SRC}; run from a balsel checkout")
    import workloads

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*workloads.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args.seed, args.seconds, bool(args.trace))
    return run_workload(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
