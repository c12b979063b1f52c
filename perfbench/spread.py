"""Repeat the benchmark over seeds and report each metric's median and spread.

    python3 perfbench/spread.py --runs 10 [--workloads a,b] [--first-seed 0]
                                [--record LABEL]

Spread is the interquartile range of the runs as a share of their median
(`statistics.quantiles(values, n=4)`), printed beside each end-to-end
metric's bound from BENCHMARK.json.  With `--record LABEL`, one traced run
per workload is added and the medians, quartiles and per-layer table are
appended to `trajectory.json` as a new point.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def bench_once(workload, seed, seconds, trace):
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        capture_output=True, text=True, check=False, cwd=ROOT,
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"{workload} seed {seed} failed:\n{proc.stdout}\n{proc.stderr}")
    result = json.loads(lines[-1])
    info = json.loads(next(ln for ln in lines if ln.startswith("run "))[4:])
    return result, info


def summarize(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med if med else float("nan")}


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=0)
    parser.add_argument("--workloads", default=",".join(names))
    parser.add_argument("--record", metavar="LABEL")
    args = parser.parse_args()
    chosen = args.workloads.split(",")
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}

    samples = {w: {} for w in chosen}
    env = None
    for i in range(args.runs):
        seed = args.first_seed + i
        for w in chosen:
            result, info = bench_once(w, seed, spec["run_seconds"], 0)
            env = info["env"]
            for key, val in result["metrics"].items():
                samples[w].setdefault(key, []).append(val["value"])
            print(f"{w} seed {seed}: " + " ".join(
                f"{k}={v['value']:.5g}" for k, v in result["metrics"].items()), flush=True)

    point = {"label": args.record, "env": env, "runs": args.runs,
             "run_seconds": spec["run_seconds"], "workloads": {}}
    print(f"\n{'workload':16s} {'metric':14s} {'median':>12s} {'spread':>8s} {'bound':>6s}")
    for w in chosen:
        stats = {k: summarize(v) for k, v in samples[w].items()}
        point["workloads"][w] = {"end_to_end": stats}
        for key, s in stats.items():
            flag = "" if key == "setup_s" or s["spread"] < bounds[key] / 3 else "  WIDE"
            print(f"{w:16s} {key:14s} {s['median']:12.6g} {s['spread']:8.4f} "
                  f"{bounds[key]:6.2f}{flag}")

    if args.record:
        for w in chosen:
            result, _ = bench_once(w, args.first_seed, spec["run_seconds"], 1)
            point["workloads"][w]["per_layer"] = {
                k: v["value"] for k, v in result["metrics"].items()
            }
        path = os.path.join(HERE, "trajectory.json")
        trajectory = []
        if os.path.exists(path):
            with open(path) as fh:
                trajectory = json.load(fh)
        trajectory.append(point)
        with open(path, "w") as fh:
            json.dump(trajectory, fh, indent=1)
            fh.write("\n")
        print(f"appended point {args.record!r} to {path}")


if __name__ == "__main__":
    main()
