"""Alternating parent/change benchmark pairs, summarized as BENCH_<label>.json.

Usage (from the repository root):

    python3 tools/bench_pairs.py --label gram_smin --parent HEAD \
        --workloads select_wide,select_n400,gl_lqg --pairs 10 --first-seed 10

The parent revision is extracted with `git archive` into a temporary
directory, so the repository itself is never touched; the change is the
working tree this script lives in.  Before pair 0, one discarded
`--seconds 0` run per side and workload warms both trees, so that no
counted run compiles a side's C library.  Pair i runs `perfbench/run.py
--workload <w> --seed <first-seed + i> --seconds <s> --trace 0` once on each
side, each run in a fresh process, the parent first on even pairs and the
change first on odd ones.  `--traced-pairs K` adds K pairs of `--trace 1`
runs per workload, whose per-layer metrics are stored side by side.

The summary holds, per workload and end-to-end metric of BENCHMARK.json,
each side's median and quartiles (numpy.percentile 25/75, linear), the
number of pairs the change won, and whether the gap in medians exceeds the
parent's interquartile range.  A run that printed no result line (it
crashed) reports no metrics, so its pair drops out of every median; each
workload's summary counts such runs per side under `crashed_runs`.
"""

import argparse
import json
import os
import platform
import shlex
import subprocess
import sys
import tarfile
import tempfile

import numpy as np

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _git(*args):
    return subprocess.run(
        ["git", *args], cwd=ROOT, check=True, capture_output=True, text=True
    ).stdout.strip()


def extract(rev, dest):
    """Write the committed files of `rev` under `dest`."""
    tar = os.path.join(dest, "tree.tar")
    subprocess.run(["git", "archive", "--output", tar, rev], cwd=ROOT, check=True)
    with tarfile.open(tar) as fh:
        fh.extractall(dest, filter="data")
    os.remove(tar)


def run_once(root, workload, seed, seconds, traced):
    """One perfbench process; its final JSON line, or a failure record."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(int(traced))]
    proc = subprocess.run(cmd, cwd=root, capture_output=True, text=True, check=False)
    lines = proc.stdout.strip().splitlines()
    try:
        return json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        return {"correct": False, "crashed": True, "error": proc.stderr[-2000:], "metrics": {}}


def _stats(values):
    q1, med, q3 = np.percentile(values, [25, 50, 75])
    return {"median": float(med), "q1": float(q1), "q3": float(q3)}


def summarize(runs, metrics):
    """Per workload and metric: both sides' quartiles, wins and the IQR test."""
    out = {}
    for wl in sorted({r["workload"] for r in runs if not r["traced"]}):
        by_pair = {}
        for r in runs:
            if r["workload"] == wl and not r["traced"]:
                by_pair.setdefault(r["pair"], {})[r["side"]] = r["result"]
        pairs = [p for p in by_pair.values() if len(p) == 2]
        table = {"pairs": len(pairs),
                 "failed_ops": {s: sum(p[s].get("failed", 0) for p in pairs)
                                for s in ("parent", "change")},
                 "crashed_runs": {s: sum(bool(p[s].get("crashed")) for p in by_pair.values()
                                         if s in p)
                                  for s in ("parent", "change")}}
        for name, better in metrics.items():
            got = [(p["parent"]["metrics"][name]["value"], p["change"]["metrics"][name]["value"])
                   for p in pairs
                   if name in p["parent"]["metrics"] and name in p["change"]["metrics"]]
            if not got:
                continue
            par, chg = np.array(got).T
            sign = 1.0 if better == "higher" else -1.0
            ps, cs = _stats(par), _stats(chg)
            table[name] = {
                "better": better,
                "parent": ps,
                "change": cs,
                "wins": int(np.sum(sign * (chg - par) > 0)),
                "gap_exceeds_parent_iqr": bool(
                    sign * (cs["median"] - ps["median"]) > ps["q3"] - ps["q1"]
                ),
            }
        out[wl] = table
    return out


def traced_layers(runs):
    """Median of each traced per-layer metric, per workload and side."""
    out = {}
    for r in runs:
        if r["traced"]:
            side = out.setdefault(r["workload"], {}).setdefault(r["side"], {})
            for name, val in r["result"]["metrics"].items():
                side.setdefault(name, []).append(val["value"])
    return {wl: {s: {k: float(np.median(v)) for k, v in sorted(m.items())}
                 for s, m in sides.items()}
            for wl, sides in out.items()}


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--label", required=True)
    ap.add_argument("--parent", required=True, help="git revision of the parent")
    ap.add_argument("--workloads", required=True, help="comma-separated names")
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=10)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--traced-pairs", type=int, default=0)
    ap.add_argument("--what", default="", help="one line on what the change does")
    args = ap.parse_args(argv)

    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        metrics = {m["name"]: m["better"] for m in json.load(fh)["end_to_end"]}
    workloads = args.workloads.split(",")
    parent_commit = _git("rev-parse", "--short", args.parent)
    runs = []
    with tempfile.TemporaryDirectory(prefix="bench_pairs_") as tmp:
        extract(parent_commit, tmp)
        sides = {"parent": tmp, "change": ROOT}
        plan = [(i, False) for i in range(args.pairs)]
        plan += [(args.pairs + i, True) for i in range(args.traced_pairs)]
        for wl in workloads:
            for side, root in sides.items():
                warm = run_once(root, wl, args.first_seed, 0, False)
                print(f"{wl} warm-up {side}: correct={warm.get('correct')}", flush=True)
            for pair, traced in plan:
                seed = args.first_seed + pair
                order = ("parent", "change") if pair % 2 == 0 else ("change", "parent")
                for side in order:
                    result = run_once(sides[side], wl, seed, args.seconds, traced)
                    runs.append({"pair": pair, "seed": seed, "workload": wl, "side": side,
                                 "traced": traced, "result": result})
                    print(f"{wl} pair {pair} {side}{' traced' if traced else ''}: "
                          f"correct={result.get('correct')}", flush=True)

    bench = {
        "label": args.label,
        "what": args.what,
        "command": f"python3 perfbench/run.py --workload <w> --seed <{args.first_seed}+pair> "
                   f"--seconds {args.seconds:g} --trace 0",
        "reproduce": shlex.join(["python3", "tools/bench_pairs.py", *(argv or sys.argv[1:])]),
        "parent_commit": parent_commit,
        "change": "working tree on " + _git("rev-parse", "--short", "HEAD"),
        "order": "even pairs run the parent first, odd pairs the change first; "
                 "each run a fresh process",
        "warmed": True,
        "machine": f"{os.cpu_count()} CPUs, Python {platform.python_version()}, "
                   f"numpy {np.__version__}",
        "quartiles": "numpy.percentile 25/75 (linear) over the runs of one side",
        "summary": summarize(runs, metrics),
        "traced_medians": traced_layers(runs),
        "runs": runs,
    }
    path = os.path.join(ROOT, f"BENCH_{args.label}.json")
    with open(path, "w") as fh:
        json.dump(bench, fh, indent=1)
        fh.write("\n")
    print(json.dumps(bench["summary"], indent=1))
    print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
