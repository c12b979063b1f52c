"""Record the output references the benchmark checks against.

    python3 perfbench/make_refs.py [workload ...]

Runs each workload's op once per input seed (once in all for a workload
that ignores its seed) under the benchmark's BLAS pinning, and writes the
facts to `refs/<workload>.json`.  Re-record only when an output is meant to
change, and say so where the change is described.
"""

import json
import os
import sys
import tempfile

import run  # pins BLAS threads and puts src/ on sys.path
import workloads


def record(name):
    wl = workloads.WORKLOADS[name]()
    seeds = range(workloads.REF_SEEDS) if wl.uses_seed else [0]
    refs = {}
    os.makedirs(run.OUT_DIR, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=run.OUT_DIR) as workdir:
        for seed in seeds:
            wl.prepare(seed, workdir)
            facts = wl.facts(wl.op())
            problems = facts.pop("_problems", [])
            if problems:
                raise SystemExit(f"{name} seed {seed}: {problems}")
            refs[str(seed) if wl.uses_seed else "fixed"] = facts
            print(f"{name} seed {seed}: ok", flush=True)
    os.makedirs(workloads.REF_DIR, exist_ok=True)
    with open(os.path.join(workloads.REF_DIR, f"{name}.json"), "w") as fh:
        json.dump(refs, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    for name in sys.argv[1:] or workloads.WORKLOADS:
        record(name)
