"""The benchmark's workload outputs, pinned against `perfbench/refs`.

Each op runs on input seeds 0 and 1 and goes through its workload's own
`check`, so a stale reference or a changed pivot fails here as well as in
`perfbench/run.py`.  `bruteforce_25c7` is left out as a whole workload: its
references predate the rule that scores the QR subset with the enumeration
kernel, and 11 of its 32 seeds fail on `percentile` until they are
re-recorded.
"""

import pathlib
import sys

import pytest

PERFBENCH = pathlib.Path(__file__).resolve().parent.parent / "perfbench"
sys.path.insert(0, str(PERFBENCH))
import workloads  # noqa: E402


@pytest.mark.parametrize("seed", [0, 1])
@pytest.mark.parametrize("name", ["select_n400", "gl_lqg", "select_wide"])
def test_op_matches_references(tmp_path, name, seed):
    wl = workloads.WORKLOADS[name]()
    wl.prepare(seed, str(tmp_path))
    assert wl.check(wl.op(), wl.reference(seed)) == []
