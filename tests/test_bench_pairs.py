"""`tools/bench_pairs.py` summaries on synthetic runs."""

import importlib.util
import pathlib

TOOL = pathlib.Path(__file__).resolve().parent.parent / "tools" / "bench_pairs.py"
_spec = importlib.util.spec_from_file_location("bench_pairs", TOOL)
bench_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_pairs)


def _result(p50, failed=0):
    return {"correct": failed == 0, "failed": failed,
            "metrics": {"op_s_p50": {"value": p50, "unit": "s"}}}


# the record run_once makes of a process that printed no result line
CRASHED = {"correct": False, "crashed": True, "error": "Traceback ...", "metrics": {}}


def _runs(results):
    return [{"pair": pair, "seed": 10 + pair, "workload": "w", "side": side,
             "traced": False, "result": result}
            for pair, sides in enumerate(results) for side, result in sides.items()]


def test_crashed_runs_are_counted_per_side():
    runs = _runs([
        {"parent": _result(1.0), "change": _result(0.5)},
        {"parent": _result(2.0), "change": CRASHED},
        {"parent": CRASHED, "change": CRASHED},
        {"parent": _result(3.0, failed=2), "change": _result(0.7)},
    ])
    table = bench_pairs.summarize(runs, {"op_s_p50": "lower"})["w"]
    assert table["crashed_runs"] == {"parent": 1, "change": 2}
    assert table["failed_ops"] == {"parent": 2, "change": 0}
    # the medians come from the two pairs where both sides reported
    assert table["op_s_p50"]["parent"]["median"] == 2.0
    assert table["op_s_p50"]["change"]["median"] == 0.6
    assert table["op_s_p50"]["wins"] == 2


def test_no_crash_reads_zero():
    runs = _runs([{"parent": _result(1.0), "change": _result(0.9)}])
    table = bench_pairs.summarize(runs, {"op_s_p50": "lower"})["w"]
    assert table["crashed_runs"] == {"parent": 0, "change": 0}
