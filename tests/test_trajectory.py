"""The summary math of ``benchmarks/trajectory.py`` on canned result
lines; no benchmark run is started."""

import importlib.util
import json
from pathlib import Path

import pytest

PATH = Path(__file__).resolve().parents[1] / "benchmarks" / "trajectory.py"
spec = importlib.util.spec_from_file_location("trajectory", PATH)
trajectory = importlib.util.module_from_spec(spec)
spec.loader.exec_module(trajectory)

SPEC = {
    "end_to_end": [
        {"name": "ops_per_s", "unit": "1/s", "better": "higher", "bound": 0.25},
        {"name": "op_p90_ms", "unit": "ms", "better": "lower", "bound": 0.25},
    ]
}


def result_line(ops, p90, failed=0, attempted=100):
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            "ops_per_s": {"value": ops, "unit": "1/s"},
            "op_p90_ms": {"value": p90, "unit": "ms"},
        },
    }


def test_median_and_iqr():
    s = trajectory.summarize([4.0, 1.0, 3.0, 2.0, 5.0])
    assert s["median"] == 3.0
    assert s["iqr"] == 2.0  # inclusive quartiles 2 and 4
    assert s["runs"] == [4.0, 1.0, 3.0, 2.0, 5.0]  # seed order, not sorted
    three = trajectory.summarize([10.0, 30.0, 20.0])
    assert (three["median"], three["iqr"]) == (20.0, 10.0)  # quartiles 15, 25
    assert trajectory.summarize([7.0])["iqr"] == 0


@pytest.mark.parametrize(
    "better, parent, child, worse_by, within",
    [
        ("higher", 100.0, 200.0, -1.0, True),  # twice the throughput
        ("higher", 100.0, 70.0, 0.3, False),  # 30% fewer ops/s
        ("higher", 100.0, 80.0, 0.2, True),
        ("lower", 20.0, 10.0, -0.5, True),  # half the latency
        ("lower", 20.0, 26.0, 0.3, False),  # 30% slower
        ("lower", 20.0, 25.0, 0.25, True),  # exactly at the bound
    ],
)
def test_ratio_against_bound(better, parent, child, worse_by, within):
    metric = {"name": "m", "better": better, "bound": 0.25}
    got = trajectory.compare([parent], [child], metric)
    assert got["ratio"] == pytest.approx(child / parent)
    assert got["worse_by"] == pytest.approx(worse_by)
    assert got["within_bound"] is within
    assert got["bound"] == 0.25


HIGHER = {"name": "ops_per_s", "better": "higher", "bound": 0.25}
LOWER = {"name": "op_p90_ms", "better": "lower", "bound": 0.25}
PARENT = [100.0, 104.0, 98.0, 102.0, 100.0, 96.0, 101.0, 99.0, 103.0, 97.0]


@pytest.mark.parametrize(
    "metric, parent, child, wins, verdict",
    [
        # wins all ten pairs, far beyond the parent's IQR
        (HIGHER, PARENT, [2 * v for v in PARENT], 10, "better"),
        # wins nine pairs and ties one
        (HIGHER, PARENT, [v + 10 for v in PARENT[:9]] + [PARENT[9]], 9, "better"),
        # wins only eight pairs: a gain not claimed
        (HIGHER, PARENT, [v + 10 for v in PARENT[:8]] + [v - 1 for v in PARENT[8:]], 8,
         "unchanged"),
        # wins every pair, but by less than the parent's IQR (3.5)
        (HIGHER, PARENT, [v + 1 for v in PARENT], 10, "unchanged"),
        # median 40% worse
        (HIGHER, PARENT, [0.6 * v for v in PARENT], 0, "worse"),
        # latency halved: lower is better
        (LOWER, PARENT, [v / 2 for v in PARENT], 10, "better"),
        # the child's runs spread wider than the bound, median within it
        (LOWER, PARENT, [50.0, 150.0] * 5, 5, "unresolved"),
    ],
    ids=["all-wins", "nine-wins", "eight-wins", "inside-iqr", "worse",
         "lower-better", "wide-spread"],
)
def test_verdict_from_pairs(metric, parent, child, wins, verdict):
    got = trajectory.compare(parent, child, metric)
    assert (got["wins"], got["pairs"], got["verdict"]) == (wins, 10, verdict)


def test_wide_spread_that_every_run_beats_is_resolved():
    # the parent's runs spread wider than the bound; every child run
    # reads lower than every parent run, by less than the parent's IQR
    parent = [100.0, 200.0] * 5
    got = trajectory.compare(parent, [40.0, 80.0] * 5, LOWER)
    assert (got["spread"] > 0.25, got["verdict"]) == (True, "unchanged")
    got = trajectory.compare(parent, [90.0, 110.0] * 5, LOWER)
    assert (got["spread"] > 0.25, got["verdict"]) == (True, "unresolved")


def test_workload_summary_from_result_lines():
    runs = {
        "parent": [result_line(100, 20), result_line(120, 22), result_line(110, 30)],
        "child": [result_line(300, 8), result_line(240, 9, failed=1), result_line(270, 7)],
    }
    out = trajectory.summarize_workload(runs, SPEC)
    assert out["parent"] == {"attempted": 300, "failed": 0}
    assert out["child"] == {"attempted": 300, "failed": 1}
    ops = out["metrics"]["ops_per_s"]
    assert (ops["parent"]["median"], ops["child"]["median"]) == (110, 270)
    assert ops["parent"]["iqr"] == 10  # quartiles 105, 115
    assert ops["ratio"] == pytest.approx(270 / 110)
    assert ops["within_bound"] is True
    assert (ops["wins"], ops["pairs"], ops["verdict"]) == (3, 3, "better")
    p90 = out["metrics"]["op_p90_ms"]
    assert (p90["parent"]["median"], p90["child"]["median"]) == (22, 8)
    assert p90["worse_by"] == pytest.approx(8 / 22 - 1)


def test_runs_keep_their_pairs_under_drift():
    # both sides rise with the run order; the child wins nine pairs by
    # 1-10% and loses pair 6 badly, so its median reads lower than the
    # parent's while the median paired ratio reads higher
    parent = [10.0 * k for k in range(1, 11)]
    child = [p + 1 for p in parent]
    child[5] = 5.0
    runs = {
        "parent": [result_line(v, 1.0) for v in parent],
        "child": [result_line(v, 1.0) for v in child],
    }
    ops = trajectory.summarize_workload(runs, SPEC)["metrics"]["ops_per_s"]
    assert (ops["parent"]["runs"], ops["child"]["runs"]) == (parent, child)
    assert ops["wins"] == 9
    assert ops["ratio"] == pytest.approx(46 / 55)
    assert ops["paired_ratio"] == pytest.approx((71 / 70 + 51 / 50) / 2)


def test_parse_run_reads_the_last_two_lines():
    info = {"workload": "cli", "seed": 1}
    result = result_line(50, 30)
    stdout = "ops_per_s 50 1/s\n" + json.dumps(info) + "\n" + json.dumps(result) + "\n"
    assert trajectory.parse_run(stdout) == (info, result)
