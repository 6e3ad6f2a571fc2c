"""Self-tests of the benchmark harness.

Run from the repository root::

    python3 perfbench/selftest.py

Checks that a corrupted or raising op is counted as failed (on the first
run and on repeats), that seeds change the inputs but not the op mix,
that the traced run sees calls made through names imported elsewhere and
restores every patched name, and that ``BENCHMARK.json`` lists exactly
the metrics the harness emits.
"""

from __future__ import annotations

import json
import sys
import traceback

import run
from layers import PER_LAYER
from spans import Tracer
from workloads import WORKLOADS


def _setup(workload, seed=1):
    _, R, inputs, ops = run.setup(workload, seed)
    return R, inputs, ops


def _corrupt(R, value):
    """A wrong answer of the same shape: one coefficient or byte off."""
    if isinstance(value, R.Series):
        coeffs = list(value.coeffs)
        coeffs[-1] += 1
        return R.Series(coeffs, value.order)
    status, text = value
    return status, text.replace("1", "2", 1)


def _cheapest(ops, count=3):
    return sorted(ops, key=lambda op: op.size)[:count]


def test_corrupted_results_fail():
    for workload in WORKLOADS:
        R, _, ops = _setup(workload)
        ops = [op for op in _cheapest(ops, 12)
               if isinstance(op.run(), (R.Series, tuple))][:3]
        assert len(ops) == 3, workload
        bad = ops[1]
        ops[1] = bad.__class__(bad.label, bad.input, bad.size,
                               lambda bad=bad: _corrupt(R, bad.run()), bad.check)
        checker = run.Checker(ops)
        run.run_pass(ops, checker)
        run.run_pass(ops, checker)
        checker.finish()  # the corrupted first result fails its identity
        assert (checker.attempted, checker.failed) == (6, 2), (workload, checker.failed)


def test_corruption_on_repeat_fails():
    R, _, ops = _setup("series_int")
    op = _cheapest(ops, 1)[0]
    calls = []

    def flaky():
        calls.append(1)
        result = op.run()
        return result if len(calls) == 1 else _corrupt(R, result)

    ops = [op.__class__(op.label, op.input, op.size, flaky, op.check)]
    checker = run.Checker(ops)
    for _ in range(3):
        run.run_pass(ops, checker)
    checker.finish()
    assert (checker.attempted, checker.failed) == (3, 2)


def test_raising_op_fails():
    _, _, ops = _setup("series_rat")
    op = _cheapest(ops, 1)[0]

    def boom():
        raise ZeroDivisionError("injected")

    ops = [op, op.__class__(op.label, op.input, op.size, boom, op.check)]
    checker = run.Checker(ops)
    run.run_pass(ops, checker)
    checker.finish()
    assert (checker.attempted, checker.failed) == (2, 1)


def test_seeds_change_inputs_not_mix():
    for workload in WORKLOADS:
        _, in1, ops1 = _setup(workload, 1)
        _, in2, ops2 = _setup(workload, 2)
        assert run.input_digest(in1) != run.input_digest(in2), workload
        _, in1_again, _ = _setup(workload, 1)
        assert run.input_digest(in1) == run.input_digest(in1_again), workload
        mix1 = [(op.label, op.input, op.size) for op in ops1]
        mix2 = [(op.label, op.input, op.size) for op in ops2]
        assert mix1 == mix2, workload


def test_tracer_sees_imported_names_and_restores():
    R, _, ops = _setup("cli")
    ops = [op for op in ops if op.label.startswith(("power", "bexpand@16"))]
    before = {
        "series_mul": R.Series.__mul__,
        "series_rmul": R.Series.__rmul__,
        "cli_bell_power": R.cli.bell_power,
        "kernel_mul": R._backend.kernels.mul,
        "suite": R.suites.SUITES["lemma21"],
    }
    tracer = Tracer(R, ops)
    tracer.install()
    try:
        assert R.cli.bell_power is not before["cli_bell_power"]
        assert R.Series.__rmul__ is R.Series.__mul__
        run.run_pass(ops, run.Checker(ops), tracer)
    finally:
        tracer.remove()
    after = {
        "series_mul": R.Series.__mul__,
        "series_rmul": R.Series.__rmul__,
        "cli_bell_power": R.cli.bell_power,
        "kernel_mul": R._backend.kernels.mul,
        "suite": R.suites.SUITES["lemma21"],
    }
    assert after == before
    for name in ("cli.power", "matrixlog.bell_power", "matrixlog.bell_log",
                 "bexpansion.b_expand", "kernels.mul", "exprparse.parse_expr"):
        assert tracer.stats.get(name, (0,))[0] > 0, name
    assert tracer.partitions > 0
    for span in tracer.spans:
        name, start, end, parent, _, _ = span
        assert end >= start and (parent == -1 or tracer.spans[parent][1] <= start), name


def test_benchmark_json_matches_harness():
    with open(run.ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        bench = json.load(fh)
    assert [w["name"] for w in bench["workloads"]] == list(WORKLOADS)
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} == run.E2E
    assert [(m["name"], m["unit"], m["better"]) for m in bench["per_layer"]] == [
        row[:3] for row in PER_LAYER
    ]


def main():
    sys.path.insert(0, str(run.SRC))
    failures = 0
    for name, fn in list(globals().items()):
        if name.startswith("test_") and callable(fn):
            try:
                fn()
                print(f"ok   {name}")
            except Exception:
                failures += 1
                print(f"FAIL {name}")
                traceback.print_exc()
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
