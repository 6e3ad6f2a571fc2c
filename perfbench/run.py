"""Layered benchmark for riordan's exact series, Riordan and partition code.

Usage (from the repository root)::

    python3 perfbench/run.py --workload series_int --seed 1 --seconds 24 --trace 0

Runs one workload (see ``workloads.py``) in this process, on one thread,
as a closed loop: each op starts after the previous one returned.  The
package is imported from ``src/`` of the checkout that holds this
script, with whichever kernel backend is live there.

The run repeats whole passes of the workload's fixed op list until the
next pass would end after ``--seconds``, so every run weighs the op mix
alike.  Every result is checked exactly, outside its timed span.

``--trace 0`` reports the end-to-end metrics; ``--trace 1`` alternates
traced and untraced passes and reports the per-layer metrics of
``layers.py``, writing the spans to ``perfbench/out/``.  The last line of
standard output is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics`` (name -> value and unit).  The line before it
records the seed, an input digest, the environment and the sample count.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import importlib
import json
import os
import platform
import random
import resource
import statistics
import sys
import time
from pathlib import Path

from spans import Tracer
from workloads import WORKLOADS, fingerprint

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

# set-up is repeated and its median reported, so a one-off cost (such as
# compiling bytecode in a fresh checkout) does not decide the figure
SETUP_REPEATS = 5

E2E = {
    "ops_per_s": "1/s",
    "op_p50_ms": "ms",
    "op_p90_ms": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

_RAISED = object()


class Checker:
    """Counts attempted and failed ops.

    The first result of each op is kept with its exact fingerprint, and
    every later run of the same op (same inputs) must reproduce that
    fingerprint.  ``finish`` then checks each kept result against the op's
    own identity; when that fails, every run that reproduced it failed
    too.  The identities run after the measured passes, so the time they
    take does not decide how many passes fit in a run.
    """

    def __init__(self, ops):
        self.ops = ops
        self.first = {}  # op index -> first result
        self.reference = {}  # op index -> fingerprint of the first result
        self.matched = {}  # op index -> runs that reproduced it
        self.attempted = 0
        self.failed = 0

    def __call__(self, index, result):
        self.attempted += 1
        if result is _RAISED:
            self._fail(index, 1)
        elif index not in self.reference:
            self.first[index] = result
            self.reference[index] = fingerprint(result)
            self.matched[index] = 1
        elif fingerprint(result) == self.reference[index]:
            self.matched[index] += 1
        else:
            self._fail(index, 1)

    def finish(self):
        for index, result in self.first.items():
            try:
                ok = bool(self.ops[index].check(result))
            except Exception as exc:  # a check that raises is a failed op
                print(f"check of {self.ops[index].label} raised {exc!r}", file=sys.stderr)
                ok = False
            if not ok:
                self._fail(index, self.matched[index])
        self.first.clear()

    def _fail(self, index, runs):
        self.failed += runs
        print(f"FAILED {self.ops[index].label} ({runs} runs)", file=sys.stderr)


def run_pass(ops, checker, tracer=None, first_id=0):
    """One closed-loop pass; returns the latency of each op in seconds."""
    clock = time.perf_counter
    latencies = []
    for index, op in enumerate(ops):
        if tracer is not None:
            tracer.begin_op(first_id + index)
        t0 = clock()
        try:
            result = op.run()
        except Exception as exc:  # counted as a failed op
            print(f"{op.label} raised {exc!r}", file=sys.stderr)
            result = _RAISED
        t1 = clock()
        if tracer is not None:
            tracer.end_op()
        latencies.append(t1 - t0)
        checker(index, result)
    return latencies


def purge_riordan():
    for name in [m for m in sys.modules if m == "riordan" or m.startswith("riordan.")]:
        del sys.modules[name]


def setup(workload, seed):
    """Import riordan afresh and build the seeded inputs; returns the
    elapsed seconds, the package, the inputs and the op list."""
    build, modules = WORKLOADS[workload]
    purge_riordan()
    t0 = time.perf_counter()
    for name in modules:
        importlib.import_module(name)
    R = sys.modules["riordan"]
    inputs, ops = build(R, random.Random(seed))
    return time.perf_counter() - t0, R, inputs, ops


def input_digest(inputs):
    text = json.dumps({k: repr(v) for k, v in inputs.items()}, sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()


def git_sha():
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return "unknown"


def cpu_model():
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def environment(R):
    return {
        "backend": R.backend_name(),
        "python": platform.python_version(),
        "git_sha": git_sha(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model(),
    }


def timed_run(ops, checker, seconds):
    """Untraced passes until the next one would end after ``seconds``;
    returns the latencies of each pass."""
    passes = []
    start = time.perf_counter()
    while True:
        began = time.perf_counter()
        passes.append(run_pass(ops, checker))
        now = time.perf_counter()
        if now - start + (now - began) > seconds:
            return passes


def e2e_metrics(passes, setup_times):
    """``ops_per_s`` divides the ops of a pass by the sum of each op's
    median latency over the passes, which damps a pass slowed by other
    load on the machine; the latency percentiles pool every op run."""
    latencies = [t for one_pass in passes for t in one_pass]
    typical = [statistics.median(runs) for runs in zip(*passes)]
    values = {
        "ops_per_s": len(typical) / sum(typical),
        "op_p50_ms": statistics.median(latencies) * 1e3,
        "op_p90_ms": statistics.quantiles(latencies, n=10, method="inclusive")[-1] * 1e3,
        "setup_s": statistics.median(setup_times),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    return {name: {"value": values[name], "unit": unit} for name, unit in E2E.items()}


def traced_run(R, ops, checker, seconds):
    """Traced and untraced passes in turn, at least one of each."""
    tracer = Tracer(R, ops)
    traced, untraced = [], []
    hit_ratio = None
    start = time.perf_counter()
    while True:
        began = time.perf_counter()
        if len(traced) == len(untraced):
            tracer.install()
            try:
                traced.append(sum(run_pass(ops, checker, tracer, len(traced) * len(ops))))
            finally:
                tracer.remove()
            if hit_ratio is None:  # the first pass starts from an empty cache
                hit_ratio = tracer.partition_hit_ratio()
        else:
            untraced.append(sum(run_pass(ops, checker)))
        now = time.perf_counter()
        if untraced and now - start + (now - began) > seconds:
            break
    overhead = statistics.median(traced) / statistics.median(untraced)
    metrics = tracer.metrics(len(traced), sum(traced), overhead, hit_ratio)
    return tracer, metrics, len(traced) + len(untraced)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if not (SRC / "riordan" / "__init__.py").is_file():
        print(f"error: no riordan package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    setup_times = []
    for _ in range(SETUP_REPEATS):
        elapsed, R, inputs, ops = setup(args.workload, args.seed)
        setup_times.append(elapsed)
    if Path(R.__file__).resolve().parent != SRC / "riordan":
        print(f"error: imported riordan from {R.__file__}, not {SRC}", file=sys.stderr)
        return 2
    gc.collect()  # garbage of the earlier set-ups is not the ops' to pay for

    checker = Checker(ops)
    info = {
        "workload": args.workload,
        "seed": args.seed,
        "inputs_sha256": input_digest(inputs),
        "environment": environment(R),
        "ops_per_pass": len(ops),
        "setup_runs_s": setup_times,
    }
    if args.trace:
        tracer, metrics, passes = traced_run(R, ops, checker, args.seconds)
        OUT.mkdir(exist_ok=True)
        trace_file = OUT / f"trace-{args.workload}-seed{args.seed}.json"
        tracer.dump(trace_file, info)
        info["trace_file"] = str(trace_file.relative_to(ROOT))
    else:
        runs = timed_run(ops, checker, args.seconds)
        metrics = e2e_metrics(runs, setup_times)
        passes = len(runs)
        info["samples"] = passes * len(ops)
    checker.finish()
    info["passes"] = passes
    info["failed_ops_ratio"] = {"value": checker.failed / checker.attempted, "unit": "1"}

    for name, m in metrics.items():
        print(f"{name:44s} {m['value']:.6g} {m['unit']}")
    print(json.dumps(info))
    print(json.dumps({
        "correct": checker.failed == 0,
        "attempted": checker.attempted,
        "failed": checker.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
