"""Parent-versus-child benchmark trajectory, one ``BENCH_<label>.json``.

Usage (from the repository root)::

    python3 benchmarks/trajectory.py --parent HEAD~1 --label 14

The parent revision and HEAD are extracted with ``git archive <rev> | tar -x`` into a
temporary directory, so only committed files are measured and no
worktree entry is left in ``.git``.  For each workload of
``BENCHMARK.json`` and each of ten seeds, ``perfbench/run.py --trace 0``
runs once in each tree for the ``run_seconds`` of ``BENCHMARK.json``, the
order alternating from seed to seed (P, C, then C, P, ...), so a drift of
the machine weighs on both sides alike.

The output holds the environment (both SHAs, and Python, ``nproc`` and
CPU as ``perfbench/run.py`` reports them), each side's runs of each
end-to-end metric in seed order with their median and interquartile
range, and the child/parent comparison: ``ratio`` is the child's median
over the parent's and ``paired_ratio`` the median over seeds of
child/parent within each pair, which a drift of the machine along the
run order moves less than the medians; ``worse_by`` is the relative change of the medians in the bad
direction (negative when the child is better), ``within_bound`` is
``worse_by <= bound``, ``wins`` counts the seeds whose child run reads
strictly better than its parent run, and ``spread`` is the wider of the
two sides' IQR over median.  ``verdict`` is "better" when the child wins
at least nine tenths of the pairs and its median beats the parent's by
more than the parent's IQR; "worse" when it is out of bound; "unresolved"
when the spread is wider than the bound and not every child run beats
every parent run; and "unchanged" otherwise.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SEEDS = list(range(1, 11))  # ten alternating parent/child pairs per workload


def summarize(values: list[float]) -> dict:
    """Median and interquartile range (inclusive quartiles) of the runs;
    the runs are kept in seed order, so run i of the parent and run i of
    the child are pair i."""
    if len(values) == 1:
        q1 = q3 = values[0]
    else:
        q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": statistics.median(values), "iqr": q3 - q1, "runs": list(values)}


def compare(parent: list[float], child: list[float], metric: dict) -> dict:
    """Child against parent for one end-to-end metric of ``BENCHMARK.json``
    (``better``, ``bound``), from the runs of each side paired by seed."""
    sign = 1 if metric["better"] == "higher" else -1
    p, c = summarize(parent), summarize(child)
    worse_by = sign * (1 - c["median"] / p["median"])
    bound = metric["bound"]
    wins = sum(sign * (y - x) > 0 for x, y in zip(parent, child))
    paired_ratio = statistics.median(y / x for x, y in zip(parent, child))
    spread = max(p["iqr"] / p["median"], c["iqr"] / c["median"])
    dominates = min(sign * v for v in child) > max(sign * v for v in parent)
    if wins >= 0.9 * len(parent) and sign * (c["median"] - p["median"]) > p["iqr"]:
        verdict = "better"
    elif worse_by > bound:
        verdict = "worse"
    elif spread > bound and not dominates:
        verdict = "unresolved"
    else:
        verdict = "unchanged"
    return {
        "ratio": c["median"] / p["median"],
        "paired_ratio": paired_ratio,
        "worse_by": worse_by,
        "bound": bound,
        "within_bound": worse_by <= bound,
        "wins": wins,
        "pairs": len(parent),
        "spread": spread,
        "verdict": verdict,
    }


def parse_run(stdout: str) -> tuple[dict, dict]:
    """The info line and the result line that end ``perfbench/run.py``'s
    output."""
    lines = stdout.strip().splitlines()
    return json.loads(lines[-2]), json.loads(lines[-1])


def summarize_workload(runs: dict, spec: dict) -> dict:
    """``runs`` maps "parent" and "child" to the result lines of one
    workload; returns both sides' summaries and their comparison."""
    out = {"metrics": {}}
    for side, results in runs.items():
        out[side] = {
            "attempted": sum(r["attempted"] for r in results),
            "failed": sum(r["failed"] for r in results),
        }
    for metric in spec["end_to_end"]:
        name = metric["name"]
        values = {
            side: [r["metrics"][name]["value"] for r in results]
            for side, results in runs.items()
        }
        out["metrics"][name] = {
            "unit": metric["unit"],
            "better": metric["better"],
            **{side: summarize(v) for side, v in values.items()},
            **compare(values["parent"], values["child"], metric),
        }
    return out


def extract(rev: str, into: Path) -> str:
    """Write the committed files of ``rev`` under ``into``; return its SHA."""
    sha = subprocess.run(
        ["git", "rev-parse", "--verify", f"{rev}^{{commit}}"],
        cwd=ROOT, check=True, capture_output=True, text=True,
    ).stdout.strip()
    into.mkdir(parents=True)
    archive = subprocess.Popen(["git", "archive", sha], cwd=ROOT, stdout=subprocess.PIPE)
    subprocess.run(["tar", "-x", "-C", str(into)], stdin=archive.stdout, check=True)
    archive.stdout.close()
    if archive.wait() != 0:
        raise RuntimeError(f"git archive {sha} failed")
    return sha


def run_once(tree: Path, workload: str, seed: int, seconds: float) -> tuple[dict, dict]:
    """The info and result lines of one untraced ``perfbench/run.py`` run
    in ``tree``."""
    command = [
        sys.executable, "perfbench/run.py", "--workload", workload,
        "--seed", str(seed), "--seconds", str(seconds), "--trace", "0",
    ]
    proc = subprocess.run(command, cwd=tree, capture_output=True, text=True)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(command)} in {tree} exited {proc.returncode}:\n{proc.stderr}")
    return parse_run(proc.stdout)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", required=True, help="parent revision")
    parser.add_argument("--label", required=True, help="writes BENCH_<label>.json")
    args = parser.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    seconds = spec["run_seconds"]
    out_file = ROOT / f"BENCH_{args.label}.json"

    with tempfile.TemporaryDirectory(prefix="trajectory-") as tmp:
        trees = {"parent": Path(tmp) / "parent", "child": Path(tmp) / "child"}
        shas = {side: extract(rev, trees[side])
                for side, rev in (("parent", args.parent), ("child", "HEAD"))}
        results = {}
        for workload in (w["name"] for w in spec["workloads"]):
            runs = {"parent": [], "child": []}
            for i, seed in enumerate(SEEDS):
                order = ("parent", "child") if i % 2 == 0 else ("child", "parent")
                for side in order:
                    info, result = run_once(trees[side], workload, seed, seconds)
                    runs[side].append(result)
                    ops = result["metrics"]["ops_per_s"]["value"]
                    print(f"{workload:12s} seed {seed} {side:6s} ops_per_s {ops:.4g} "
                          f"failed {result['failed']}/{result['attempted']}", flush=True)
            results[workload] = summarize_workload(runs, spec)

    report = {
        "label": args.label,
        "environment": {
            "parent_sha": shas["parent"],
            "child_sha": shas["child"],
            **{key: info["environment"][key] for key in ("python", "nproc", "cpu_model")},
        },
        "seeds": SEEDS,
        "seconds": seconds,
        "order": "per seed, alternating: parent then child, child then parent, ...",
        "workloads": results,
    }
    out_file.write_text(json.dumps(report, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {out_file}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
