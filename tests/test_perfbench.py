"""The benchmark harness's self-test, run with the suite.

The harness patches library names by string (``b_expand``,
``_odd_mults_cached``, the kernels, ...), so a refactor that renames one
fails here rather than at benchmark time.
"""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_perfbench_selftest_passes():
    proc = subprocess.run(
        [sys.executable, "perfbench/selftest.py"],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
