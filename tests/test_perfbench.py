"""Smoke test of the benchmark harness: every workload still runs end to end.

Each case runs ``perfbench/run.py`` for half a second from the repository
root, as the benchmark itself is run, and reads the JSON summary on the
last line of its output.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.slow
@pytest.mark.parametrize("workload,trace", [
    ("table1-grid", 1),
    ("curve-sweep", 1),
    ("mc-validate", 1),
    ("table1-grid", 0),
])
def test_perfbench_runs(workload, trace):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "1",
         "--seconds", "0.5", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout.strip().splitlines()[-1])["correct"] is True
