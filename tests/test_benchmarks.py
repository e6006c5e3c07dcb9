"""Smoke test of the layer benchmark ``benchmarks/bench_layers.py``.

The harness reaches package internals by attribute, through its ``TARGETS``
list: ``cds._price_batch``, ``FirstPassageLaw.q_and_g`` and
``_mc_fallback.step_paths``.  A fast check resolves every target, so a
renamed internal fails in the quick loop.  One run with the smallest budget
in a fresh interpreter is read by a test per stack, so a wrapper that no
longer sees any calls fails too.
"""

import importlib.util
import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
HARNESS = ROOT / "benchmarks" / "bench_layers.py"


def test_bench_targets_resolve():
    spec = importlib.util.spec_from_file_location("bench_layers", HARNESS)
    harness = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(harness)
    assert harness.TARGETS
    assert [name for name, (owner, attribute) in harness.TARGETS.items()
            if not callable(getattr(owner, attribute, None))] == []


@pytest.fixture(scope="module")
def result():
    proc = subprocess.run([sys.executable, str(HARNESS), "--repeat", "1", "--inner", "1",
                           "--paths", "2000", "--steps", "10", "--json"],
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


def test_bench_analytic(result):
    analytic = result["analytic"]
    nodes = analytic["nodes"]
    assert nodes["q_and_g_calls"] >= 1 and nodes["low"] + nodes["high"] > 0
    assert set(analytic["ms"]) == {"gammaincc_low", "gammaincc_high", "complement_low", "phi",
                                   "q", "q_and_g", "price_batch", "spread_table",
                                   "cds_spread_T1", "cds_spread_T10", "cli_parse_table1",
                                   "cli_parse_curve"}
    assert all(ms > 0.0 for ms in analytic["ms"].values())


def test_bench_mc(result):
    mc = result["mc"]
    assert mc["requested_path_steps"] == 20000
    assert mc["blocks"] == mc["workers"] == 1
    assert 0 < mc["step"]["live_path_steps"] <= 20000
    for layer in ("draw", "step", "simulate_fpt"):
        assert mc[layer]["path_steps_per_s"] > 0.0
    assert mc["simulate_fpt_over_draw"] > 0.0
    assert mc["estimators"]["paths_per_s"] > 0.0
