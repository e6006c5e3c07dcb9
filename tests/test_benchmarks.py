"""Smoke test of the layer benchmarks in ``benchmarks/``.

Both scripts reach package internals by attribute: ``cds._price_batch``,
``FirstPassageLaw.q_and_g`` and ``_mc_fallback.step_paths``.  Each case runs
one script with the smallest budget in a fresh interpreter and reads its
JSON, so a renamed internal, or a wrapper that no longer sees any calls,
fails here.
"""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def run_benchmark(script, *args):
    proc = subprocess.run([sys.executable, str(ROOT / "benchmarks" / script), *args, "--json"],
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


def test_bench_analytic():
    result = run_benchmark("bench_analytic.py", "--repeat", "1", "--inner", "1")
    nodes = result["nodes"]
    assert nodes["q_and_g_calls"] >= 1 and nodes["low"] + nodes["high"] > 0
    assert set(result["ms"]) == {"gammaincc_low", "gammaincc_high", "complement_low", "phi",
                                 "q", "q_and_g", "price_batch", "spread_table",
                                 "cds_spread_T1", "cds_spread_T10", "cli_parse_table1",
                                 "cli_parse_curve"}
    assert all(ms > 0.0 for ms in result["ms"].values())


def test_bench_mc():
    result = run_benchmark("bench_mc.py", "--paths", "2000", "--steps", "10", "--repeat", "1")
    assert result["requested_path_steps"] == 20000
    assert result["blocks"] == result["workers"] == 1
    assert 0 < result["step"]["live_path_steps"] <= 20000
    for layer in ("draw", "step", "simulate_fpt"):
        assert result[layer]["path_steps_per_s"] > 0.0
    assert result["simulate_fpt_over_draw"] > 0.0
    assert result["estimators"]["paths_per_s"] > 0.0
