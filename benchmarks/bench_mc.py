#!/usr/bin/env python3
"""Time the Monte-Carlo stack layer by layer.

Three rates, each in requested path-steps (n_paths x n_steps) per second:

    draw          the Philox normals alone, drawn in the simulation's layout
                  (one standard_normal(n_paths) per step)
    step          the time spent inside ``_mc_fallback.step_paths`` during a
                  simulation, timed by wrapping it where ``simulate_fpt``
                  looks it up
    simulate_fpt  the whole simulation, unwrapped

``simulate_fpt`` draws the normals on a worker thread, ahead of the step
kernel on the calling thread, so with a second core free its time comes
close to the draws alone: ``simulate_fpt_over_draw`` is the ratio of the
two medians, 1 where the step is fully hidden behind the draws.

Each figure is the median of ``--repeat`` rounds; a round times the three
layers in turn on the same seed.  The step runs over every path's slot, the
absorbed ones included, so the step layer also reports its live path-steps:
the paths alive before each step (its ``n_alive`` argument), summed.  Run as

    python benchmarks/bench_mc.py [--paths N] [--steps N] [--repeat N] [--json]
"""

import argparse
import json
import os
import platform
import statistics
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import numpy as np

from mfcev import _mc_fallback
from mfcev.core import ModelParams
from mfcev.mc import McConfig, simulate_fpt

#: the fractional benchmark cell the validate report checks (r = 5%, s0 = 50)
PARAMS = ModelParams(r=0.05, sigma0=0.2, alpha=-2.0, beta=0.5, hurst=0.8, s0=50.0)
HORIZON = 2.0


def time_draws(cfg: McConfig) -> float:
    rng = np.random.Generator(np.random.Philox(cfg.seed))
    start = time.perf_counter()
    for _ in range(cfg.n_steps):
        rng.standard_normal(cfg.n_paths)
    return time.perf_counter() - start


def time_steps(cfg: McConfig) -> tuple[float, int]:
    """Seconds inside the step kernel during one simulation, and live path-steps."""
    original = _mc_fallback.step_paths
    spent = 0.0
    stepped = 0

    def timed(*args):
        nonlocal spent, stepped
        start = time.perf_counter()
        try:
            return original(*args)
        finally:
            spent += time.perf_counter() - start
            stepped += args[-1]     # n_alive: the paths alive before the step

    _mc_fallback.step_paths = timed
    try:
        simulate_fpt(PARAMS, cfg)
    finally:
        _mc_fallback.step_paths = original
    return spent, stepped


def time_simulation(cfg: McConfig) -> float:
    start = time.perf_counter()
    simulate_fpt(PARAMS, cfg)
    return time.perf_counter() - start


def measure(cfg: McConfig, repeat: int) -> dict:
    simulate_fpt(PARAMS, cfg)   # warm-up
    draw, step, end_to_end = [], [], []
    stepped = 0
    for _ in range(repeat):
        draw.append(time_draws(cfg))
        spent, stepped = time_steps(cfg)
        step.append(spent)
        end_to_end.append(time_simulation(cfg))
    work = cfg.n_paths * cfg.n_steps

    def layer(times):
        median = statistics.median(times)
        return {"s": median, "path_steps_per_s": work / median,
                "runs_s": [round(t, 6) for t in times]}

    return {
        "paths": cfg.n_paths, "steps": cfg.n_steps, "seed": cfg.seed,
        "repeat": repeat, "requested_path_steps": work,
        "draw": layer(draw),
        "step": {**layer(step), "live_path_steps": stepped},
        "simulate_fpt": layer(end_to_end),
        "simulate_fpt_over_draw": statistics.median(end_to_end) / statistics.median(draw),
        "meta": {"python": platform.python_version(), "numpy": np.__version__,
                 "nproc": os.cpu_count()},
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--paths", type=int, default=100_000)
    parser.add_argument("--steps", type=int, default=100)
    parser.add_argument("--repeat", type=int, default=5)
    parser.add_argument("--seed", type=int, default=12345)
    parser.add_argument("--json", action="store_true", help="print one JSON object")
    args = parser.parse_args()

    cfg = McConfig(n_paths=args.paths, n_steps=args.steps, horizon=HORIZON, seed=args.seed)
    result = measure(cfg, args.repeat)
    if args.json:
        print(json.dumps(result))
        return 0
    print(f"paths={cfg.n_paths}  steps={cfg.n_steps}  "
          f"({result['requested_path_steps'] / 1e6:g}M path-steps, median of {args.repeat})")
    for name in ("draw", "step", "simulate_fpt"):
        r = result[name]
        print(f"  {name:<12} : {r['s']:8.3f} s   {r['path_steps_per_s'] / 1e6:7.1f} M path-steps/s")
    print(f"  live path-steps stepped: {result['step']['live_path_steps']}")
    print(f"  simulate_fpt / draw: {result['simulate_fpt_over_draw']:.3f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
