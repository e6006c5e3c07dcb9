#!/usr/bin/env python3
"""Time the Monte-Carlo stack layer by layer.

Three rates, each in requested path-steps (n_paths x n_steps) per second:

    draw          the normals alone, as one stream on one core: one
                  standard_normal(n_paths) call per step from block 0's
                  generator, ``mc.block_generator(seed, 0)`` (SFC64), on
                  the calling thread
    step          the time spent inside ``_mc_fallback.step_paths`` during a
                  simulation, summed over every block's calls, timed by
                  wrapping it where ``simulate_fpt`` looks it up
    simulate_fpt  the whole simulation, unwrapped

and one in paths per second:

    estimators    ``default_probability_estimate`` and ``spread_estimate``
                  on the simulation's default times, at the contract
                  ``mfcev validate`` prices (T = 2, recovery 0.5, two
                  payments a year)

``simulate_fpt`` splits the paths into blocks of at most ``mc.BLOCK_PATHS``,
each drawing from its own SFC64 stream and stepping its own paths, and runs
the blocks on up to one thread per usable CPU (``blocks`` and ``workers`` in
the output).  ``simulate_fpt_over_draw`` is the ratio of the two medians: 1
or more on one block, where one core draws and steps, and below 1 where
several cores share the draws.

Each figure is the median of ``--repeat`` rounds; a round times the four
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

from mfcev import _mc_fallback, mc
from mfcev.cds import CdsContract
from mfcev.core import ModelParams
from mfcev.mc import McConfig, default_probability_estimate, simulate_fpt, spread_estimate

#: the fractional benchmark cell the validate report checks (r = 5%, s0 = 50)
PARAMS = ModelParams(r=0.05, sigma0=0.2, alpha=-2.0, beta=0.5, hurst=0.8, s0=50.0)
HORIZON = 2.0
CONTRACT = CdsContract(maturity=HORIZON, recovery=0.5, payments_per_year=2)


def time_draws(cfg: McConfig) -> float:
    rng = mc.block_generator(cfg.seed, 0)
    start = time.perf_counter()
    for _ in range(cfg.n_steps):
        rng.standard_normal(cfg.n_paths)
    return time.perf_counter() - start


def time_steps(cfg: McConfig) -> tuple[float, int]:
    """Seconds inside the step kernel during one simulation, and live path-steps."""
    original = _mc_fallback.step_paths
    # the blocks step on several threads, so each call appends its own record
    # (list.append is atomic) rather than adding to a shared total
    calls = []

    def timed(*args):
        start = time.perf_counter()
        try:
            return original(*args)
        finally:
            # n_alive, the last argument: the paths alive before the step
            calls.append((time.perf_counter() - start, args[-1]))

    _mc_fallback.step_paths = timed
    try:
        simulate_fpt(PARAMS, cfg)
    finally:
        _mc_fallback.step_paths = original
    return sum(spent for spent, _ in calls), sum(alive for _, alive in calls)


def time_simulation(cfg: McConfig) -> tuple[float, np.ndarray]:
    """Seconds for one simulation, and its default times."""
    start = time.perf_counter()
    default_time = simulate_fpt(PARAMS, cfg)
    return time.perf_counter() - start, default_time


def time_estimators(default_time: np.ndarray) -> float:
    start = time.perf_counter()
    default_probability_estimate(default_time)
    spread_estimate(default_time, PARAMS, CONTRACT)
    return time.perf_counter() - start


def measure(cfg: McConfig, repeat: int) -> dict:
    simulate_fpt(PARAMS, cfg)   # warm-up
    draw, step, end_to_end, estimators = [], [], [], []
    stepped = 0
    for _ in range(repeat):
        draw.append(time_draws(cfg))
        spent, stepped = time_steps(cfg)
        step.append(spent)
        spent, default_time = time_simulation(cfg)
        end_to_end.append(spent)
        estimators.append(time_estimators(default_time))
    work = cfg.n_paths * cfg.n_steps
    blocks = -(-cfg.n_paths // mc.BLOCK_PATHS)

    def layer(times, per="path_steps", count=work):
        median = statistics.median(times)
        return {"s": median, f"{per}_per_s": count / median,
                "runs_s": [round(t, 6) for t in times]}

    return {
        "paths": cfg.n_paths, "steps": cfg.n_steps, "seed": cfg.seed,
        "repeat": repeat, "requested_path_steps": work,
        "blocks": blocks, "workers": min(blocks, mc._usable_cpus()),
        "draw": layer(draw),
        "step": {**layer(step), "live_path_steps": stepped},
        "simulate_fpt": layer(end_to_end),
        "estimators": layer(estimators, "paths", cfg.n_paths),
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
          f"blocks={result['blocks']}  workers={result['workers']}  "
          f"({result['requested_path_steps'] / 1e6:g}M path-steps, median of {args.repeat})")
    for name in ("draw", "step", "simulate_fpt"):
        r = result[name]
        print(f"  {name:<12} : {r['s']:8.3f} s   {r['path_steps_per_s'] / 1e6:7.1f} M path-steps/s")
    r = result["estimators"]
    print(f"  {'estimators':<12} : {r['s'] * 1e3:8.3f} ms  {r['paths_per_s'] / 1e6:7.1f} M paths/s")
    print(f"  live path-steps stepped: {result['step']['live_path_steps']}")
    print(f"  simulate_fpt / draw: {result['simulate_fpt_over_draw']:.3f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
