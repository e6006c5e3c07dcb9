#!/usr/bin/env python3
"""Time the analytic and the Monte-Carlo pricing stacks layer by layer.

Both stacks run on the fractional benchmark cell (alpha = -2, beta = 0.5,
H = 0.8, r = 0.05, sigma0 = 0.2).  The engine functions the harness wraps
are declared once, in ``TARGETS``, and swapped in and out with
``unittest.mock.patch.object``; the wrapper records each call's arguments,
seconds and thread.

Analytic layers, in ms, on the table1 batch: the cells one ``spread_table``
over the paper's 40-cell grid (``mfcev table1``) hands ``cds._price_batch``,
and every (law, times) pair at which it calls ``FirstPassageLaw.q_and_g``:

    gammaincc_low     scipy ``gammaincc(s, u)`` on the batch's nodes with
                      u = 1/phi < ``core.Q_SPLIT_U``
    gammaincc_high    the same on the nodes with u >= ``core.Q_SPLIT_U``
    complement_low    ``1 - gammainc(s, u)`` on the nodes below it
    phi, q, q_and_g   ``FirstPassageLaw.phi``, ``.q`` and ``.q_and_g`` on it
    price_batch       ``cds._price_batch`` on the 40 cells
    spread_table      ``cds.spread_table`` on the grid
    cds_spread_T1     one ``cds_spread`` of the benchmark cell at T = 1,
    cds_spread_T10    and at T = 10
    cli_parse_table1  ``cli.build_parser`` of the command plus ``parse_args``,
    cli_parse_curve   as ``mfcev.cli.main`` does, on ``table1`` and on a
                      41-point, 3-series ``curve`` argv

Monte-Carlo layers, in requested path-steps (paths x steps) per second:

    draw          the normals alone, one stream on one core, as a block
                  draws them: per step standard_normal(ceil(paths / 2))
                  from block 0's generator, ``mc.block_generator(seed, 0)``,
                  and their antithetic negation into the rest of the paths
    step          the seconds inside the wrapped ``_mc_fallback.step_paths``
                  during a simulation, summed over every block's calls
    simulate_fpt  the whole simulation, unwrapped
    estimators    (in paths per second) ``default_probability_estimate`` and
                  ``spread_estimate`` on that simulation's default times, at
                  the contract ``mfcev validate`` prices (T = 2, recovery
                  0.5, two payments a year)

``blocks`` and ``workers`` count the distinct state buffers and threads that
the wrapped step kernel saw, and ``live_path_steps`` sums its ``n_alive``
argument, the paths alive before each step; the kernel steps every path's
slot, absorbed ones included.  ``simulate_fpt_over_draw`` is the ratio of
the two medians: 1 or more on one block, where one core draws and steps,
and below 1 where several cores share the draws.

Each stack runs ``--repeat`` rounds after a warm-up; a round times each
layer in turn, an analytic one as the mean of ``--inner`` back-to-back
calls and a Monte-Carlo one as one call.  Each figure is the median of the
rounds.  Run as

    python benchmarks/bench_layers.py [--repeat N] [--inner N] [--paths N]
                                      [--steps N] [--seed N] [--json]
"""

import argparse
import contextlib
import json
import os
import platform
import statistics
import sys
import threading
import time
from pathlib import Path
from typing import NamedTuple
from unittest import mock

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import numpy as np
import scipy
from scipy.special import gammainc, gammaincc

from mfcev import _mc_fallback, cds, cli, mc
from mfcev.cds import CdsContract, cds_spread, spread_table
from mfcev.cli import TABLE1_ALPHAS, TABLE1_BETA_HURST, TABLE1_MATURITIES
from mfcev.core import Q_SPLIT_U, FirstPassageLaw, ModelParams
from mfcev.mc import McConfig, default_probability_estimate, simulate_fpt, spread_estimate

#: the engine functions the harness wraps: name -> (owner, attribute)
TARGETS = {
    "price_batch": (cds, "_price_batch"),
    "q_and_g": (FirstPassageLaw, "q_and_g"),
    "step": (_mc_fallback, "step_paths"),
}

#: the benchmark cell
CELL = ModelParams(r=0.05, sigma0=0.2, alpha=-2.0, beta=0.5, hurst=0.8, s0=50.0)
RECOVERY = 0.5
#: the contract ``mfcev validate`` prices, simulated to its maturity
CONTRACT = CdsContract(maturity=2.0, recovery=RECOVERY, payments_per_year=2)
#: command lines of the shapes the table1 and curve ops pass
TABLE1_ARGV = ["table1"]
CURVE_ARGV = ["curve", "--alpha=-2.0", "--sigma0=0.2", "--rate=0.05", "--tmax=10.0",
              "--points=41", "--series=0.0", "--series=0.5:0.8", "--series=1.0:0.9"]


class Call(NamedTuple):
    args: tuple
    seconds: float
    thread: int


@contextlib.contextmanager
def recorded(*names):
    """Wrap the named ``TARGETS``; yield name -> the list of their calls."""
    calls = {name: [] for name in names}
    with contextlib.ExitStack() as stack:
        for name in names:
            owner, attribute = TARGETS[name]

            # the blocks step on several threads; list.append is atomic
            def wrapper(*args, _original=getattr(owner, attribute), _calls=calls[name]):
                start = time.perf_counter()
                try:
                    return _original(*args)
                finally:
                    _calls.append(Call(args, time.perf_counter() - start,
                                       threading.get_ident()))

            stack.enter_context(mock.patch.object(owner, attribute, wrapper))
        yield calls


def seconds(func, calls: int = 1):
    """A layer that runs ``func`` ``calls`` times and returns the mean seconds per call."""
    def layer() -> float:
        start = time.perf_counter()
        for _ in range(calls):
            func()
        return (time.perf_counter() - start) / calls
    return layer


def rounds(layers: dict, repeat: int) -> dict:
    """Each layer's seconds in each of ``repeat`` rounds, after a warm-up call."""
    runs = {name: [] for name in layers}
    for layer in layers.values():
        layer()
    for _ in range(repeat):
        for name, layer in layers.items():
            runs[name].append(layer())
    return runs


def run_table1():
    return spread_table(CELL.r, CELL.sigma0, TABLE1_ALPHAS, TABLE1_BETA_HURST,
                        TABLE1_MATURITIES, recovery=RECOVERY)


def cli_parse(argv: list[str]):
    """``build_parser`` plus ``parse_args``, as ``mfcev.cli.main`` runs them."""
    return cli.build_parser(argv[0]).parse_args(argv)


def analytic_layers() -> tuple[dict, dict]:
    """The timed callables of the analytic stack, and the table1 batch's counts."""
    with recorded("price_batch", "q_and_g") as calls:
        run_table1()
    (kernel_args, _, _), = calls["price_batch"]
    batch = [call.args for call in calls["q_and_g"]]
    low, high = [], []
    for law, t in batch:
        s, u = np.broadcast_arrays(law.s, 1.0 / law.phi(t))
        band = u < Q_SPLIT_U
        low.append((s[band], u[band]))
        high.append((s[~band], u[~band]))
    t1, t10 = (CdsContract(maturity=maturity, recovery=RECOVERY) for maturity in (1.0, 10.0))
    layers = {
        "gammaincc_low": lambda: [gammaincc(s, u) for s, u in low],
        "gammaincc_high": lambda: [gammaincc(s, u) for s, u in high],
        "complement_low": lambda: [1.0 - gammainc(s, u) for s, u in low],
        "phi": lambda: [law.phi(t) for law, t in batch],
        "q": lambda: [law.q(t) for law, t in batch],
        "q_and_g": lambda: [law.q_and_g(t) for law, t in batch],
        "price_batch": lambda: cds._price_batch(*kernel_args),
        "spread_table": run_table1,
        "cds_spread_T1": lambda: cds_spread(t1, CELL),
        "cds_spread_T10": lambda: cds_spread(t10, CELL),
        "cli_parse_table1": lambda: cli_parse(TABLE1_ARGV),
        "cli_parse_curve": lambda: cli_parse(CURVE_ARGV),
    }
    nodes = {"q_and_g_calls": len(batch),
             "low": int(sum(u.size for _, u in low)),
             "high": int(sum(u.size for _, u in high))}
    return layers, nodes


def mc_layers(cfg: McConfig) -> tuple[dict, dict]:
    """The Monte-Carlo layers, each returning its seconds, and the step
    kernel's counts over one simulation."""
    with recorded("step") as calls:
        simulate_fpt(CELL, cfg)
    # the state, the first argument, is one slice of the paths per block
    counts = {"blocks": len({call.args[0].__array_interface__["data"][0]
                             for call in calls["step"]}),
              "workers": len({call.thread for call in calls["step"]}),
              "live_path_steps": sum(call.args[-1] for call in calls["step"])}

    def draw():
        rng = mc.block_generator(cfg.seed, 0)
        z = np.empty(cfg.n_paths)
        h = -(-cfg.n_paths // 2)
        for _ in range(cfg.n_steps):
            rng.standard_normal(out=z[:h])
            np.negative(z[:cfg.n_paths - h], out=z[h:])

    def step():
        with recorded("step") as calls:
            simulate_fpt(CELL, cfg)
        return sum(call.seconds for call in calls["step"])

    # the estimators read the default times of the round's simulation
    simulated = [None]

    def simulation():
        simulated[0] = simulate_fpt(CELL, cfg)

    def estimators():
        default_probability_estimate(simulated[0])
        spread_estimate(simulated[0], CELL, CONTRACT)

    layers = {"draw": seconds(draw), "step": step, "simulate_fpt": seconds(simulation),
              "estimators": seconds(estimators)}
    return layers, counts


def measure(repeat: int, inner: int, cfg: McConfig) -> dict:
    # one stack after the other, so that neither evicts the other's data from
    # the caches between a round's layers
    analytic, nodes = analytic_layers()
    runs = rounds({name: seconds(func, inner) for name, func in analytic.items()}, repeat)
    monte_carlo, counts = mc_layers(cfg)
    runs.update(rounds(monte_carlo, repeat))
    median = {name: statistics.median(times) for name, times in runs.items()}

    work = cfg.n_paths * cfg.n_steps

    def mc_layer(name, per="path_steps", count=work):
        return {"s": median[name], f"{per}_per_s": count / median[name],
                "runs_s": [round(t, 6) for t in runs[name]]}

    return {
        "analytic": {
            "band_u": Q_SPLIT_U, "nodes": nodes,
            "ms": {name: 1e3 * median[name] for name in analytic},
            "runs_ms": {name: [round(1e3 * t, 5) for t in runs[name]] for name in analytic},
        },
        "mc": {
            "requested_path_steps": work,
            "blocks": counts["blocks"], "workers": counts["workers"],
            "draw": mc_layer("draw"),
            "step": {**mc_layer("step"), "live_path_steps": counts["live_path_steps"]},
            "simulate_fpt": mc_layer("simulate_fpt"),
            "estimators": mc_layer("estimators", "paths", cfg.n_paths),
            "simulate_fpt_over_draw": median["simulate_fpt"] / median["draw"],
        },
        "meta": {"repeat": repeat, "inner": inner, "paths": cfg.n_paths,
                 "steps": cfg.n_steps, "seed": cfg.seed,
                 "python": platform.python_version(), "numpy": np.__version__,
                 "scipy": scipy.__version__, "nproc": os.cpu_count()},
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--repeat", type=int, default=5)
    parser.add_argument("--inner", type=int, default=20)
    parser.add_argument("--paths", type=int, default=100_000)
    parser.add_argument("--steps", type=int, default=100)
    parser.add_argument("--seed", type=int, default=12345)
    parser.add_argument("--json", action="store_true", help="print one JSON object")
    args = parser.parse_args()

    cfg = McConfig(n_paths=args.paths, n_steps=args.steps, horizon=CONTRACT.maturity,
                   seed=args.seed)
    result = measure(args.repeat, args.inner, cfg)
    if args.json:
        print(json.dumps(result))
        return 0
    analytic, monte_carlo = result["analytic"], result["mc"]
    print(f"table1 batch, u split at {Q_SPLIT_U:g}: {analytic['nodes']} "
          f"(median of {args.repeat} x {args.inner})")
    for name, ms in analytic["ms"].items():
        print(f"  {name:<16} : {ms:8.3f} ms")
    print(f"{cfg.n_paths} paths x {cfg.n_steps} steps: blocks={monte_carlo['blocks']}  "
          f"workers={monte_carlo['workers']}  "
          f"live path-steps={monte_carlo['step']['live_path_steps']} (median of {args.repeat})")
    for name, per in (("draw", "path_steps"), ("step", "path_steps"),
                      ("simulate_fpt", "path_steps"), ("estimators", "paths")):
        r = monte_carlo[name]
        print(f"  {name:<16} : {1e3 * r['s']:8.3f} ms   {r[f'{per}_per_s'] / 1e6:7.1f} M {per}/s")
    print(f"  simulate_fpt / draw: {monte_carlo['simulate_fpt_over_draw']:.3f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
