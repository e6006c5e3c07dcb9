#!/usr/bin/env python3
"""Time the analytic pricing stack layer by layer on the table1 batch.

The table1 batch is every (law, times) pair at which one ``spread_table``
over the paper's 40-cell grid (``mfcev table1``) evaluates Q and g, and
the cells it hands the kernel, recorded by wrapping
``FirstPassageLaw.q_and_g`` and ``cds._price_batch``.  The layers, in ms:

    gammaincc_low     scipy ``gammaincc(s, u)`` on the batch's nodes with
                      u = 1/phi < ``core.Q_SPLIT_U``
    gammaincc_high    the same on the nodes with u >= ``core.Q_SPLIT_U``
    complement_low    ``1 - gammainc(s, u)`` on the nodes below it
    phi               ``FirstPassageLaw.phi`` over the batch
    q                 ``FirstPassageLaw.q`` over the batch
    q_and_g           ``FirstPassageLaw.q_and_g`` over the batch
    price_batch       ``cds._price_batch`` on the 40 cells
    spread_table      ``cds.spread_table`` on the grid
    cds_spread_T1     one ``cds_spread`` of the fractional benchmark cell
    cds_spread_T10    (alpha = -2, beta = 0.5, H = 0.8) at T = 1 and T = 10
    cli_parse_table1  ``cli.build_parser`` of the command plus ``parse_args``,
    cli_parse_curve   as ``mfcev.cli.main`` does, on ``table1`` and on a
                      41-point, 3-series ``curve`` argv

Each figure is the median over ``--repeat`` rounds of the mean of
``--inner`` back-to-back calls; a round times every layer in turn.  Run as

    python benchmarks/bench_analytic.py [--repeat N] [--inner N] [--json]
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
import scipy
from scipy.special import gammainc, gammaincc

from mfcev import cds, cli
from mfcev.cds import CdsContract, cds_spread, spread_table
from mfcev.cli import TABLE1_ALPHAS, TABLE1_BETA_HURST, TABLE1_MATURITIES
from mfcev.core import Q_SPLIT_U, FirstPassageLaw, ModelParams

#: the table1 defaults of the CLI
BASE = ModelParams(r=0.05, sigma0=0.2, alpha=0.0, beta=0.0, hurst=None, s0=50.0)
RECOVERY = 0.5
#: the fractional benchmark cell
CELL = ModelParams(r=0.05, sigma0=0.2, alpha=-2.0, beta=0.5, hurst=0.8, s0=50.0)
#: command lines of the shapes the table1 and curve ops pass
TABLE1_ARGV = ["table1"]
CURVE_ARGV = ["curve", "--alpha=-2.0", "--sigma0=0.2", "--rate=0.05", "--tmax=10.0",
              "--points=41", "--series=0.0", "--series=0.5:0.8", "--series=1.0:0.9"]


def cli_parse(argv: list[str]):
    """``build_parser`` plus ``parse_args``, as ``mfcev.cli.main`` runs them."""
    return cli.build_parser(argv[0]).parse_args(argv)


def run_table1():
    return spread_table(BASE, TABLE1_ALPHAS, TABLE1_BETA_HURST, TABLE1_MATURITIES,
                        recovery=RECOVERY)


def record_batch():
    """The arguments of the kernel call and of every q_and_g call one table1 makes."""
    price_batch, q_and_g = cds._price_batch, FirstPassageLaw.q_and_g
    kernel, calls = [], []

    def recording_price_batch(params, contracts):
        kernel.append((params, contracts))
        return price_batch(params, contracts)

    def recording_q_and_g(self, t):
        calls.append((self, np.array(t)))
        return q_and_g(self, t)

    cds._price_batch, FirstPassageLaw.q_and_g = recording_price_batch, recording_q_and_g
    try:
        run_table1()
    finally:
        cds._price_batch, FirstPassageLaw.q_and_g = price_batch, q_and_g
    (params, contracts), = kernel
    return params, contracts, calls


def layers() -> tuple[dict, dict]:
    """The timed callables, and the node counts of the u bands."""
    params, contracts, calls = record_batch()
    low, high = [], []
    for law, t in calls:
        s, u = np.broadcast_arrays(law.s, 1.0 / law.phi(t))
        band = u < Q_SPLIT_U
        low.append((s[band], u[band]))
        high.append((s[~band], u[~band]))
    t1, t10 = CdsContract(maturity=1.0, recovery=RECOVERY), CdsContract(maturity=10.0,
                                                                      recovery=RECOVERY)
    timed = {
        "gammaincc_low": lambda: [gammaincc(s, u) for s, u in low],
        "gammaincc_high": lambda: [gammaincc(s, u) for s, u in high],
        "complement_low": lambda: [1.0 - gammainc(s, u) for s, u in low],
        "phi": lambda: [law.phi(t) for law, t in calls],
        "q": lambda: [law.q(t) for law, t in calls],
        "q_and_g": lambda: [law.q_and_g(t) for law, t in calls],
        "price_batch": lambda: cds._price_batch(params, contracts),
        "spread_table": run_table1,
        "cds_spread_T1": lambda: cds_spread(t1, CELL),
        "cds_spread_T10": lambda: cds_spread(t10, CELL),
        "cli_parse_table1": lambda: cli_parse(TABLE1_ARGV),
        "cli_parse_curve": lambda: cli_parse(CURVE_ARGV),
    }
    nodes = {"q_and_g_calls": len(calls),
             "low": int(sum(u.size for _, u in low)),
             "high": int(sum(u.size for _, u in high))}
    return timed, nodes


def measure(repeat: int, inner: int) -> dict:
    timed, nodes = layers()
    runs = {name: [] for name in timed}
    for func in timed.values():   # warm-up
        func()
    for _ in range(repeat):
        for name, func in timed.items():
            start = time.perf_counter()
            for _ in range(inner):
                func()
            runs[name].append(1e3 * (time.perf_counter() - start) / inner)
    return {
        "repeat": repeat, "inner": inner, "band_u": Q_SPLIT_U, "nodes": nodes,
        "ms": {name: statistics.median(r) for name, r in runs.items()},
        "runs_ms": {name: [round(x, 5) for x in r] for name, r in runs.items()},
        "meta": {"python": platform.python_version(), "numpy": np.__version__,
                 "scipy": scipy.__version__, "nproc": os.cpu_count()},
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--repeat", type=int, default=5)
    parser.add_argument("--inner", type=int, default=20)
    parser.add_argument("--json", action="store_true", help="print one JSON object")
    args = parser.parse_args()

    result = measure(args.repeat, args.inner)
    if args.json:
        print(json.dumps(result))
        return 0
    nodes = result["nodes"]
    print(f"table1 batch: {nodes['q_and_g_calls']} q_and_g calls, "
          f"{nodes['low']} nodes with u < {Q_SPLIT_U:g}, "
          f"{nodes['high']} with u >= {Q_SPLIT_U:g} "
          f"(median of {args.repeat} x {args.inner})")
    for name, ms in result["ms"].items():
        print(f"  {name:<16} : {ms:8.3f} ms")
    return 0


if __name__ == "__main__":
    sys.exit(main())
