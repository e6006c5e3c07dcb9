#!/usr/bin/env python3
"""mfcev benchmark: closed-loop CLI workloads with a separate traced run.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  One caller in this process runs ops (one
``mfcev`` CLI command each, through ``mfcev.cli.main``) back to back for S
seconds, checks every output outside the timed region, and prints each
metric as ``name value unit``.  The last line of standard output is one
JSON object: {"correct", "attempted", "failed", "metrics"}.  With
``--trace 0`` the metrics are the end-to-end metrics of BENCHMARK.json,
with ``--trace 1`` its per-layer metrics.  Run metadata is printed on the
``meta`` line and written, with the full result, under ``.perfbench_out/``.
"""

import os

# Pinned before numpy loads; set-up children inherit the pinning.
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse
import collections
import contextlib
import io
import json
import math
import platform
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"

#: fresh interpreters started per run to time set-up; the median is reported
SETUP_REPEATS = 9

#: end-to-end figures printed and recorded by every untraced run but left out
#: of BENCHMARK.json, so not bounded: the host switches between a fast and a
#: slow speed for minutes at a time, which moves a run's median and mean so
#: far that their spread between runs reaches the largest bound allowed
#: (README, "Steadiness"); the upper percentile op_tail_ms holds steady
REPORTED_ONLY = {"op_p50_ms": "ms", "work_per_s": "1/s"}

# The child times importing the CLI and its first call, from its first statement.
_SETUP_CHILD = r"""
import contextlib, io, json, sys, time
start = time.perf_counter()
import mfcev.cli
with contextlib.redirect_stdout(io.StringIO()):
    rc = mfcev.cli.main(json.loads(sys.argv[1]))
print(json.dumps({"rc": rc, "seconds": time.perf_counter() - start}))
"""


class BenchError(Exception):
    """The benchmark cannot run here; no result is printed."""


@dataclass
class OpResult:
    op: object
    seconds: float
    error: str | None   # None when the op succeeded and its output checked out
    wrong: bool         # output was produced but failed its check
    stdout: str         # kept only for labelled (validate) ops, for their z-scores


def run_op(cli, argv: list[str]) -> tuple[float, object, str | None, str, str]:
    """Run one CLI command in-process; time only the call itself."""
    out, err = io.StringIO(), io.StringIO()
    error = None
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        start = time.perf_counter()
        try:
            rc = cli.main(argv)
        except SystemExit as exc:
            rc = exc.code
        except Exception as exc:  # the op's failure, counted; the run goes on
            rc, error = None, f"{type(exc).__name__}: {exc}"
        seconds = time.perf_counter() - start
    return seconds, rc, error, out.getvalue(), err.getvalue()


def run_checked(cli, workload, op) -> OpResult:
    """Run one op and classify it; the check is not timed."""
    elapsed, rc, error, stdout, stderr = run_op(cli, op.argv)
    wrong = False
    if error is None and rc not in workload.allowed_rc:
        error = f"exit code {rc}: {stderr.strip()}"
    if error is None:
        try:
            reason = op.check(stdout)
        except Exception as exc:  # unreadable output is a wrong output
            reason = f"check raised {type(exc).__name__}: {exc}"
        if reason is not None:
            error, wrong = "wrong output: " + reason, True
    return OpResult(op, elapsed, error, wrong, stdout if op.label else "")


def rounds(workload, ops, seconds: float):
    """Ops until ``seconds`` have passed, always ending on a whole round."""
    deadline = time.perf_counter() + seconds
    count = 0
    for op in ops:
        if time.perf_counter() >= deadline and count % workload.cycle == 0:
            return
        count += 1
        yield op


def measure_setup(argv: tuple) -> list[float]:
    env = dict(os.environ, PYTHONPATH=str(SRC))
    samples = []
    for _ in range(SETUP_REPEATS):
        proc = subprocess.run([sys.executable, "-c", _SETUP_CHILD, json.dumps(list(argv))],
                              capture_output=True, text=True, env=env, cwd=ROOT, timeout=120)
        if proc.returncode != 0:
            raise BenchError(f"set-up probe failed: {proc.stderr.strip()[-500:]}")
        report = json.loads(proc.stdout.strip().splitlines()[-1])
        if report["rc"] != 0:
            raise BenchError(f"set-up call {list(argv)} exited {report['rc']}")
        samples.append(report["seconds"])
    return samples


def tail(latencies: list[float], pct: float) -> tuple[float, int]:
    """Nearest-rank percentile and the number of samples above its rank."""
    ranked = sorted(latencies)
    rank = max(1, math.ceil(pct / 100.0 * len(ranked)))
    return ranked[rank - 1], len(ranked) - rank


def end_to_end(workload, results: list[OpResult], setup: list[float]) -> tuple[dict, dict]:
    latencies = [r.seconds for r in results]
    ok = [r for r in results if r.error is None]
    tail_s, beyond = tail(latencies, workload.tail_pct)
    metrics = {
        "setup_s": statistics.median(setup),
        "op_p50_ms": statistics.median(latencies) * 1e3,
        "op_tail_ms": tail_s * 1e3,
        "work_per_s": sum(r.op.work for r in ok) / sum(latencies),
        "ok_op_ratio": len(ok) / len(results),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    notes = {
        "op_p50_ms": "median",
        "op_tail_ms": f"p{workload.tail_pct:g} of {len(results)} ops, {beyond} beyond",
        "work_per_s": workload.work_name,
        "ok_op_ratio": f"failed_op_ratio {1.0 - metrics['ok_op_ratio']:.4f}",
        "setup_s": "median of " + ", ".join(f"{s:.4f}" for s in setup),
    }
    return metrics, notes


def draw_ceiling(paths: int, steps: int, seed: int) -> float:
    """Philox normals per second at the simulation's draw size, outside the package."""
    import numpy as np

    rng = np.random.Generator(np.random.Philox(seed))
    times = []
    for _ in range(3):
        start = time.perf_counter()
        for _ in range(steps):
            rng.standard_normal(paths)
        times.append(time.perf_counter() - start)
    return paths * steps / statistics.median(times)


def traced_run(cli, workload, ops, seconds: float, seed: int) -> tuple[list, dict, dict]:
    """Run each op traced, then again untraced; the difference is the tracing overhead."""
    import tracing
    import workloads
    from mfcev.core import default_probability

    tracer = tracing.Tracer()
    spread_times = []
    traced, untraced = [], []
    for op in rounds(workload, ops, seconds):
        with tracer.installed():
            traced.append(run_checked(cli, workload, op))
        with tracing.timed_spreads(spread_times):
            untraced.append(run_checked(cli, workload, op))

    metrics = tracing.layer_metrics(tracer, len(traced), spread_times, default_probability)
    traced_s = sum(r.seconds for r in traced)
    untraced_s = sum(r.seconds for r in untraced)
    metrics["trace.overhead_ms_per_op"] = (traced_s - untraced_s) / len(traced) * 1e3
    metrics["trace.overhead_ratio"] = traced_s / untraced_s - 1.0
    is_mc = workload.name == "mc-validate"
    metrics["mc.draw.ceiling_path_steps_per_s"] = (
        draw_ceiling(workloads.MC_PATHS, workloads.MC_STEPS, seed) if is_mc else 0.0)
    for label in workloads.MC_CONFIGS:
        z = [float(workloads.parse_validate(r.stdout)["z_score"])
             for r in traced if r.op.label == label and r.error is None]
        metrics[f"mc.z_score.{label}"] = z[-1] if z else 0.0
    tracer.write(OUT / f"spans-{workload.name}.npz")
    notes = {"trace.overhead_ms_per_op": f"{len(traced)} ops, each run traced then untraced"}
    return traced + untraced, metrics, notes


def run_probe(cli, workload, seed: int) -> dict:
    """Untimed full-domain ops, tallied by known defect: ``{tag: [ops, raised, wrong]}``."""
    tally = {}
    for op, defect in workload.make_probe(seed, ROOT):
        result = run_checked(cli, workload, op)
        counts = tally.setdefault(defect or "none", [0, 0, 0])
        counts[0] += 1
        counts[1] += result.error is not None and not result.wrong
        counts[2] += result.wrong
    return tally


def metadata(seed: int) -> dict:
    import numpy
    import scipy

    from mfcev.mc import have_compiled_kernel

    return {
        "mc_backend": "compiled" if have_compiled_kernel() else "numpy-fallback",
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "seed": seed,
        "threads": {var: os.environ[var] for var in THREAD_VARS},
    }


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    spec_path = ROOT / "BENCHMARK.json"
    if not (SRC / "mfcev" / "cli.py").is_file() or not spec_path.is_file():
        raise BenchError(f"no mfcev source tree under {ROOT}")
    spec = json.loads(spec_path.read_text())
    wanted = {m["name"]: m["unit"] for m in spec["per_layer" if args.trace else "end_to_end"]}

    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    import workloads

    if args.workload not in workloads.WORKLOADS:
        raise BenchError(f"unknown workload {args.workload!r}; "
                         f"choose from {', '.join(workloads.WORKLOADS)}")
    workload = workloads.WORKLOADS[args.workload]

    setup = None if args.trace else measure_setup(workload.first_call)
    from mfcev import cli

    meta = metadata(args.seed)
    print("meta " + json.dumps(meta, sort_keys=True))
    warm = run_op(cli, list(workload.first_call))
    if warm[1] != 0 or warm[2] is not None:
        raise BenchError(f"warm-up call failed: {warm[2] or warm[1]}")

    ops = workload.make_ops(args.seed, ROOT)
    if args.trace:
        results, metrics, notes = traced_run(cli, workload, ops, args.seconds, args.seed)
    else:
        results = [run_checked(cli, workload, op) for op in rounds(workload, ops, args.seconds)]
        metrics, notes = end_to_end(workload, results, setup)

    probe = run_probe(cli, workload, args.seed) if workload.make_probe else None

    reported = {name: metrics.pop(name) for name in REPORTED_ONLY if name in metrics}
    if set(metrics) != set(wanted):
        raise BenchError(f"metrics differ from BENCHMARK.json: "
                         f"missing {sorted(set(wanted) - set(metrics))}, "
                         f"extra {sorted(set(metrics) - set(wanted))}")
    failures = collections.Counter(r.error.split(":")[0] for r in results if r.error)
    for name, value in metrics.items():
        note = f"  ({notes[name]})" if name in notes else ""
        print(f"{name} {value!r} {wanted[name]}{note}")
    for name, value in reported.items():
        print(f"{name} {value!r} {REPORTED_ONLY[name]}  ({notes[name]}; reported, not bounded)")
    for kind, count in failures.most_common():
        print(f"failures {kind}: {count} of {len(results)} ops")
    if probe:
        print("probe, full domain, not scored: " + "; ".join(
            f"{tag} {n} ops, {raised} raised, {wrong} wrong"
            for tag, (n, raised, wrong) in sorted(probe.items())))

    result = {"correct": not any(r.wrong for r in results),
              "attempted": len(results),
              "failed": sum(1 for r in results if r.error),
              "metrics": {name: {"value": value, "unit": wanted[name]}
                          for name, value in metrics.items()}}
    OUT.mkdir(exist_ok=True)
    record = dict(result, reported=reported, meta=meta, notes=notes,
                  failures=dict(failures), probe=probe,
                  latencies_ms=[round(r.seconds * 1e3, 4) for r in results],
                  workload=workload.name, trace=args.trace, seconds=args.seconds)
    (OUT / f"{workload.name}-trace{args.trace}-seed{args.seed}.json").write_text(
        json.dumps(record, indent=1, sort_keys=True) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        sys.exit(2)
