"""Smoke test of the benchmark harness: every workload still runs end to end.

Each case runs ``perfbench/run.py`` for half a second from the repository
root, as the benchmark itself is run, and reads the JSON summary on the
last line of its output.  A fast check reads the harness's source instead:
every package name it imports, and the step kernel it traces, must exist.
Another loads the oracle file that the harness loads, as it loads it, and
another resolves the command lines of each workload's first ops as the CLI
does.
"""

import ast
import importlib
import importlib.util
import itertools
import json
import subprocess
import sys
from pathlib import Path

import pytest

from mfcev import cli

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


def test_loading_the_oracles_leaves_mpmath_unloaded():
    # perfbench loads tests/reference.py for its checks; the oracles that
    # need mpmath import it themselves, so it stays out of the peak RSS
    code = ("import importlib.util, sys\n"
            "spec = importlib.util.spec_from_file_location('reference', sys.argv[1])\n"
            "spec.loader.exec_module(importlib.util.module_from_spec(spec))\n"
            "print('mpmath' in sys.modules)\n")
    proc = subprocess.run([sys.executable, "-c", code, str(ROOT / "tests" / "reference.py")],
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "False\n"


def resolve(module, name):
    """The attribute or submodule ``name`` of ``module``, or None."""
    try:
        return getattr(importlib.import_module(module), name, None) or importlib.import_module(
            f"{module}.{name}")
    except ImportError:
        return None


def test_perfbench_names_resolve():
    # the harness reaches the package by name, so a rename that breaks it
    # fails here, not only in the slow smoke runs
    imported = [(path.name, node.module, alias.name)
                for path in sorted((ROOT / "perfbench").glob("*.py"))
                for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
                if isinstance(node, ast.ImportFrom) and node.module
                and node.module.split(".")[0] == "mfcev"
                for alias in node.names]
    assert imported
    assert [entry for entry in imported if resolve(*entry[1:]) is None] == []
    # the tracer skips a target it cannot find without a word, so the step
    # kernel it wraps must be where TARGETS says
    tracing = ast.parse((ROOT / "perfbench" / "tracing.py").read_text(encoding="utf-8"))
    targets = next(ast.literal_eval(node.value) for node in tracing.body
                   if isinstance(node, ast.Assign) and ast.unparse(node.targets[0]) == "TARGETS")
    assert ("mfcev._mc_fallback", "step_paths", "mc.step") in targets
    assert callable(resolve("mfcev._mc_fallback", "step_paths"))


def test_workload_command_lines_resolve(monkeypatch):
    # an op whose argv the CLI rejects counts as failed, so a flag's status
    # changed in cli would take the benchmark's ok_op_ratio to 0 unseen
    spec = importlib.util.spec_from_file_location("perfbench_workloads",
                                                  ROOT / "perfbench" / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    # its dataclasses look their module up by name
    monkeypatch.setitem(sys.modules, spec.name, workloads)
    spec.loader.exec_module(workloads)
    for workload in workloads.WORKLOADS.values():
        ops = itertools.islice(workload.make_ops(1, ROOT), max(workload.cycle, 3))
        for argv in [list(workload.first_call), *(op.argv for op in ops)]:
            args = cli.build_parser(argv[0]).parse_args(argv)
            assert cli._merge(args, cli._COMMANDS[args.command]), argv
