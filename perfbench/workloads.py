"""The benchmark's three workloads: how each makes its ops and checks them.

One op is one ``mfcev`` CLI command, run in-process through
``mfcev.cli.main``.  A workload turns the seed into an endless, repeatable
stream of ops; each op carries the work it delivers when it succeeds and a
check of its printed output.  Checks run outside the timed region.
"""

from __future__ import annotations

import importlib.util
import math
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Iterator

from scipy.special import gammaincc

from mfcev.core import ModelParams, phi_quadrature

#: Monte-Carlo size of one validate op: about a second on the numpy fallback.
MC_PATHS = 100_000
MC_STEPS = 100
MC_MATURITY = 2.0

#: validate configs, cycled: the three criterion-7 sets plus a distressed set
#: whose paths mostly die (Q(2) ~ 0.57), so the live-path ratio differs.
MC_CONFIGS = {
    "classical": dict(alpha=0.0, beta=0.0, hurst=0.8, sigma0=0.2),
    "frac_alpha-2": dict(alpha=-2.0, beta=0.5, hurst=0.8, sigma0=0.2),
    "frac_beta1": dict(alpha=0.0, beta=1.0, hurst=0.9, sigma0=0.2),
    "distressed": dict(alpha=0.0, beta=1.0, hurst=0.9, sigma0=0.8),
}
MC_RATE = 0.05

#: curve sampling: one op is 2-3 series of this many points
CURVE_POINTS = 41

#: output is printed to 6 significant digits, so that is the match tolerance
CURVE_RTOL = 1e-5
#: values below this print as 0 or as a subnormal; both count as 0
CURVE_ATOL = 1e-300


@dataclass
class Op:
    """One CLI command with its check.

    ``work`` is what the op delivers to the user when it succeeds (spreads,
    default probabilities or requested path-steps).  ``check(stdout)``
    returns None when the output is right, else a one-line reason.
    """

    argv: list[str]
    work: int
    check: Callable[[str], str | None]
    label: str = ""


@dataclass(frozen=True)
class Workload:
    name: str
    #: the user-facing name of the workload's work_per_s
    work_name: str
    #: exit codes that are not failures
    allowed_rc: frozenset
    #: op_tail_ms percentile, fixed so that at least ten baseline samples lie beyond it
    tail_pct: float
    #: ops per round; a run measures whole rounds
    cycle: int
    #: small op of the same command, used for set-up and warm-up
    first_call: tuple
    make_ops: Callable[[int, Path], Iterator[Op]]
    #: untimed ops over the whole valid domain, each tagged with its known
    #: defect or None; run after the timed region and reported, not scored
    make_probe: Callable[[int, Path], Iterator[tuple[Op, str | None]]] | None = None


def load_reference(root: Path):
    """The repository's independent test oracles (``tests/reference.py``)."""
    path = root / "tests" / "reference.py"
    spec = importlib.util.spec_from_file_location("mfcev_test_reference", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _csv_rows(stdout: str) -> tuple[list[str], list[list[str]]]:
    lines = stdout.rstrip("\n").split("\n")
    return lines[0].split(","), [line.split(",") for line in lines[1:]]


# --------------------------------------------------------------- table1-grid

def _table1_ops(seed: int, root: Path) -> Iterator[Op]:
    # The grid is the paper's; it does not depend on the seed.
    ref = load_reference(root)
    n_cells = sum(len(cells) for cells in ref.TABLE1_BPS.values())

    def check(stdout: str) -> str | None:
        header, rows = _csv_rows(stdout)
        if header != ["beta", "hurst", "alpha", "maturity", "spread_bps"]:
            return f"bad header {header}"
        if len(rows) != n_cells:
            return f"{len(rows)} rows, expected {n_cells}"
        for beta, hurst, alpha, maturity, bps in rows:
            key = (float(beta), None if hurst == "-" else float(hurst))
            want = ref.TABLE1_BPS[key][(int(float(maturity)), int(float(alpha)))]
            got = float(bps)
            if not abs(got - want) <= ref.table1_tolerance(want):
                return f"cell {key} T={maturity} alpha={alpha}: {got} vs {want}"
        return None

    while True:
        yield Op(["table1"], n_cells, check)


# --------------------------------------------------------------- curve-sweep

def _draw_curve(rng: random.Random) -> dict:
    """Parameters over the whole domain ``validate()`` accepts."""
    if rng.random() < 0.5:
        alpha = rng.uniform(-5.0, 1.9)
    else:
        alpha = -10.0 ** rng.uniform(math.log10(5.0), 3.0)
    series = []
    for i in range(rng.randint(2, 3)):
        if i == 0 and rng.random() < 0.25:
            series.append((0.0, None))
            continue
        hurst = rng.uniform(0.75, 1.0)
        while not 0.75 < hurst < 1.0:
            hurst = rng.uniform(0.75, 1.0)
        series.append((rng.uniform(0.0, 3.0), hurst))
    return dict(alpha=alpha, sigma0=rng.uniform(0.05, 1.0), rate=rng.uniform(0.0, 2.0),
                tmax=10.0 ** rng.uniform(-3.0, 2.0), series=series,
                rows=(0, rng.randint(1, CURVE_POINTS - 2), CURVE_POINTS - 1))


def curve_oracle(q_params: dict, beta: float, hurst: float | None, t: float) -> float:
    """Q(t) = gammaincc(1 - xi, x0 / phi(t)), phi by quadrature, in units with s0 = 1.

    Q does not depend on s0, and with s0 = 1 the state x0 = s0^(2-alpha) is 1
    for every alpha, so the oracle cannot overflow where the program does.
    """
    if t == 0.0:
        return 0.0
    params = ModelParams(r=q_params["rate"], sigma0=q_params["sigma0"],
                         alpha=q_params["alpha"], beta=beta,
                         hurst=0.8 if hurst is None else hurst, s0=1.0)
    return float(gammaincc(1.0 / (2.0 - params.alpha), 1.0 / phi_quadrature(t, params)))


#: the CLI's default initial price, which the curve ops leave as it is
CURVE_S0 = 50.0
#: largest log-magnitude a curve op may ask the program to hold in a double;
#: the program overflows near 709 (the log of the largest double)
CURVE_LOG_LIMIT = 600.0


def known_defect(p: dict) -> str | None:
    """The known overflow (ROADMAP item 3) that parameters ``p`` run into, if any.

    - ``s0-power``: ``s0**(2-alpha)`` (the state x0 and delta^2) overflows,
      or comes so close that phi overflows to infinity and Q prints as 1;
    - ``kummer``: z = (2-alpha) r t reaches the range where the large-z
      Kummer expansion, or the Whittaker term of phi, overflows.
    """
    two_a = 2.0 - p["alpha"]
    if two_a * math.log(CURVE_S0) > CURVE_LOG_LIMIT:
        return "s0-power"
    if two_a * p["rate"] * p["tmax"] > CURVE_LOG_LIMIT:
        return "kummer"
    return None


def _curve_op(p: dict) -> Op:
    argv = ["curve", f"--alpha={p['alpha']!r}", f"--sigma0={p['sigma0']!r}",
            f"--rate={p['rate']!r}", f"--tmax={p['tmax']!r}",
            f"--points={CURVE_POINTS}"]
    for beta, hurst in p["series"]:
        argv.append(f"--series={beta!r}" if hurst is None else f"--series={beta!r}:{hurst!r}")

    def check(stdout: str) -> str | None:
        header, rows = _csv_rows(stdout)
        if len(header) != 1 + len(p["series"]) or len(rows) != CURVE_POINTS:
            return f"shape {len(header)} columns x {len(rows)} rows"
        for i in p["rows"]:
            t = float(rows[i][0])
            for j, (beta, hurst) in enumerate(p["series"]):
                got = float(rows[i][1 + j])
                want = curve_oracle(p, beta, hurst, t)
                if not abs(got - want) <= CURVE_RTOL * abs(want) + CURVE_ATOL:
                    return f"row {i} series {j}: Q={got!r}, oracle {want!r}"
        return None

    return Op(argv, CURVE_POINTS * len(p["series"]), check)


def _curve_ops(seed: int, root: Path) -> Iterator[Op]:
    """Draws of the whole valid domain, redrawn where a known defect lies."""
    rng = random.Random(seed)
    while True:
        p = _draw_curve(rng)
        if known_defect(p) is None:
            yield _curve_op(p)


#: full-domain draws the curve-sweep probe runs after the timed region
CURVE_PROBE_OPS = 200


def _curve_probe(seed: int, root: Path) -> Iterator[tuple[Op, str | None]]:
    """Untimed draws of the whole valid domain, each tagged with its known defect."""
    rng = random.Random(f"probe-{seed}")
    for _ in range(CURVE_PROBE_OPS):
        p = _draw_curve(rng)
        yield _curve_op(p), known_defect(p)


# --------------------------------------------------------------- mc-validate

_VALIDATE_KEYS = ("analytic_q", "mc_q", "mc_q_std_error", "z_score",
                  "analytic_spread_bps", "mc_spread_bps", "mc_spread_std_error_bps")

#: criterion-7 sets whose analytic spread is a TABLE1 cell at T = 2
_TABLE1_CELL = {"classical": ((0.0, None), (2, 0)),
                "frac_alpha-2": ((0.5, 0.8), (2, -2)),
                "frac_beta1": ((1.0, 0.9), (2, 0))}


def parse_validate(stdout: str) -> dict:
    values = {}
    for line in stdout.splitlines():
        key, _, value = line.partition(" ")
        values[key] = value
    return values


def _validate_check(label: str, ref) -> Callable[[str], str | None]:
    def check(stdout: str) -> str | None:
        values = parse_validate(stdout)
        try:
            nums = {key: float(values[key]) for key in _VALIDATE_KEYS}
        except (KeyError, ValueError):
            return f"unparsable report {stdout!r}"
        bad = [key for key, value in nums.items() if not math.isfinite(value)]
        if bad:
            return f"non-finite {bad}"
        if not (nums["mc_q_std_error"] > 0.0 and nums["mc_spread_std_error_bps"] > 0.0):
            return "a standard error is not positive"
        verdict = "PASS" if abs(nums["z_score"]) <= 4.0 else "FAIL"
        if not values.get("result", "").startswith(verdict):
            return f"verdict {values.get('result')!r} does not match z = {nums['z_score']}"
        if label in _TABLE1_CELL:
            series, cell = _TABLE1_CELL[label]
            want = ref.TABLE1_BPS[series][cell]
            if not abs(nums["analytic_spread_bps"] - want) <= ref.table1_tolerance(want):
                return f"analytic spread {nums['analytic_spread_bps']} vs TABLE1 {want}"
        return None
    return check


def _validate_argv(cfg: dict, paths: int, steps: int, seed: int) -> list[str]:
    return ["validate", f"--alpha={cfg['alpha']!r}", f"--beta={cfg['beta']!r}",
            f"--hurst={cfg['hurst']!r}", f"--sigma0={cfg['sigma0']!r}",
            f"--rate={MC_RATE!r}", f"--maturity={MC_MATURITY!r}",
            f"--paths={paths}", f"--steps={steps}", f"--seed={seed}"]


def _mc_ops(seed: int, root: Path) -> Iterator[Op]:
    # Every config runs on the workload seed, so all four share their draws;
    # the CLI takes a 64-bit unsigned seed.
    ref = load_reference(root)
    ops = [Op(_validate_argv(cfg, MC_PATHS, MC_STEPS, seed % 2 ** 64), MC_PATHS * MC_STEPS,
              _validate_check(label, ref), label=label)
           for label, cfg in MC_CONFIGS.items()]
    while True:
        yield from ops


WORKLOADS = {
    "table1-grid": Workload(
        "table1-grid", "spreads_per_s", frozenset({0}), 90.0, 1,
        ("table1", "--maturities=1"), _table1_ops),
    "curve-sweep": Workload(
        "curve-sweep", "q_evals_per_s", frozenset({0}), 99.0, 1,
        ("curve", "--alpha=-2", "--sigma0=0.2", "--rate=0.05", "--tmax=1",
         "--points=2", "--series=0.5:0.8"), _curve_ops, _curve_probe),
    "mc-validate": Workload(
        "mc-validate", "mc_path_steps_per_s", frozenset({0, 1}), 65.0, len(MC_CONFIGS),
        tuple(_validate_argv(MC_CONFIGS["frac_beta1"], 1000, 10, 1)), _mc_ops),
}
