"""Command-line front end: the subcommands spread, table1, curve and validate.

``_COMMANDS`` declares each subcommand once: its help text, and each flag
it reads with that flag's status (required, a default value, or None).
All configuration comes from flags, optionally seeded from a flat
``key = value`` scenario file (explicit flags win over the file, the file
over the defaults).  CSV output uses a header row, comma separators, ``.``
decimals and LF line endings.

Exit codes: 0 success, 1 Monte-Carlo validation failure, 2 usage or
parameter error, or a scenario or output file that cannot be read or
written, 3 numerical failure (any ArithmeticError: a NumericalError, or a
float operation that overflowed).
"""

from __future__ import annotations

import argparse
import math
import sys
from dataclasses import dataclass
from typing import Callable

from .cds import CdsContract, cds_spread, default_curve, spread_table
from .core import ModelParams, default_probability
from .errors import NumericalError, ParameterError
from . import mc

#: the benchmark grid: beta, hurst (None on the classical rows)
TABLE1_BETA_HURST = [(0.0, None), (0.5, 0.8), (0.5, 0.9), (1.0, 0.8), (1.0, 0.9)]
TABLE1_ALPHAS = [0.0, -2.0]
TABLE1_MATURITIES = [1.0, 2.0, 5.0, 10.0]

_Z_LIMIT = 4.0
#: the status of a flag the command cannot run without
_REQUIRED = object()

#: every flag: its parser and help text
_FLAGS = {
    "alpha": (float, "elasticity exponent (< 2)"),
    "beta": (float, "fractional mixing weight (>= 0)"),
    "hurst": (float, "Hurst exponent in (3/4, 1)"),
    "sigma0": (float, "volatility scale per sqrt(year)"),
    "rate": (float, "risk-free rate per year"),
    "s0": (float, "initial price"),
    "recovery": (float, "recovery rate in [0, 1]"),
    "maturity": (float, "contract maturity in years"),
    "freq": (int, "premium payments per year"),
    "tmax": (float, "curve horizon in years"),
    "points": (int, "number of curve samples (>= 2)"),
    "paths": (int, "Monte-Carlo path count"),
    "steps": (int, "Monte-Carlo time steps"),
    "seed": (int, "Monte-Carlo master seed"),
    "precision": (int, "override output precision"),
    "output": (str, "write CSV here instead of stdout"),
    "maturities": (str, "comma-separated maturity list"),
    "series": (str, "curve series BETA[:HURST]; repeatable"),
}


@dataclass(frozen=True)
class _Command:
    """One subcommand: its help text and entry point, and each flag it reads
    mapped to its status: _REQUIRED, or its value when neither the flag nor
    the scenario file sets it (None if it has no default)."""

    help: str
    run: Callable[[dict], int]
    flags: dict


def _add_flags(sub: argparse.ArgumentParser, names) -> None:
    for name in names:
        parse, help_text = _FLAGS[name]
        kwargs = {"type": parse, "help": help_text, "default": None}
        if name == "series":
            kwargs["action"] = "append"
        sub.add_argument(f"--{name}", **kwargs)
    sub.add_argument("--scenario", type=str, default=None,
                     help="flat key = value file supplying defaults for the flags")


def _parse_scenario(path: str, allowed) -> dict:
    """Read a flat scenario file; reject keys the command does not accept."""
    values: dict = {}
    with open(path, encoding="utf-8") as handle:
        lines = handle.readlines()
    for lineno, raw in enumerate(lines, start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ParameterError("scenario",
                                 f"{path}:{lineno}: expected 'key = value', got {line!r}")
        key, _, value = line.partition("=")
        key, value = key.strip(), value.strip()
        if key not in allowed:
            raise ParameterError("scenario",
                                 f"{path}:{lineno}: unknown key {key!r} "
                                 f"(accepted: {', '.join(allowed)})")
        try:
            if key == "series":
                values[key] = [part.strip() for part in value.split(",") if part.strip()]
            else:
                values[key] = _FLAGS[key][0](value)
        except ValueError as exc:
            raise ParameterError(key, f"{path}:{lineno}: bad value for {key}: {value!r}") from exc
    return values


def _merge(args: argparse.Namespace, command: _Command) -> dict:
    """Resolve each flag as: explicit flag > scenario entry > command default."""
    scenario = _parse_scenario(args.scenario, command.flags) if args.scenario else {}
    merged = {}
    for name, status in command.flags.items():
        value = getattr(args, name)
        if value is None:
            value = scenario.get(name, status)
        if value is _REQUIRED:
            raise ParameterError(name, f"missing required parameter --{name}")
        merged[name] = value
    if merged["precision"] is not None and merged["precision"] < 0:
        raise ParameterError("precision", f"precision must be >= 0, got {merged['precision']}")
    return merged


def _model_params(merged: dict, **given) -> ModelParams:
    """The model parameters of the flags, with ``given`` in place of theirs."""
    flags = {**merged, **given}
    return ModelParams(r=flags["rate"], sigma0=flags["sigma0"], alpha=flags["alpha"],
                       beta=flags["beta"], hurst=flags["hurst"], s0=flags["s0"])


def _fmt_bps(value: float, precision: int | None) -> str:
    return f"{value:.{4 if precision is None else precision}f}"


def _fmt_prob(value: float, precision: int | None) -> str:
    return f"{value:.{6 if precision is None else precision}g}"


def _emit(lines: list[str], output: str | None) -> None:
    text = "\n".join(lines) + "\n"
    if output is None:
        sys.stdout.write(text)
    else:
        with open(output, "w", encoding="utf-8", newline="\n") as handle:
            handle.write(text)


def cmd_spread(merged: dict) -> int:
    params = _model_params(merged)
    contract = CdsContract(maturity=merged["maturity"], recovery=merged["recovery"],
                           payments_per_year=merged["freq"])
    print(_fmt_bps(cds_spread(contract, params), merged["precision"]))
    return 0


def cmd_table1(merged: dict) -> int:
    maturities = TABLE1_MATURITIES
    if merged["maturities"] is not None:
        try:
            maturities = [float(tok) for tok in str(merged["maturities"]).split(",") if tok.strip()]
        except ValueError as exc:
            raise ParameterError("maturities",
                                 f"bad maturity list {merged['maturities']!r}") from exc
        if not maturities:
            raise ParameterError("maturities", "maturity list is empty")
    base = _model_params(merged, alpha=0.0, beta=0.0, hurst=0.8)
    cells = spread_table(base, TABLE1_ALPHAS, TABLE1_BETA_HURST, maturities,
                         recovery=merged["recovery"], payments_per_year=merged["freq"])
    lines = ["beta,hurst,alpha,maturity,spread_bps"]
    for cell in cells:
        if cell.error is not None:
            raise NumericalError(f"table cell (beta={cell.beta}, hurst={cell.hurst}, "
                                 f"alpha={cell.alpha}, T={cell.maturity}) failed: {cell.error}")
        hurst = "-" if cell.hurst is None else f"{cell.hurst:g}"
        lines.append(f"{cell.beta:g},{hurst},{cell.alpha:g},{cell.maturity:g},"
                     f"{_fmt_bps(cell.spread_bps, merged['precision'])}")
    _emit(lines, merged["output"])
    return 0


def _parse_series(tokens: list[str]) -> list[tuple[float, float | None]]:
    series = []
    for token in tokens:
        beta_part, sep, hurst_part = token.partition(":")
        try:
            beta = float(beta_part)
            hurst = None if not sep or hurst_part in ("", "-") else float(hurst_part)
        except ValueError as exc:
            raise ParameterError("series",
                                 f"bad series {token!r}; expected BETA[:HURST]") from exc
        series.append((beta, hurst))
    return series


def cmd_curve(merged: dict) -> int:
    if merged["series"]:
        series = _parse_series(list(merged["series"]))
    elif merged["beta"] is None:
        # --beta is required only without --series
        raise ParameterError("beta", "missing required parameter --beta")
    else:
        series = [(merged["beta"], merged["hurst"])]

    columns = []
    labels = []
    for beta, hurst in series:
        if hurst is None and beta != 0.0:
            raise ParameterError("hurst", f"series beta={beta:g} needs a Hurst exponent")
        params = _model_params(merged, beta=beta, hurst=hurst if hurst is not None else 0.8)
        points = default_curve(params, merged["tmax"], merged["points"])
        labels.append(f"q_b{beta:g}" if hurst is None else f"q_b{beta:g}_H{hurst:g}")
        columns.append(points)

    header_cols = labels if merged["series"] else ["q"]
    lines = ["t," + ",".join(header_cols)]
    for i in range(merged["points"]):
        t = columns[0][i].t
        row = [f"{t:.10g}"]
        row += [_fmt_prob(col[i].q, merged["precision"]) for col in columns]
        lines.append(",".join(row))
    _emit(lines, merged["output"])
    return 0


def cmd_validate(merged: dict) -> int:
    params = _model_params(merged)
    contract = CdsContract(maturity=merged["maturity"], recovery=merged["recovery"],
                           payments_per_year=merged["freq"])
    cfg = mc.McConfig(n_paths=merged["paths"], n_steps=merged["steps"],
                      horizon=merged["maturity"], seed=merged["seed"])

    # the analytic side first, so inputs beyond the double range fail before simulating
    analytic_q = default_probability(merged["maturity"], params)
    analytic_spread = cds_spread(contract, params)
    # one simulation to the maturity feeds both estimators
    default_time = mc.simulate_fpt(params, cfg)
    mc_q = mc.default_probability_estimate(default_time)
    # with no default (or no survivor) the binomial standard error is 0;
    # the standard error under the null hypothesis, sqrt(Q (1-Q) / n), is not
    null_std_error = math.sqrt(analytic_q * (1.0 - analytic_q) / mc_q.n_paths)
    std_error = mc_q.std_error if mc_q.std_error > 0.0 else null_std_error
    z = ((mc_q.estimate - analytic_q) / std_error
         if std_error > 0.0 else 0.0 if mc_q.estimate == analytic_q else float("inf"))

    mc_spread = mc.spread_estimate(default_time, params, contract)

    p = merged["precision"]
    print(f"analytic_q {_fmt_prob(analytic_q, p)}")
    print(f"mc_q {_fmt_prob(mc_q.estimate, p)}")
    print(f"mc_q_std_error {_fmt_prob(mc_q.std_error, p)}")
    print(f"z_score {z:.{2 if p is None else p}f}")
    print(f"analytic_spread_bps {_fmt_bps(analytic_spread, p)}")
    print(f"mc_spread_bps {_fmt_bps(mc_spread.estimate, p)}")
    print(f"mc_spread_std_error_bps {_fmt_bps(mc_spread.std_error, p)}")
    if abs(z) <= _Z_LIMIT:
        print(f"result PASS (|z| <= {_Z_LIMIT:g})")
        return 0
    print(f"result FAIL (|z| > {_Z_LIMIT:g})")
    return 1


_COMMANDS = {
    "spread": _Command("price one CDS spread (bps)", cmd_spread, {
        "alpha": _REQUIRED, "beta": _REQUIRED, "hurst": _REQUIRED, "sigma0": _REQUIRED,
        "rate": _REQUIRED, "s0": 50.0, "recovery": _REQUIRED, "maturity": _REQUIRED,
        "freq": 2, "precision": None}),
    "table1": _Command("benchmark spread grid as CSV", cmd_table1, {
        "sigma0": 0.2, "rate": 0.05, "recovery": 0.5, "s0": 50.0, "freq": 2,
        "maturities": None, "precision": None, "output": None}),
    "curve": _Command("default-probability curve(s) as CSV", cmd_curve, {
        "alpha": _REQUIRED, "sigma0": _REQUIRED, "rate": _REQUIRED, "s0": 50.0,
        "beta": None, "hurst": None, "tmax": _REQUIRED, "points": _REQUIRED,
        "series": None, "precision": None, "output": None}),
    "validate": _Command("Monte-Carlo vs analytic report", cmd_validate, {
        "alpha": _REQUIRED, "beta": _REQUIRED, "hurst": _REQUIRED, "sigma0": _REQUIRED,
        "rate": _REQUIRED, "s0": 50.0, "recovery": 0.5, "maturity": _REQUIRED, "freq": 2,
        "paths": _REQUIRED, "steps": _REQUIRED, "seed": _REQUIRED, "precision": None}),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mfcev",
        description="Default probabilities and CDS spreads under the "
                    "mixed-fractional CEV model.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, command in _COMMANDS.items():
        _add_flags(sub.add_parser(name, help=command.help), command.flags)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    command = _COMMANDS[args.command]
    try:
        return command.run(_merge(args, command))
    except ParameterError as exc:
        print(f"error: invalid parameter '{exc.constraint}': {exc}", file=sys.stderr)
        return 2
    except ArithmeticError as exc:
        # NumericalError, and the OverflowError / ZeroDivisionError /
        # FloatingPointError of a float operation that left the double range
        print(f"error: numerical failure: {exc}", file=sys.stderr)
        return 3
    except (OSError, ValueError) as exc:
        # a scenario or output file that cannot be read or written, or a bad value
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
