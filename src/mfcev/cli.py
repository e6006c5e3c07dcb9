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
from .core import ALPHA_MIN, ModelParams, default_probability
from .errors import ParameterError
from . import mc

#: the benchmark grid: beta, hurst (None on the classical rows)
TABLE1_BETA_HURST = [(0.0, None), (0.5, 0.8), (0.5, 0.9), (1.0, 0.8), (1.0, 0.9)]
TABLE1_ALPHAS = [0.0, -2.0]
TABLE1_MATURITIES = [1.0, 2.0, 5.0, 10.0]

_Z_LIMIT = 4.0
#: characters in a scenario file: above the 2 MB of one listing 10^6 maturities,
#: and a file at the cap is read and parsed in at most about 100 MB
MAX_SCENARIO_CHARS = 4_000_000
#: curves of one ``mfcev curve``; each costs about 1 KB beyond its points
#: (its arrays, label and CSV column), so series at the cap take about 100 MB
MAX_CURVE_SERIES = 100_000
#: digits of --precision at most: a double's exact decimal expansion has at
#: most 1,074 fractional digits
MAX_PRECISION = 1100
#: the status of a flag the command cannot run without
_REQUIRED = object()

#: every flag: its parser and help text
_FLAGS = {
    "alpha": (float, f"elasticity exponent in [{ALPHA_MIN:g}, 2)"),
    "beta": (float, "fractional mixing weight (>= 0)"),
    "hurst": (float, "Hurst exponent in (3/4, 1); needed only when beta > 0"),
    "sigma0": (float, "volatility scale per sqrt(year)"),
    "rate": (float, "risk-free rate per year (>= 0)"),
    "recovery": (float, "recovery rate in [0, 1]"),
    "maturity": (float, "contract maturity in years"),
    "freq": (int, "premium payments per year"),
    "tmax": (float, "curve horizon in years"),
    "points": (int, "number of curve samples (>= 2)"),
    "paths": (int, "Monte-Carlo path count"),
    "steps": (int, "Monte-Carlo time steps"),
    "seed": (int, "Monte-Carlo master seed"),
    "precision": (int, f"override output precision, in [0, {MAX_PRECISION}] digits"),
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
    """Read a scenario file (``#`` starts a comment anywhere on a line); reject unknown keys."""
    values: dict = {}
    try:
        # utf-8-sig drops the byte-order mark an editor may write first
        with open(path, encoding="utf-8-sig") as handle:
            # one character past the cap, so a device or pipe of stat size 0
            # is caught as well
            text = handle.read(MAX_SCENARIO_CHARS + 1)
    except UnicodeDecodeError as exc:
        raise ParameterError("scenario", f"{path}: not UTF-8 text: {exc}") from exc
    if len(text) > MAX_SCENARIO_CHARS:
        raise ParameterError("scenario", f"{path}: more than {MAX_SCENARIO_CHARS} characters")
    for lineno, raw in enumerate(text.split("\n"), start=1):
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
    if merged["precision"] is not None and not 0 <= merged["precision"] <= MAX_PRECISION:
        raise ParameterError("precision", f"precision must lie in [0, {MAX_PRECISION}], "
                                          f"got {merged['precision']}")
    return merged


def _model_params(merged: dict, **given) -> ModelParams:
    """The model parameters of the flags, with ``given`` in place of theirs."""
    flags = {**merged, **given}
    return ModelParams(r=flags["rate"], sigma0=flags["sigma0"], alpha=flags["alpha"],
                       beta=flags["beta"], hurst=flags["hurst"])


def _contract(merged: dict) -> CdsContract:
    """The contract of the flags."""
    return CdsContract(maturity=merged["maturity"], recovery=merged["recovery"],
                       payments_per_year=merged["freq"])


def _fmt_bps(value: float, precision: int | None) -> str:
    return f"{value:.{4 if precision is None else precision}f}"


def _fmt_prob(value: float, precision: int | None) -> str:
    return f"{value:.{6 if precision is None else precision}g}"


def _label(value: float) -> str:
    """``value``'s shortest round-trip text less a trailing ``.0``: no two inputs share a label."""
    return repr(value).removesuffix(".0")


def _emit(lines: list[str], output: str | None) -> None:
    text = (f"{line}\n" for line in lines)
    if output is None:
        sys.stdout.writelines(text)
    else:
        with open(output, "w", encoding="utf-8", newline="\n") as handle:
            handle.writelines(text)


def cmd_spread(merged: dict) -> int:
    params = _model_params(merged)
    contract = _contract(merged)
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
    cells = spread_table(merged["rate"], merged["sigma0"], TABLE1_ALPHAS, TABLE1_BETA_HURST,
                         maturities, recovery=merged["recovery"], payments_per_year=merged["freq"])
    lines = ["beta,hurst,alpha,maturity,spread_bps"]
    for cell in cells:
        hurst = "-" if cell.hurst is None else _label(cell.hurst)
        lines.append(f"{_label(cell.beta)},{hurst},{_label(cell.alpha)},{_label(cell.maturity)},"
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
        if len(merged["series"]) > MAX_CURVE_SERIES:
            raise ParameterError("series", f"{len(merged['series'])} series exceed the cap "
                                           f"of {MAX_CURVE_SERIES}")
        series = _parse_series(list(merged["series"]))
    elif merged["beta"] is None:
        # --beta is required only without --series
        raise ParameterError("beta", "missing required parameter --beta")
    else:
        series = [(merged["beta"], merged["hurst"])]

    t, q = default_curve([_model_params(merged, beta=beta, hurst=hurst) for beta, hurst in series],
                         merged["tmax"], merged["points"])
    labels = ["q_b" + "_H".join(_label(v) for v in pair if v is not None) for pair in series]
    lines = ["t," + ",".join(labels if merged["series"] else ["q"])]
    for t_i, *qs in zip(t, *q):
        lines.append(",".join([f"{t_i:.10g}", *(_fmt_prob(v, merged["precision"]) for v in qs)]))
    _emit(lines, merged["output"])
    return 0


def _fmt_z(z: float, precision: int | None) -> str:
    """z to ``precision`` decimals (2 by default), with more decimals where the
    rounded value would lie on the other side of the |z| <= _Z_LIMIT verdict;
    the digits that round-trip the double end the loop."""
    digits = 2 if precision is None else precision
    while (abs(float(f"{z:.{digits}f}")) <= _Z_LIMIT) != (abs(z) <= _Z_LIMIT):
        digits += 1
    return f"{z:.{digits}f}"


def cmd_validate(merged: dict) -> int:
    params = _model_params(merged)
    contract = _contract(merged)
    # the premium leg runs to the last premium date, at or past the maturity
    horizon = contract.payment_times()[-1]
    cfg = mc.McConfig(n_paths=merged["paths"], n_steps=merged["steps"],
                      horizon=horizon, seed=merged["seed"])

    # the analytic side first, so a cell the kernel cannot price fails before simulating
    analytic_q = default_probability(horizon, params)
    analytic_spread = cds_spread(contract, params)
    # one simulation to the last premium date feeds both estimators
    default_time = mc.simulate_fpt(params, cfg)
    mc_q = mc.default_probability_estimate(default_time)
    # with no default (or no survivor) the standard error is 0; the binomial
    # one under the null hypothesis, sqrt(Q (1-Q) / n), is not
    null_std_error = math.sqrt(analytic_q * (1.0 - analytic_q) / mc_q.n_paths)
    std_error = mc_q.std_error if mc_q.std_error > 0.0 else null_std_error
    z = ((mc_q.estimate - analytic_q) / std_error
         if std_error > 0.0 else 0.0 if mc_q.estimate == analytic_q else float("inf"))

    mc_spread = mc.spread_estimate(default_time, params, contract)

    p = merged["precision"]
    print(f"analytic_q {_fmt_prob(analytic_q, p)}")
    print(f"mc_q {_fmt_prob(mc_q.estimate, p)}")
    print(f"mc_q_std_error {_fmt_prob(mc_q.std_error, p)}")
    print(f"z_score {_fmt_z(z, p)}")
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
        "alpha": _REQUIRED, "beta": _REQUIRED, "hurst": None, "sigma0": _REQUIRED,
        "rate": _REQUIRED, "recovery": _REQUIRED, "maturity": _REQUIRED, "freq": 2,
        "precision": None}),
    "table1": _Command("benchmark spread grid as CSV", cmd_table1, {
        "sigma0": 0.2, "rate": 0.05, "recovery": 0.5, "freq": 2, "maturities": None,
        "precision": None, "output": None}),
    "curve": _Command("default-probability curve(s) as CSV", cmd_curve, {
        "alpha": _REQUIRED, "sigma0": _REQUIRED, "rate": _REQUIRED, "beta": None,
        "hurst": None, "tmax": _REQUIRED, "points": _REQUIRED, "series": None,
        "precision": None, "output": None}),
    "validate": _Command("Monte-Carlo vs analytic report", cmd_validate, {
        "alpha": _REQUIRED, "beta": _REQUIRED, "hurst": None, "sigma0": _REQUIRED,
        "rate": _REQUIRED, "recovery": 0.5, "maturity": _REQUIRED, "freq": 2,
        "paths": _REQUIRED, "steps": _REQUIRED, "seed": _REQUIRED, "precision": None}),
}


def build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """The parser of every subcommand, with the flags of ``command`` only, or
    of every command when it is None; each flag costs argparse a formatter."""
    parser = argparse.ArgumentParser(
        prog="mfcev",
        description="Default probabilities and CDS spreads under the "
                    "mixed-fractional CEV model.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, spec in _COMMANDS.items():
        subparser = sub.add_parser(name, help=spec.help)
        if command in (None, name):
            _add_flags(subparser, spec.flags)
    return parser


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    args = build_parser(argv[0] if argv and argv[0] in _COMMANDS else None).parse_args(argv)
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
