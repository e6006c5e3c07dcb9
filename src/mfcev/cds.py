"""Credit default swap legs, equilibrium spreads, and batch tabulation.

The protection leg pays (1-R) at the default time if it occurs before
maturity; the premium leg pays the running spread at each payment date the
reference is still alive (no accrual for a default between payment dates).
The equilibrium spread equates the two legs at inception.

Every spread and annuity goes through one batched kernel, ``_price_batch``.
For a batch of (params, contract) cells it evaluates Q and g on
Gauss-Legendre panels equal in ln t from ``FirstPassageLaw.onset`` to T, in
one array pass that also covers Q(T) and the premium dates (``_schedule``).
One convergence test, applied at every doubling of the panels, estimates
each cell's quadrature error; only the cells that miss it are refined.
``spread_table`` feeds the kernel BATCH_CELLS cells at a time; every other
caller prices one cell.  ``ModelParams`` and ``CdsContract`` check themselves.
"""

from __future__ import annotations

import dataclasses
import functools
import math
from dataclasses import dataclass

import numpy as np

from .core import FirstPassageLaw, ModelParams
from .errors import NumericalError, ParameterError, QuadratureError

#: relative agreement required between the two protection-leg evaluations
_LEG_AGREEMENT_RTOL = 1e-8

#: quadrature tolerance: a leg integral I is accepted when its error
#: estimate is at most max(EPSREL |I|, EPSABS)
EPSREL = 1e-10
EPSABS = 1e-16

#: Gauss-Legendre nodes per panel
GL_ORDER = 16
#: panels of the coarsest mesh; every refinement doubles them
BASE_PANELS = 4
#: refinement stops here; a cell still above tolerance raises QuadratureError
MAX_PANELS = 1024
#: cells per array pass, which bounds the memory a long grid takes
BATCH_CELLS = 256


@dataclass(frozen=True)
class CdsContract:
    """Plain-vanilla CDS terms: maturity in years, recovery fraction,
    notional, and number of premium payments per year (accrual fraction
    1/payments_per_year each)."""

    maturity: float
    recovery: float
    notional: float = 1.0
    payments_per_year: int = 2

    def __post_init__(self):
        if not 0.0 < self.maturity < math.inf:
            raise ParameterError("maturity",
                                 f"maturity must be finite and > 0, got {self.maturity}")
        if not 0.0 <= self.recovery <= 1.0:
            raise ParameterError("recovery", f"recovery must lie in [0, 1], got {self.recovery}")
        if not 0.0 < self.notional < math.inf:
            raise ParameterError("notional",
                                 f"notional must be finite and > 0, got {self.notional}")
        # the comparisons come first, so int() never sees inf or NaN
        if (not 1 <= self.payments_per_year < math.inf
                or self.payments_per_year != int(self.payments_per_year)):
            raise ParameterError("payments_per_year",
                                 f"payments_per_year must be a positive integer, "
                                 f"got {self.payments_per_year}")

    def payment_times(self) -> list[float]:
        """Premium dates 1/freq, 2/freq, ..., up to the first at or past the maturity."""
        return _schedule([self])[0][0].tolist()


@dataclass(frozen=True)
class SpreadCell:
    """One entry of a spread table; hurst is None on classical (beta=0) rows."""

    alpha: float
    beta: float
    hurst: float | None
    maturity: float
    spread_bps: float
    error: str | None = None


@dataclass(frozen=True)
class CurvePoint:
    """A (time, default probability) sample of the term structure."""

    t: float
    q: float


@functools.lru_cache(maxsize=None)
def _panel_rule() -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre nodes and weights mapped to [0, 1]."""
    x, w = np.polynomial.legendre.leggauss(GL_ORDER)
    return 0.5 * (x + 1.0), 0.5 * w


def _mesh(onset: np.ndarray, horizon: np.ndarray,
          panels: int) -> tuple[np.ndarray, np.ndarray]:
    """Nodes and weights of each row's mesh, (rows, panels * GL_ORDER).

    The panels split [onset, T] into equal steps of ln t.  Every feature of
    the integrands (the switch-on of Q at the onset, phi's e^(-(2-alpha) r t)
    layer, the e^(-rt) discount) is a transition about one unit of ln t
    wide, wherever it sits.  Doubling ``panels`` keeps every edge, so the
    meshes nest.
    """
    log_lo = np.log(onset)
    edges = np.exp(log_lo + (np.log(horizon) - log_lo) * np.linspace(0.0, 1.0, panels + 1))
    width = np.diff(edges, axis=1)[:, :, None]
    x, w = _panel_rule()
    rows = len(edges)
    return ((edges[:, :-1, None] + width * x).reshape(rows, -1),
            (width * w).reshape(rows, -1))


def _leg_integrals(law: FirstPassageLaw, t: np.ndarray, w: np.ndarray,
                   q: np.ndarray, g: np.ndarray) -> np.ndarray:
    """The quadratures of e^(-rt) g(t) (row 0) and e^(-rt) Q(t) (row 1) over [0, T], per cell."""
    wd = w * np.exp(-law.r * t)
    return np.array([(wd * g).sum(axis=1), (wd * q).sum(axis=1)])


def _schedule(contracts: list[CdsContract]) -> tuple[np.ndarray, np.ndarray]:
    """Premium dates and accrual fractions, one row per contract.

    Row j holds contract j's dates i/freq, i = 1, 2, ..., up to the first
    at or past its maturity (less 1e-12 of slack), padded to the longest
    schedule with the maturity and a zero accrual, so padding adds nothing
    to the annuity.
    """
    maturity = np.array([[c.maturity] for c in contracts])
    freq = np.array([[c.payments_per_year] for c in contracts], dtype=float)
    count = np.ceil(maturity * freq - 1e-12)
    i = np.arange(1.0, count.max() + 1.0)
    paid = i <= count
    return np.where(paid, i / freq, maturity), np.where(paid, 1.0 / freq, 0.0)


def _price_batch(params: list[ModelParams], contracts: list[CdsContract]):
    """Protection leg per unit notional and premium annuity of every cell.

    The leg is the integration-by-parts form

        (1-R) [e^(-rT) Q(T) + r * integral_0^T e^(-rt) Q(t) dt],

    cross-checked against the density form (1-R) integral_0^T e^(-rt) g(t) dt.
    The annuity is sum_i accrual_i e^(-r t_i) (1 - Q(t_i)) over the premium
    dates.  Returns (leg, annuity, errors); errors[i] is the NumericalError
    of cell i's leg (QuadratureError when refinement stops at MAX_PANELS,
    plain NumericalError when the two forms disagree beyond 1e-8 relative),
    else None.
    """
    law = FirstPassageLaw.of(params)
    horizon = np.array([[c.maturity] for c in contracts])
    lgd = np.array([1.0 - c.recovery for c in contracts])
    onset = law.onset(horizon)
    dates, accrual = _schedule(contracts)

    # one pass: both starting meshes, Q(T) and the premium dates
    coarse_t, coarse_w = _mesh(onset, horizon, BASE_PANELS)
    fine_t, fine_w = _mesh(onset, horizon, 2 * BASE_PANELS)
    q, g = law.q_and_g(np.hstack([coarse_t, fine_t, horizon, dates]))
    n0 = coarse_t.shape[1]
    n1 = n0 + fine_t.shape[1]
    legs = _leg_integrals(law, coarse_t, coarse_w, q[:, :n0], g[:, :n0])
    new = _leg_integrals(law, fine_t, fine_w, q[:, n0:n1], g[:, n0:n1])
    q_horizon = q[:, n1]
    # summed exactly, so that neither padding nor the batch moves a bit
    annuity = np.array([math.fsum(row) for row in
                        (accrual * np.exp(-law.r * dates) * (1.0 - q[:, n1 + 1:])).tolist()])

    # each doubling of the panels: per cell, the larger of the two integrals'
    # error estimates, and done once both meet the tolerance or one is not
    # finite; a full-recovery leg is worth 0 whatever the integrals are
    priced = lgd != 0.0
    err = np.zeros(len(contracts))
    done = ~priced
    rows = slice(None)
    panels = 2 * BASE_PANELS
    while True:
        with np.errstate(invalid="ignore"):  # inf - inf on legs that are not finite
            diff = np.abs(new - legs[:, rows])
        err[rows] = diff.max(axis=0)
        done[rows] |= ((diff <= np.maximum(EPSREL * np.abs(new), EPSABS)).all(axis=0)
                       | ~np.isfinite(new).all(axis=0))
        legs[:, rows] = new
        rows = np.flatnonzero(~done)
        if rows.size == 0 or panels >= MAX_PANELS:
            break
        panels *= 2
        sub = law.take(rows)
        t, w = _mesh(onset[rows], horizon[rows], panels)
        new = _leg_integrals(sub, t, w, *sub.q_and_g(t))

    density, survival = legs
    r = law.r[:, 0]
    v_density = lgd * density
    v_parts = lgd * (np.exp(-r * horizon[:, 0]) * q_horizon + r * survival)
    # triage in this order: leg not finite, unconverged, the two forms disagreeing
    finite_leg = np.isfinite(v_density) & np.isfinite(v_parts)
    with np.errstate(invalid="ignore"):  # inf - inf on the cells that are not finite
        disagree = np.abs(v_density - v_parts) > (
            _LEG_AGREEMENT_RTOL * np.maximum(np.abs(v_density), np.abs(v_parts)) + 1e-15)
    errors: list[NumericalError | None] = [None] * len(params)
    for i in np.flatnonzero(priced & ~finite_leg):
        errors[i] = NumericalError(
            f"protection leg is not finite: density form {float(v_density[i])!r}, "
            f"integration-by-parts form {float(v_parts[i])!r}")
    for i in np.flatnonzero(priced & finite_leg & ~done):
        errors[i] = QuadratureError(
            f"quadrature failed: leg integrals did not converge on {panels} panels "
            f"(achieved abs. error {err[i]:.3e})", float(density[i]), float(err[i]))
    for i in np.flatnonzero(priced & finite_leg & done & disagree):
        errors[i] = NumericalError(
            f"protection-leg evaluations disagree: density form {float(v_density[i])!r}, "
            f"integration-by-parts form {float(v_parts[i])!r}")
    return np.where(priced, v_parts, 0.0), annuity, errors


def _spread_bps(leg: float, annuity: float, error: NumericalError | None) -> float:
    if annuity <= 0.0:
        raise NumericalError(
            "premium annuity underflowed to zero (certain default before the "
            "first payment date); the running spread is undefined")
    if error is not None:
        raise error
    return float(1e4 * leg / annuity)


def protection_leg(contract: CdsContract, params: ModelParams) -> float:
    """Present value of the protection payment, scaled by the notional."""
    leg, _, errors = _price_batch([params], [contract])
    if errors[0] is not None:
        raise errors[0]
    return contract.notional * float(leg[0])


def premium_annuity(contract: CdsContract, params: ModelParams) -> float:
    """Risky annuity sum_i (1/freq) e^(-r t_i) (1 - Q(t_i)) over the payment
    dates, per unit notional and per unit of annual spread."""
    return float(_price_batch([params], [contract])[1][0])


def cds_spread(contract: CdsContract, params: ModelParams) -> float:
    """Equilibrium running spread in basis points per year.

    10^4 * protection leg / premium annuity, both per unit notional.
    """
    leg, annuity, errors = _price_batch([params], [contract])
    return _spread_bps(leg[0], annuity[0], errors[0])


def spread_table(params_base: ModelParams,
                 alphas: list[float],
                 betas_hursts: list[tuple[float, float | None]],
                 maturities: list[float],
                 *,
                 recovery: float = 0.5,
                 payments_per_year: int = 2) -> list[SpreadCell]:
    """Cartesian spread grid in fixed (beta, hurst, maturity, alpha) order.

    betas_hursts holds (beta, hurst) pairs; hurst may be None only when
    beta == 0 (the classical rows, where it has no effect).  Bad contract
    terms or a missing hurst raise ParameterError before any pricing; any
    other failure is captured per cell (spread NaN, error message set).
    The grid is priced BATCH_CELLS cells per kernel pass.
    """
    contracts = [CdsContract(maturity=maturity, recovery=recovery,
                             payments_per_year=payments_per_year) for maturity in maturities]
    cells: list[SpreadCell] = []
    todo = []  # (grid position, params, contract) of each cell whose inputs are valid
    for beta, hurst in betas_hursts:
        if hurst is None and beta != 0.0:
            raise ParameterError("hurst", "hurst may be omitted only when beta = 0")
        for contract in contracts:
            for alpha in alphas:
                cell = SpreadCell(alpha, beta, hurst, contract.maturity, math.nan)
                try:
                    todo.append((len(cells),
                                 ModelParams(r=params_base.r, sigma0=params_base.sigma0,
                                             alpha=alpha, beta=beta,
                                             hurst=hurst if hurst is not None else 0.8,
                                             s0=params_base.s0),
                                 contract))
                except ValueError as exc:
                    cell = dataclasses.replace(cell, error=str(exc))
                cells.append(cell)
    for start in range(0, len(todo), BATCH_CELLS):
        at, params, contracts = zip(*todo[start:start + BATCH_CELLS])
        for i, *priced in zip(at, *_price_batch(params, contracts)):
            try:
                cells[i] = dataclasses.replace(cells[i], spread_bps=_spread_bps(*priced))
            except NumericalError as exc:
                cells[i] = dataclasses.replace(cells[i], error=str(exc))
    return cells


def default_curve(params: ModelParams, t_max: float, n_points: int) -> list[CurvePoint]:
    """Default probability sampled on a uniform grid over [0, t_max]."""
    if not 0.0 < t_max < math.inf:
        raise ParameterError("t_max", f"t_max must be finite and > 0, got {t_max}")
    if n_points < 2:
        raise ParameterError("n_points", f"n_points must be >= 2, got {n_points}")
    step = t_max / (n_points - 1)
    times = [t_max if i == n_points - 1 else i * step for i in range(n_points)]
    qs = FirstPassageLaw.of([params]).q(np.array(times))[0]
    return [CurvePoint(t, q) for t, q in zip(times, qs.tolist())]
