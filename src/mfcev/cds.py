"""Credit default swap legs, equilibrium spreads, and batch tabulation.

The protection leg pays (1-R) at the default time if it occurs before
maturity; the premium leg pays the running spread at each payment date the
reference is still alive (no accrual for a default between payment dates).
The equilibrium spread equates the two legs at inception.

Every spread and annuity goes through one batched kernel, ``_price_batch``.
For a batch of (params, contract) cells it reads Q once, at T and the
premium dates (``_schedule``), and integrates both legs in one refinement
loop.  Each pass evaluates Q and g on Gauss-Legendre panels equal in ln t
from ``FirstPassageLaw.onset`` to T for the cells still unconverged,
BASE_PANELS panels at first and twice as many each pass after; from the
first doubling on, the change in a cell's integrals is its error estimate.
``ModelParams`` and ``CdsContract`` check themselves.  ``spread_table``
builds every cell's inputs before it prices any, then feeds the kernel
BATCH_CELLS cells at a time; every other caller prices one cell.
``default_curve`` reads Q of all its series on one grid in one ``law.q`` pass.
"""

from __future__ import annotations

import functools
import math
import numbers
from dataclasses import dataclass
from typing import Sequence

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
#: premium dates per contract, ceil(maturity * payments_per_year).  The kernel
#: holds about 88 bytes per date and cell, so a full batch of BATCH_CELLS
#: cells at the cap takes about 450 MB.
MAX_PREMIUM_DATES = 20_000
#: samples per default curve, at about 94 bytes each with the CLI's CSV
#: line, so a curve at the cap takes about 94 MB
MAX_CURVE_POINTS = 1_000_000
#: samples of all the curves of one ``default_curve`` call, points x series.
#: Its one ``q`` pass holds about 64 bytes per value for every series at once,
#: so a ``mfcev curve`` at the cap takes at most about 320 MB
MAX_CURVE_VALUES = 5_000_000
#: cells per spread table; its grid, cells and CSV lines hold about 370 bytes
#: per cell, so a table at the cap takes about 370 MB
MAX_TABLE_CELLS = 1_000_000


@dataclass(frozen=True)
class CdsContract:
    """Plain-vanilla CDS terms: maturity in years, recovery fraction, and
    number of premium payments per year (accrual fraction 1/payments_per_year
    each), at most MAX_PREMIUM_DATES dates in all.  Every value priced on it
    is per unit notional."""

    maturity: float
    recovery: float
    payments_per_year: int = 2

    def __post_init__(self):
        if not 0.0 < self.maturity < math.inf:
            raise ParameterError("maturity",
                                 f"maturity must be finite and > 0, got {self.maturity}")
        if not 0.0 <= self.recovery <= 1.0:
            raise ParameterError("recovery", f"recovery must lie in [0, 1], got {self.recovery}")
        if (isinstance(self.payments_per_year, bool)
                or not isinstance(self.payments_per_year, numbers.Integral)
                or self.payments_per_year < 1):
            raise ParameterError("payments_per_year",
                                 f"payments_per_year must be a positive integer, "
                                 f"got {self.payments_per_year!r}")
        # a quotient, so a huge integer payments_per_year is never made a float
        if self.payments_per_year > MAX_PREMIUM_DATES / self.maturity:
            raise ParameterError("payments_per_year",
                                 f"maturity {self.maturity} x payments_per_year "
                                 f"{self.payments_per_year} exceeds the cap of "
                                 f"{MAX_PREMIUM_DATES} premium dates")

    def payment_times(self) -> list[float]:
        """Premium dates 1/freq, 2/freq, ..., up to the first at or past the maturity."""
        return _schedule([self])[0][0].tolist()


@dataclass(frozen=True)
class SpreadCell:
    """One entry of a spread table: its inputs as given, and its spread."""

    alpha: float
    beta: float
    hurst: float | None
    maturity: float
    spread_bps: float


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


def _schedule(contracts: list[CdsContract]) -> tuple[np.ndarray, np.ndarray]:
    """Premium dates and accrual fractions, one row per contract.

    Row j holds contract j's dates i/freq, i = 1, 2, ..., up to the first
    at or past its maturity (less 1e-12 of slack), padded to the longest
    schedule with the maturity and a zero accrual, so padding adds nothing
    to the annuity.  A contract within the slack of 0 payment periods keeps
    its first date, so every contract has at least one.
    """
    maturity = np.array([[c.maturity] for c in contracts])
    freq = np.array([[c.payments_per_year] for c in contracts], dtype=float)
    count = np.maximum(np.ceil(maturity * freq - 1e-12), 1.0)
    i = np.arange(1.0, count.max() + 1.0)
    paid = i <= count
    return np.where(paid, i / freq, maturity), np.where(paid, 1.0 / freq, 0.0)


def _price_batch(params: list[ModelParams], contracts: list[CdsContract]):
    """Protection leg per unit notional and premium annuity of every cell.

    The leg is the integration-by-parts form

        (1-R) [e^(-rT) Q(T) + r * integral_0^T e^(-rt) Q(t) dt],

    cross-checked against the density form (1-R) integral_0^T e^(-rt) g(t) dt.
    The annuity is sum_i accrual_i e^(-r t_i) (1 - Q(t_i)) over the premium
    dates.  Q at T and at the dates comes from one ``law.q`` call; the two
    integrals come from the refinement loop, one ``q_and_g`` call per pass.
    Returns (leg, annuity, errors); errors[i] is the NumericalError
    of cell i's leg (QuadratureError when refinement stops at MAX_PANELS,
    plain NumericalError when the two forms disagree beyond 1e-8 relative),
    else None.
    """
    law = FirstPassageLaw.of(params)
    horizon = np.array([[c.maturity] for c in contracts])
    lgd = np.array([1.0 - c.recovery for c in contracts])
    onset = law.onset(horizon)
    dates, accrual = _schedule(contracts)
    q_dates = law.q(np.hstack([horizon, dates]))  # Q(T) in column 0
    # r t overflows to inf at the largest rates, where e^(-rt) is 0; the values
    # that are not finite end in the checks of the legs and of the annuity
    with np.errstate(over="ignore"):
        discount = np.exp(-law.r * dates)
    # summed exactly, so that neither padding nor the batch moves a bit
    annuity = np.array([math.fsum(row) for row in accrual * discount * (1.0 - q_dates[:, 1:])])

    # each pass integrates the unconverged rows on one mesh; from the first
    # doubling on, a cell's error estimate is the larger change of its two
    # integrals, and it is done once both meet the tolerance or one is not
    # finite; a full-recovery leg is worth 0 whatever the integrals are
    priced = lgd != 0.0
    legs = np.zeros((2, len(contracts)))
    err = np.zeros(len(contracts))
    done = ~priced
    rows, panels = slice(None), BASE_PANELS
    while True:
        sub = law.take(rows)
        t, w = _mesh(onset[rows], horizon[rows], panels)
        q, g = sub.q_and_g(t)
        # r t = inf, 0 * inf in w * g and inf - inf on legs that are not finite
        with np.errstate(over="ignore", invalid="ignore"):
            w *= np.exp(-sub.r * t)
            new = np.array([(w * g).sum(axis=1), (w * q).sum(axis=1)])
            if panels > BASE_PANELS:
                diff = np.abs(new - legs[:, rows])
                err[rows] = diff.max(axis=0)
                done[rows] |= ((diff <= np.maximum(EPSREL * np.abs(new), EPSABS)).all(axis=0)
                               | ~np.isfinite(new).all(axis=0))
        legs[:, rows] = new
        rows = np.flatnonzero(~done)
        if rows.size == 0 or panels >= MAX_PANELS:
            break
        panels *= 2

    density, survival = legs
    r = law.r[:, 0]
    v_density = lgd * density
    # r T = inf, and inf - inf on the cells that are not finite
    with np.errstate(over="ignore", invalid="ignore"):
        v_parts = lgd * (np.exp(-r * horizon[:, 0]) * q_dates[:, 0] + r * survival)
        disagree = np.abs(v_density - v_parts) > (
            _LEG_AGREEMENT_RTOL * np.maximum(np.abs(v_density), np.abs(v_parts)) + 1e-15)
    # triage in this order: leg not finite, unconverged, the two forms disagreeing
    finite_leg = np.isfinite(v_density) & np.isfinite(v_parts)
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
    """Present value of the protection payment, per unit notional."""
    leg, _, errors = _price_batch([params], [contract])
    if errors[0] is not None:
        raise errors[0]
    return float(leg[0])


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


def spread_table(r: float,
                 sigma0: float,
                 alphas: list[float],
                 betas_hursts: list[tuple[float, float | None]],
                 maturities: list[float],
                 *,
                 recovery: float = 0.5,
                 payments_per_year: int = 2) -> list[SpreadCell]:
    """Cartesian spread grid in fixed (beta, hurst, maturity, alpha) order.

    Each cell has rate r and volatility scale sigma0; hurst may be None only
    where beta = 0.  At most MAX_TABLE_CELLS cells.  The parameter sets, then
    the contracts, are built before any pricing, so a bad input raises
    ParameterError naming it.  Priced BATCH_CELLS per pass in grid order; the
    first cell that fails raises NumericalError, and no later batch is priced.
    """
    sets = [[ModelParams(r=r, sigma0=sigma0, alpha=alpha, beta=beta, hurst=hurst)
             for alpha in alphas] for beta, hurst in betas_hursts]
    n_cells = len(alphas) * len(betas_hursts) * len(maturities)
    if n_cells > MAX_TABLE_CELLS:
        raise ParameterError("maturities", f"{n_cells} table cells exceed the cap of "
                                           f"{MAX_TABLE_CELLS}")
    contracts = [CdsContract(maturity=maturity, recovery=recovery,
                             payments_per_year=payments_per_year) for maturity in maturities]
    grid = [(p, contract) for row in sets for contract in contracts for p in row]
    cells = []
    for start in range(0, len(grid), BATCH_CELLS):
        batch = grid[start:start + BATCH_CELLS]
        for (p, contract), *priced in zip(batch, *_price_batch(*zip(*batch))):
            try:
                spread = _spread_bps(*priced)
            except NumericalError as exc:
                raise NumericalError(f"table cell (beta={p.beta}, hurst={p.hurst}, alpha="
                                     f"{p.alpha}, T={contract.maturity}) failed: {exc}") from exc
            cells.append(SpreadCell(p.alpha, p.beta, p.hurst, contract.maturity, spread))
    return cells


def default_curve(series: Sequence[ModelParams], t_max: float,
                  n_points: int) -> tuple[np.ndarray, np.ndarray]:
    """Default probability of each series on one uniform grid of n_points times over [0, t_max].

    Returns the times i * t_max / (n_points - 1), the last exactly t_max, and
    Q, one row per series, shape (len(series), n_points), as float64 arrays.
    n_points may not exceed MAX_CURVE_POINTS, nor n_points x len(series) MAX_CURVE_VALUES.
    """
    if not 0.0 < t_max < math.inf:
        raise ParameterError("t_max", f"t_max must be finite and > 0, got {t_max}")
    if isinstance(n_points, bool) or not isinstance(n_points, numbers.Integral):
        raise ParameterError("n_points", f"n_points must be an integer, got {n_points!r}")
    if not 2 <= n_points <= MAX_CURVE_POINTS:
        raise ParameterError("n_points", f"n_points must lie in [2, {MAX_CURVE_POINTS}], "
                                         f"got {n_points}")
    if n_points * len(series) > MAX_CURVE_VALUES:
        raise ParameterError("series", f"{len(series)} series x {n_points} points exceed "
                                       f"the cap of {MAX_CURVE_VALUES} Q values")
    t = np.linspace(0.0, t_max, n_points)
    return t, FirstPassageLaw.of(series).q(t)
