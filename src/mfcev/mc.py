"""Monte-Carlo oracle: simulate the transformed state to default.

The transformed state follows the Ito diffusion matching the model's
forward equation,

    dx = [A x + B(t)] dt + sqrt(2 C(t) x) dW,      x(0) = s0^(2-alpha),

discretized by an Euler scheme with full truncation of the diffusion term
and absorption at the first nonpositive state.  Because B and C are both
proportional to the derivative of the variance clock v(t) = t + beta^2
t^(2H), the increments use the exact clock increment dv over each step
rather than a left-endpoint approximation.

The simulation runs in units with s0 = 1, as ``core.FirstPassageLaw``
does: x0 = 1 and delta^2 = sigma0^2.  The state in model units is
s0^(2-alpha) times this one, so the default times are the same, and no
power of s0 is formed however negative alpha is.

Paths are driven by a counter-based generator (Philox) seeded from the
master seed with a fixed step-major draw layout, so results depend only on
(seed, n_paths, n_steps) and runs with different model parameters but the
same seed share their noise (coupled comparisons).  Each step draws one
normal for every path, live or not, and ``_mc_fallback.step_paths``
advances only the live ones.

``simulate_fpt`` returns the default times.  The estimators read them:
``default_probability_estimate`` gives the binomial default probability
and ``spread_estimate`` the CDS spread, so one simulation serves both.
``mc_default_probability`` and ``mc_cds_spread`` simulate, then estimate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import _mc_fallback
from .core import ModelParams
from .errors import NumericalError, ParameterError

#: hard cap on n_paths * n_steps per simulation
MAX_PATH_STEPS = 2_000_000_000

#: number of contiguous path batches used for spread standard errors
SPREAD_BATCHES = 20


def have_compiled_kernel() -> bool:
    """Always False: the stepping kernel is numpy only.  Kept for callers
    that report which kernel ran."""
    return False


@dataclass(frozen=True)
class McConfig:
    """Simulation controls: path count, uniform grid size on [0, horizon], master seed."""

    n_paths: int
    n_steps: int
    horizon: float
    seed: int

    def __post_init__(self):
        if self.n_paths < 1:
            raise ParameterError("n_paths", f"n_paths must be >= 1, got {self.n_paths}")
        if self.n_steps < 1:
            raise ParameterError("n_steps", f"n_steps must be >= 1, got {self.n_steps}")
        if not 0.0 < self.horizon < math.inf:
            raise ParameterError("horizon",
                                 f"horizon must be finite and > 0, got {self.horizon}")
        if self.n_paths * self.n_steps > MAX_PATH_STEPS:
            raise ParameterError(
                "n_paths", f"n_paths * n_steps = {self.n_paths * self.n_steps} "
                           f"exceeds the budget of {MAX_PATH_STEPS}")
        if not 0 <= self.seed < 2 ** 64:
            raise ParameterError("seed", f"seed must be a 64-bit unsigned integer, got {self.seed}")


@dataclass(frozen=True)
class McResult:
    """Point estimate with its standard error and default-count bookkeeping."""

    estimate: float
    std_error: float
    n_defaulted: int
    n_paths: int


def simulate_fpt(params: ModelParams, cfg: McConfig) -> np.ndarray:
    """Simulate default times of the transformed state on a uniform grid.

    Returns an array of length n_paths holding the grid time at which each
    path was absorbed (the right endpoint of the crossing step), or NaN for
    paths that survive to the horizon.  Raises NumericalError when a step
    coefficient leaves the double range.
    """
    two_a = 2.0 - params.alpha
    # numpy scalars square to inf where Python floats raise OverflowError
    beta, sigma0 = np.float64(params.beta), np.float64(params.sigma0)

    n = cfg.n_paths
    dt = cfg.horizon / cfg.n_steps
    tgrid = np.linspace(0.0, cfg.horizon, cfg.n_steps + 1)
    with np.errstate(over="ignore", invalid="ignore"):
        dv = np.diff(tgrid + beta ** 2 * tgrid ** (2.0 * params.hurst))
        # Units with s0 = 1: x0 = 1 and delta^2 = sigma0^2.
        adt = two_a * params.r * dt
        # B(t) dt and 2 C(t) dt integrate exactly to these multiples of dv.
        b_steps = 0.5 * sigma0 ** 2 * (1.0 - params.alpha) * two_a * dv
        csd_steps = two_a * sigma0 * np.sqrt(dv)
    if not (math.isfinite(adt) and np.isfinite(b_steps).all() and np.isfinite(csd_steps).all()):
        raise NumericalError("Monte-Carlo step coefficients are not finite: A dt, B dt or "
                             "the diffusion scale (2-alpha) sigma0 sqrt(dv) left the double range")

    x = np.ones(n)
    index = np.arange(n)
    default_time = np.full(n, np.nan)
    work = np.empty(n)
    rng = np.random.Generator(np.random.Philox(cfg.seed))

    n_alive = n
    for k in range(cfg.n_steps):
        z = rng.standard_normal(n)
        n_alive = _mc_fallback.step_paths(x[:n_alive], index[:n_alive], default_time, z,
                                          adt, float(b_steps[k]), float(csd_steps[k]),
                                          float(tgrid[k + 1]), work)
        if n_alive == 0:
            break
    return default_time


def default_probability_estimate(default_time: np.ndarray) -> McResult:
    """Fraction of paths absorbed by the horizon, with binomial standard error."""
    n = default_time.size
    n_def = int(np.count_nonzero(~np.isnan(default_time)))
    p_hat = n_def / n
    std_error = math.sqrt(p_hat * (1.0 - p_hat) / n)
    return McResult(p_hat, std_error, n_def, n)


def spread_estimate(default_time: np.ndarray, params: ModelParams, contract) -> McResult:
    """Equilibrium spread in basis points from simulated default times.

    Per path, the protection payoff is (1-R) e^(-r tau) if default occurs
    by maturity and the annuity is the discounted sum of accruals at the
    payment dates survived.  The estimate is the ratio of means; the
    standard error comes from 20 contiguous path batches.  The simulation
    horizon must reach the contract maturity.
    """
    n = default_time.size
    maturity = contract.maturity
    r = params.r

    tau = np.where(np.isnan(default_time), np.inf, default_time)
    defaulted = tau <= maturity + 1e-12
    protection = np.where(defaulted,
                          (1.0 - contract.recovery) * np.exp(-r * np.where(defaulted, tau, 0.0)),
                          0.0)
    accrual = 1.0 / contract.payments_per_year
    annuity = np.zeros(n)
    for t_i in contract.payment_times():
        annuity += np.where(tau > t_i, accrual * math.exp(-r * t_i), 0.0)

    mean_annuity = float(np.mean(annuity))
    if mean_annuity <= 0.0:
        raise NumericalError("every path defaulted before the first payment "
                             "date; the Monte-Carlo spread is undefined")
    estimate = 1e4 * float(np.mean(protection)) / mean_annuity

    n_batches = min(SPREAD_BATCHES, n)
    batch_spreads = []
    for prot_b, ann_b in zip(np.array_split(protection, n_batches),
                             np.array_split(annuity, n_batches)):
        ann_mean = float(np.mean(ann_b))
        if ann_mean <= 0.0:
            raise NumericalError("a path batch defaulted entirely before the "
                                 "first payment date; batch standard error "
                                 "is undefined")
        batch_spreads.append(1e4 * float(np.mean(prot_b)) / ann_mean)
    if n_batches > 1:
        std_error = float(np.std(batch_spreads, ddof=1)) / math.sqrt(n_batches)
    else:
        std_error = 0.0

    n_def = int(np.count_nonzero(defaulted))
    return McResult(estimate, std_error, n_def, n)


def mc_default_probability(params: ModelParams, cfg: McConfig) -> McResult:
    """Simulate, then estimate the default probability by the horizon."""
    return default_probability_estimate(simulate_fpt(params, cfg))


def mc_cds_spread(params: ModelParams, contract, cfg: McConfig) -> McResult:
    """Simulate to the horizon, then estimate the spread in basis points."""
    if cfg.horizon < contract.maturity - 1e-12:
        raise ParameterError("horizon",
                             f"simulation horizon {cfg.horizon} is shorter than "
                             f"the contract maturity {contract.maturity}")
    return spread_estimate(simulate_fpt(params, cfg), params, contract)
