"""Monte-Carlo oracle: simulate the transformed state to default.

The transformed state x = S^(2-alpha) follows ``core``'s square-root
diffusion, under the law that ``core``'s closed form prices: the Markov
diffusion on the variance clock v(t) = t + beta^2 t^(2H), not the pathwise
SDE driven by W + beta B^H (Cheridito 2001; ``core`` gives the gap).  It is
discretized by an Euler scheme with full truncation of the diffusion term
and absorption at the first nonpositive state.  As B and C are both
proportional to v', each step uses the exact clock increment dv rather
than a left-endpoint approximation.

The simulation runs in units with s0 = 1, as ``core.FirstPassageLaw``
does: x0 = 1 and delta^2 = sigma0^2.  The state in model units is
s0^(2-alpha) times this one, so the default times are the same, and no
power of s0 is formed however negative alpha is.

The B = ceil(n_paths / BLOCK_PATHS) blocks of paths are of equal size:
block b holds the paths [n b // B, n (b+1) // B) and is driven by its own
generator, SFC64(SeedSequence(seed, spawn_key=(b,))); the spawn keys give
the blocks independent streams (L'Ecuyer et al. 2017).  A block draws in
antithetic pairs (Glasserman 2003, sec. 4.2; ``_blocks`` gives the pairs):
standard_normal(ceil(m/2)) per step for the first half of its m paths, and
their negation for the rest.  Each path alone is still an exact draw of the
model's measure.  So results depend only on
(seed, n_paths, n_steps), and runs with different model parameters but the
same seed share their noise (coupled comparisons).  Each step draws for
every pair of a block, live or not, and
``_mc_fallback.step_paths`` advances every path in its own slot; an
absorbed path's state is NaN, which no later step reads as a default.  A
block stops once all its paths have defaulted.  Blocks run side by side on
up to one thread per usable CPU, and the thread count never changes a bit.

``simulate_fpt`` returns the default times.  The estimators read them:
``default_probability_estimate`` gives the default probability and
``spread_estimate`` the CDS spread, a ratio of means whose standard error
is the delta method's, so one simulation serves both.  Both standard
errors are taken over the independent units, an antithetic pair or a
block's unpaired path, since the two paths of a pair are correlated.
``mc_default_probability`` and ``mc_cds_spread`` simulate, then estimate.
"""

from __future__ import annotations

import math
import numbers
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from . import _mc_fallback
from .core import ModelParams
from .errors import NumericalError, ParameterError

#: hard cap on n_paths * n_steps per simulation
MAX_PATH_STEPS = 2_000_000_000
#: paths per simulation; ``mfcev validate`` peaks at about 41 bytes per path
#: in the estimators' arrays, above the simulation's 16 (states and default
#: times, plus 0.8 MB of draws and scratch per block), so a run at the cap
#: takes about 410 MB
MAX_PATHS = 10_000_000
#: steps per simulation, at about 40 bytes each (the grid, the variance clock
#: and the step coefficients), so a grid at the cap takes about 400 MB
MAX_STEPS = 10_000_000

#: paths per block at most: each block draws from its own SFC64 stream.
#: Smaller blocks would put more of a mid-sized run on the second core, but
#: they slow the 10^5-path validate run, and every block size is a seed
#: contract of its own
BLOCK_PATHS = 50_000


def block_generator(seed: int, b: int) -> np.random.Generator:
    """The generator of path block b under the master seed."""
    return np.random.Generator(np.random.SFC64(np.random.SeedSequence(seed, spawn_key=(b,))))


def have_compiled_kernel() -> bool:
    """Always False: the stepping kernel is numpy only.  Kept for callers
    that report which kernel ran."""
    return False


@dataclass(frozen=True)
class McConfig:
    """Simulation controls: path count, uniform grid size on [0, horizon], master seed.

    The seed is per block: block b of the ceil(n_paths / BLOCK_PATHS) path
    blocks draws from SFC64(SeedSequence(seed, spawn_key=(b,))), so up to
    BLOCK_PATHS paths the one stream of spawn key 0 drives every path.  A
    block of m paths draws ceil(m/2) normals per step and steps its last
    floor(m/2) paths on the negated first ones (antithetic pairs).
    n_paths, n_steps and seed are integers (int or numpy integer, not
    bool); n_paths and n_steps are capped at MAX_PATHS and MAX_STEPS, and
    their product at MAX_PATH_STEPS.
    """

    n_paths: int
    n_steps: int
    horizon: float
    seed: int

    def __post_init__(self):
        for name in ("n_paths", "n_steps", "seed"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, numbers.Integral):
                raise ParameterError(name, f"{name} must be an integer, got {value!r}")
        if not 1 <= self.n_paths <= MAX_PATHS:
            raise ParameterError("n_paths",
                                 f"n_paths must lie in [1, {MAX_PATHS}], got {self.n_paths}")
        if not 1 <= self.n_steps <= MAX_STEPS:
            raise ParameterError("n_steps",
                                 f"n_steps must lie in [1, {MAX_STEPS}], got {self.n_steps}")
        if not 0.0 < self.horizon < math.inf:
            raise ParameterError("horizon",
                                 f"horizon must be finite and > 0, got {self.horizon}")
        if self.n_paths * self.n_steps > MAX_PATH_STEPS:
            raise ParameterError(
                "n_paths", f"n_paths * n_steps = {self.n_paths * self.n_steps} "
                           f"exceeds the budget of {MAX_PATH_STEPS}")
        if not 0 <= self.seed < 2 ** 64:
            raise ParameterError("seed", f"seed must be a 64-bit unsigned integer, got {self.seed}")


def _usable_cpus() -> int:
    """CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


@dataclass(frozen=True)
class McResult:
    """Point estimate with its standard error and default-count bookkeeping."""

    estimate: float
    std_error: float
    n_defaulted: int
    n_paths: int


def _blocks(n: int) -> list[tuple[int, int, int]]:
    """The path blocks of an n-path simulation and their antithetic pairs,
    as (lo, hi, h): with B = ceil(n / BLOCK_PATHS), block b holds the paths
    [lo, hi) = [n b // B, n (b+1) // B) and draws for its first
    h = ceil((hi - lo) / 2).  Path lo + h + i steps on the negated draw of
    path lo + i, for i < hi - lo - h; in an odd block, path lo + h - 1 has no
    partner."""
    n_blocks = -(-n // BLOCK_PATHS)
    bounds = [n * b // n_blocks for b in range(n_blocks + 1)]
    return [(lo, hi, (hi - lo + 1) // 2) for lo, hi in zip(bounds, bounds[1:])]


def simulate_fpt(params: ModelParams, cfg: McConfig) -> np.ndarray:
    """Simulate default times of the transformed state on a uniform grid.

    Returns an array of length n_paths holding the grid time at which each
    path was absorbed (the right endpoint of the crossing step), or NaN for
    paths that survive to the horizon.  Raises NumericalError when a step
    coefficient, or a path's state, leaves the double range.
    """
    two_a = 2.0 - params.alpha
    # numpy scalars square to inf where Python floats raise OverflowError
    beta, sigma0 = np.float64(params.beta), np.float64(params.sigma0)

    n = cfg.n_paths
    dt = cfg.horizon / cfg.n_steps
    tgrid = np.linspace(0.0, cfg.horizon, cfg.n_steps + 1)
    with np.errstate(over="ignore", invalid="ignore"):
        dv = np.diff(tgrid + beta ** 2 * tgrid ** (2.0 * params.effective_hurst))
        # Units with s0 = 1: x0 = 1 and delta^2 = sigma0^2.
        adt = two_a * params.r * dt
        # B(t) dt and 2 C(t) dt integrate exactly to these multiples of dv.
        b_steps = 0.5 * sigma0 ** 2 * (1.0 - params.alpha) * two_a * dv
        csd_steps = two_a * sigma0 * np.sqrt(dv)
    if not (math.isfinite(adt) and np.isfinite(b_steps).all() and np.isfinite(csd_steps).all()):
        raise NumericalError("Monte-Carlo step coefficients are not finite: A dt, B dt or "
                             "the diffusion scale (2-alpha) sigma0 sqrt(dv) left the double range")

    x = np.ones(n)
    default_time = np.full(n, np.nan)
    blocks = _blocks(n)

    def run_block(b: int) -> None:
        lo, hi, h = blocks[b]
        rng = block_generator(cfg.seed, b)
        xb, tb = x[lo:hi], default_time[lo:hi]
        m = hi - lo
        z, work = np.empty(m), np.empty(m)
        n_alive = m
        # errstate is per thread, so each block sets its own: an overflow of
        # the state raises in the step kernel instead of carrying an inf on
        with np.errstate(over="raise"):
            for k in range(cfg.n_steps):
                # the antithetic pairs of _blocks
                rng.standard_normal(out=z[:h])
                np.negative(z[:m - h], out=z[h:])
                n_alive = _mc_fallback.step_paths(xb, tb, z, adt, float(b_steps[k]),
                                                  float(csd_steps[k]), float(tgrid[k + 1]),
                                                  work, n_alive)
                if n_alive == 0:
                    break

    if len(blocks) == 1:
        run_block(0)
        return default_time
    pool = ThreadPoolExecutor(max_workers=min(len(blocks), _usable_cpus()))
    try:
        list(pool.map(run_block, range(len(blocks))))
    finally:
        pool.shutdown(cancel_futures=True)
    return default_time


def _unit_sum_of_squares(values: np.ndarray, center: float) -> tuple[float, int]:
    """Sum over the independent units of a simulation of the squared unit
    sums of values - center, and the number of units.

    ``values`` holds one number per path, in ``simulate_fpt``'s order.  The
    units are the antithetic pairs and unpaired paths of ``_blocks``: h per
    block.
    """
    total, n_units = 0.0, 0
    for lo, hi, h in _blocks(values.size):
        units = values[lo:lo + h] - center
        units[:hi - lo - h] += values[lo + h:hi] - center
        total += float(np.sum(units * units))
        n_units += h
    return total, n_units


def default_probability_estimate(default_time: np.ndarray) -> McResult:
    """Fraction of paths absorbed by the horizon, with the standard error
    over independent units, sqrt(sum_u (S_u - p n_u)^2) / n for a unit's
    default count S_u and size n_u; with every unit one path it is the
    binomial sqrt(p (1 - p) / n)."""
    n = default_time.size
    defaulted = ~np.isnan(default_time)
    n_def = int(np.count_nonzero(defaulted))
    p_hat = n_def / n
    sum_of_squares, _ = _unit_sum_of_squares(defaulted, p_hat)
    return McResult(p_hat, math.sqrt(sum_of_squares) / n, n_def, n)


def spread_estimate(default_time: np.ndarray, params: ModelParams, contract) -> McResult:
    """Equilibrium spread in basis points from simulated default times.

    Per path, the protection payoff is (1-R) e^(-r tau) if default occurs
    by maturity and the annuity is the discounted sum of accruals at the
    payment dates strictly before tau, read from the running sum over the
    dates in one lookup.  The estimate is the ratio of means s = P/A; its
    standard error is the delta method's over the independent units of
    ``_unit_sum_of_squares`` (Asmussen & Glynn 2007, ch. III): with E_u the
    sum of the residuals P - s A over unit u, U units and mean residual e,
    sqrt(U / (U-1) sum_u (E_u - n_u e)^2) / (n A), and 0 for one unit.  With
    every unit one path it is the sample standard deviation of the residuals
    over sqrt(n) A.  Raises NumericalError when every path
    defaults before the first payment date, so that the mean annuity is 0.
    The simulation horizon must reach the last premium date,
    ``contract.payment_times()[-1]``: a path that survives the horizon is
    read as paying every premium.
    """
    n = default_time.size
    maturity = contract.maturity
    r = params.r

    # NaN, a survivor, compares false here and sorts past every date below
    defaulted = default_time <= maturity + 1e-12
    protection = np.zeros(n)
    protection[defaulted] = (1.0 - contract.recovery) * np.exp(-r * default_time[defaulted])
    # paid[k] sums the discounted accruals of the first k dates in date order,
    # and a path's annuity is paid[number of dates before its default]
    times = contract.payment_times()
    accrual = 1.0 / contract.payments_per_year
    paid = np.cumsum([0.0] + [accrual * math.exp(-r * t_i) for t_i in times])
    annuity = paid[np.searchsorted(np.asarray(times), default_time)]

    mean_annuity = float(np.mean(annuity))
    if mean_annuity <= 0.0:
        raise NumericalError("every path defaulted before the first payment "
                             "date; the Monte-Carlo spread is undefined")
    estimate = 1e4 * float(np.mean(protection)) / mean_annuity
    # delta method for a ratio of means, from the residuals P - s A summed per unit
    residual = 1e4 * protection - estimate * annuity
    sum_of_squares, n_units = _unit_sum_of_squares(residual, float(np.mean(residual)))
    std_error = (math.sqrt(sum_of_squares * n_units / (n_units - 1)) / (n * mean_annuity)
                 if n_units > 1 else 0.0)

    n_def = int(np.count_nonzero(defaulted))
    return McResult(estimate, std_error, n_def, n)


def mc_default_probability(params: ModelParams, cfg: McConfig) -> McResult:
    """Simulate, then estimate the default probability by the horizon."""
    return default_probability_estimate(simulate_fpt(params, cfg))


def mc_cds_spread(params: ModelParams, contract, cfg: McConfig) -> McResult:
    """Simulate to the horizon, which must reach the last premium date, then
    estimate the spread in basis points."""
    last_date = contract.payment_times()[-1]
    if cfg.horizon < last_date - 1e-12:
        raise ParameterError("horizon",
                             f"simulation horizon {cfg.horizon} ends before "
                             f"the last premium date {last_date}")
    return spread_estimate(simulate_fpt(params, cfg), params, contract)
