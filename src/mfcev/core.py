"""Model parameters, the power transform of the price, and default analytics.

The asset price follows a constant-elasticity-of-variance diffusion whose
noise is a mixture of a standard Brownian motion and an independent
fractional Brownian motion with Hurst exponent in (3/4, 1).  Default is the
first time the price hits zero.  Under the power transform x = S^(2-alpha)
the transformed state is a time-inhomogeneous square-root diffusion

    dx = [A x + B(t)] dt + sqrt(2 C(t) x) dW,

and the probability that x has been absorbed at zero by time t has the
closed form

    Q(t) = Gamma(1-xi, x0 / phi(t)) / Gamma(1-xi),

with xi = (1-alpha)/(2-alpha) and phi the discounted running integral of
C.  This module evaluates phi (closed form and quadrature oracle), the
first-passage density g = dQ/dt, and Q itself.  The closed forms are
array-native (``FirstPassageLaw``); the scalar functions are thin views of
it.  Q has one evaluator, ``_regularized_upper_gamma``, for Q alone and
for Q with g; its docstring gives its split and its accuracy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from typing import Sequence

import numpy as np
from scipy.special import gammainc, gammaincc, gammaln

from .errors import NumericalError, ParameterError, QuadratureError

#: below this rate the r -> 0 analytic branch of phi is used
R_ZERO_TOL = 1e-12

#: Q(s, u) is evaluated as 1 - P(s, u) below this u = x0/phi (see
#: _regularized_upper_gamma)
Q_SPLIT_U = 1.1

#: log-density floor; anything below exp(LOG_FLOOR) is reported as exact 0
LOG_FLOOR = -700.0

#: the CDS leg integrals start where x0/phi >= ONSET_U: Q, g < e^(-ONSET_U) before
ONSET_U = 700.0


@dataclass(frozen=True)
class ModelParams:
    """Mixed-fractional CEV parameter set.

    r       risk-free rate (per year, >= 0)
    sigma0  at-the-money volatility scale (per sqrt(year), > 0)
    alpha   elasticity exponent, in [-1000, 2): below 2 so that zero is
            attainable, and down to -1000, where Q's accuracy is stated
    beta    fractional mixing weight (>= 0; 0 recovers the classical CEV)
    hurst   Hurst exponent of the fractional component, in (3/4, 1)
    s0      initial price (> 0)

    The volatility coefficient of the price SDE is delta = sigma0 *
    s0^((2-alpha)/2), so sigma0 is the local volatility at inception and
    every default/spread quantity is invariant to the price level.
    """

    r: float
    sigma0: float
    alpha: float
    beta: float
    hurst: float
    s0: float = 50.0

    def __post_init__(self):
        """Check every constraint; raise ParameterError naming the first violated one.

        Each check is a comparison that NaN fails, bounded strictly at the
        infinite end, so every parameter must also be finite.
        """
        if not -1000.0 <= self.alpha < 2.0:
            raise ParameterError("alpha", f"alpha must lie in [-1000, 2), got {self.alpha}")
        if not 0.75 < self.hurst < 1.0:
            raise ParameterError("hurst", f"hurst must lie in (3/4, 1), got {self.hurst}")
        if not 0.0 <= self.beta < math.inf:
            raise ParameterError("beta", f"beta must be finite and >= 0, got {self.beta}")
        if not 0.0 < self.sigma0 < math.inf:
            raise ParameterError("sigma0", f"sigma0 must be finite and > 0, got {self.sigma0}")
        if not 0.0 <= self.r < math.inf:
            raise ParameterError("r", f"r must be finite and >= 0, got {self.r}")
        if not 0.0 < self.s0 < math.inf:
            raise ParameterError("s0", f"s0 must be finite and > 0, got {self.s0}")


def _regularized_upper_gamma(s, u) -> np.ndarray:
    """Q(s, u) = Gamma(s, u) / Gamma(s), as 1 - P(s, u) below u = Q_SPLIT_U.

    For u < 1.1 scipy's ``gammaincc`` sums a series that re-evaluates
    ln Gamma(1 + s) at every element, which makes it about ten times
    slower there than ``gammainc`` (and than itself above the split).
    Below the split Q >= Q(s, 1.1), so the complement loses little: over
    s in [1/1002, 1000] (alpha in [-1000, 1.999]) it is within 1e-11
    relative of ``gammaincc`` (worst seen 6.5e-12, at s ~ 1/970 where
    Q ~ 2.5e-4, in 2e6 random points), and within 1e-13 for s >= 0.1.
    Above the split Q can be far below the 1e-16 a complement resolves,
    so ``gammaincc`` stays.  Q stays monotone in u, except that it may
    step by up to that bound at the split itself.

    u carries the broadcast shape.  The two bands are gathered and
    scattered with boolean masks: a scipy.special ufunc called with
    ``where=`` over a 2-D array corrupts the heap (numpy 2.4, scipy 1.17).
    """
    low = u < Q_SPLIT_U
    if not low.any():
        return gammaincc(s, u)
    s = np.broadcast_to(s, u.shape)
    high = ~low
    out = np.empty(u.shape)
    out[low] = 1.0 - gammainc(s[low], u[low])
    out[high] = gammaincc(s[high], u[high])
    return out


def _column(values) -> np.ndarray:
    return np.asarray(values, dtype=float).reshape(-1, 1)


@dataclass(frozen=True)
class FirstPassageLaw:
    """phi, Q and g of a batch of parameter sets, in units with s0 = 1.

    Q and g depend on the initial state only through x0/phi(t), and phi is
    proportional to delta^2 = sigma0^2 s0^(2-alpha).  With s0 = 1 the state
    is x0 = 1 and delta^2 = sigma0^2, so no power of s0 is ever formed and
    nothing overflows however negative alpha is; phi in model units is
    s0^(2-alpha) times ``phi`` here.

    Every attribute is a column with one row per parameter set, so the
    methods broadcast against a (rows, times) array of times t >= 0.  With
    lambda = (2-alpha) r and k = sigma0^2 (2-alpha)^2,

        C(t)   = k (1/2 + beta^2 H t^(2H-1)),
        phi(t) = k [(1 - e^(-lambda t)) / (2 lambda)
                    + beta^2 H Gamma(2H) lambda^(-2H) P(2H, lambda t)],

    the second term being beta^2 H integral_0^t u^(2H-1) e^(-lambda u) du.
    Below R_ZERO_TOL the rate drops out: phi(t) = k (t + beta^2 t^(2H)) / 2.

    ``q`` and ``q_and_g`` share one Q evaluator, ``_regularized_upper_gamma``,
    so they give the same Q bit for bit.

    A finite parameter may overflow k, beta^2 or lambda.  Where phi(t > 0)
    is then inf, u = 0 and Q = 1, exact in double only for s > 0.053
    (alpha > -16.9), below which u^s still matters for u < 1/DBL_MAX.  Q
    and g are NaN there and where phi(t > 0) is NaN: ``q`` raises
    NumericalError, and ``q_and_g`` returns the NaNs for the CDS kernel to
    report per cell.
    """

    r: np.ndarray
    lam: np.ndarray
    zero_rate: np.ndarray
    k: np.ndarray
    beta_sq_h: np.ndarray
    two_h: np.ndarray
    frac_coef: np.ndarray
    s: np.ndarray
    log_gamma_s: np.ndarray

    @classmethod
    def of(cls, params: Sequence[ModelParams]) -> "FirstPassageLaw":
        r = _column([p.r for p in params])
        two_a = 2.0 - _column([p.alpha for p in params])
        hurst = _column([p.hurst for p in params])
        zero_rate = r < R_ZERO_TOL
        # a finite parameter may overflow lambda, k or beta^2; phi and Q then
        # take their limits, or turn NaN (see the class docstring)
        with np.errstate(over="ignore", invalid="ignore"):
            lam = np.where(zero_rate, 0.0, two_a * r)
            log_lam = np.log(np.where(zero_rate, 1.0, lam))
            k = _column([p.sigma0 for p in params]) ** 2 * two_a ** 2
            beta_sq = _column([p.beta for p in params]) ** 2
            # beta^2 H Gamma(2H) lambda^(-2H); below R_ZERO_TOL, beta^2 / 2 (of t^(2H))
            frac_coef = np.where(zero_rate, 0.5 * beta_sq, beta_sq * hurst
                                 * np.exp(gammaln(2.0 * hurst) - 2.0 * hurst * log_lam))
        s = 1.0 / two_a
        return cls(r=r, lam=lam, zero_rate=zero_rate, k=k,
                   beta_sq_h=beta_sq * hurst, two_h=2.0 * hurst, frac_coef=frac_coef,
                   s=s, log_gamma_s=gammaln(s))

    def take(self, rows) -> "FirstPassageLaw":
        """The law of the selected rows."""
        return FirstPassageLaw(**{f.name: getattr(self, f.name)[rows] for f in fields(self)})

    def onset(self, horizon) -> np.ndarray:
        """Per row, a time up to which Q and g stay below about e^(-ONSET_U), capped at horizon.

        As e^(-lambda u) <= 1, phi(t) <= k t / 2 + k beta^2 t^(2H) / 2, and at
        the returned time each of the two terms is at most 1 / (2 ONSET_U); so
        up to there 1 / phi >= ONSET_U.  It is at least the smallest positive
        double, so its logarithm is finite also where k or beta^2 overflowed.
        """
        beta_sq = self.beta_sq_h / (0.5 * self.two_h)
        with np.errstate(divide="ignore", invalid="ignore"):
            bound = 1.0 / (self.k * ONSET_U)
            fractional = (bound / beta_sq) ** (1.0 / self.two_h)
        return np.maximum(np.minimum(horizon, np.fmin(bound, fractional)), 5e-324)

    def phi(self, t) -> np.ndarray:
        lam = self.lam
        with np.errstate(invalid="ignore", divide="ignore"):
            decay = np.where(self.zero_rate, 0.5 * t, -np.expm1(-lam * t) / (2.0 * lam))
        # P(2H, lambda t) is finite on every row and frac_coef = 0 zeroes it
        # on the classical ones, so no row is masked out (a scipy.special
        # ufunc's where= over a 2-D array corrupts the heap)
        frac = gammainc(self.two_h, lam * t)
        if self.zero_rate.any():
            frac = np.where(self.zero_rate, np.power(t, self.two_h), frac)
        return self.k * (decay + self.frac_coef * frac)

    def _inverse_phi(self, t) -> np.ndarray:
        # x0 / phi with x0 = 1.  At t = 0 it is +inf, for which Q = 0, also
        # where an overflowed k or frac_coef makes phi(0) = inf * 0 = NaN.
        with np.errstate(divide="ignore", invalid="ignore"):
            u = np.where(t == 0.0, np.inf, 1.0 / self.phi(t))
        # u = 0 (phi = inf) is NaN where Q = 1 would not be exact
        inexact_one = self.s <= 0.053
        if inexact_one.any():
            u[inexact_one & (u == 0.0)] = np.nan
        return u

    def q(self, t) -> np.ndarray:
        """Default probability Q(t) = Gamma(s, 1/phi(t)) / Gamma(s), s = 1 - xi."""
        q = _regularized_upper_gamma(self.s, self._inverse_phi(t))
        if np.isnan(q).any():
            raise NumericalError("default probability is undefined in double precision: "
                                 "phi(t) left the double range")
        return q

    def q_and_g(self, t) -> tuple[np.ndarray, np.ndarray]:
        """Q(t) and the first-passage density g(t) = dQ/dt, for t > 0.

        g(t) = C(t) e^(-lambda t) / Gamma(s) * u^(1+s) e^(-u), u = 1/phi(t),
        evaluated in log space; values below exp(LOG_FLOOR) are exact 0.
        """
        u = self._inverse_phi(t)
        q = _regularized_upper_gamma(self.s, u)
        # clamping u keeps u^(1+s) e^(-u) finite (and 0) where phi underflowed
        u = np.minimum(u, 1e300)
        with np.errstate(divide="ignore", invalid="ignore"):
            log_g = (np.log(self.k * (0.5 + self.beta_sq_h * t ** (self.two_h - 1.0)))
                     - self.lam * t + (1.0 + self.s) * np.log(u) - u - self.log_gamma_s)
        g = np.exp(log_g)
        # g -> 0 as phi -> inf, also where an overflowed C makes log g = inf - inf
        g[(log_g < LOG_FLOOR) | (u == 0.0)] = 0.0
        return q, g


def _finite_phi(t: float, phi) -> float:
    if not math.isfinite(phi):
        raise NumericalError(f"phi({t}) in model units is not finite in double precision")
    return float(phi)


def phi_closed(t: float, params: ModelParams) -> float:
    """Closed form of phi(t) = integral_0^t C(u) e^(-(2-alpha) r u) du, in model units.

    That is s0^(2-alpha) times ``FirstPassageLaw.phi``, whose docstring
    gives the formula.  Raises NumericalError where phi in model units is
    not finite in double precision.
    """
    if t < 0.0:
        raise ValueError(f"phi requires t >= 0, got {t}")
    if t == 0.0:
        return 0.0
    with np.errstate(over="ignore", invalid="ignore"):
        phi = np.float64(params.s0) ** (2.0 - params.alpha) * FirstPassageLaw.of([params]).phi(t)
    return _finite_phi(t, phi.item())


def phi_quadrature(t: float, params: ModelParams) -> float:
    """phi(t) in model units by adaptive quadrature of its defining integrand

        C(u) e^(-lambda u) = sigma0^2 s0^(2-alpha) (2-alpha)^2
                             (1/2 + beta^2 H u^(2H-1)) e^(-lambda u),

    lambda = (2-alpha) r, taken straight from the parameters: an oracle for
    phi_closed that shares nothing with FirstPassageLaw.  The two agree to
    ~1e-10 relative.  Raises QuadratureError, carrying the achieved error
    estimate, when the integrator cannot reach 1e-10 relative on a panel,
    and NumericalError where phi in model units is not finite in double
    precision.
    """
    if t < 0.0:
        raise ValueError(f"phi requires t >= 0, got {t}")
    if t == 0.0:
        return 0.0
    # Importing scipy.integrate here keeps it (about 25 MB and 0.2 s) out of
    # every pricing process.
    from scipy.integrate import quad

    two_a = 2.0 - params.alpha
    lam = two_a * params.r
    # numpy scalars overflow to inf (and phi with them) where Python floats raise
    with np.errstate(over="ignore", invalid="ignore"):
        scale = float(np.float64(params.sigma0) ** 2 * np.float64(params.s0) ** two_a * two_a ** 2)
        beta_sq_h = float(np.float64(params.beta) ** 2 * params.hurst)
    power = 2.0 * params.hurst - 1.0  # > 0, so u^power is finite at u = 0

    def integrand(u: float) -> float:
        return scale * (0.5 + beta_sq_h * u ** power) * math.exp(-lam * u)

    # split at multiples of 1/lambda: one adaptive pass over [0, t] can miss
    # an e^(-lambda u) boundary layer much thinner than t altogether
    edges = [0.0] + [m / lam for m in (1.0, 4.0, 16.0, 64.0) if lam > 0.0 and m / lam < t] + [t]
    panels = []
    for lo, hi in zip(edges, edges[1:]):
        value, abserr, *info = quad(integrand, lo, hi, epsabs=1e-16, epsrel=1e-10,
                                    limit=200, full_output=True)
        # info[1] is the integrator's warning; its error estimate is
        # conservative about roundoff, so one that meets the tolerance passes
        if len(info) > 1 and abserr > max(1e-10 * abs(value), 1e-13):
            raise QuadratureError(f"quadrature failed: {info[1]} "
                                  f"(achieved abs. error {abserr:.3e})", value, abserr)
        panels.append(value)
    return _finite_phi(t, math.fsum(panels))


def fpt_density(t: float, params: ModelParams) -> float:
    """Density g(t) of the first passage of the price through zero.

    g is the time derivative of default_probability,

        g(t) = C(t) e^(-(2-alpha) r t) / (Gamma(1-xi) phi(t))
               * (x0/phi(t))^(1-xi) * exp(-x0/phi(t)),

    evaluated in log space; values below the exp floor are reported as 0.
    """
    if t <= 0.0:
        raise ValueError(f"fpt_density requires t > 0, got {t}")
    return FirstPassageLaw.of([params]).q_and_g(t)[1].item()


def default_probability(t: float, params: ModelParams) -> float:
    """Risk-neutral probability that the price has hit zero by time t.

    Q(t) = Gamma(1-xi, x0/phi(t)) / Gamma(1-xi), with Q(0) = 0.  Invariant
    to s0 because x0 and phi carry the same s0^(2-alpha) factor, so it is
    evaluated with s0 = 1.
    """
    if t < 0.0:
        raise ValueError(f"default_probability requires t >= 0, got {t}")
    return FirstPassageLaw.of([params]).q(t).item()
