"""Model parameters, the power transform of the price, and default analytics.

The model is a constant-elasticity-of-variance price S driven by W + beta
B^H, a Brownian motion plus an independent fractional Brownian motion with
Hurst exponent in (3/4, 1); default is the first time S hits zero.  The law
priced here and simulated in ``mc`` is the paper's effective-variance
reduction, the Markov diffusion dS = r S dt + delta S^(alpha/2) dW_v on the
clock v(t) = t + beta^2 t^(2H), not the pathwise SDE driven by W + beta B^H,
whose noise is equivalent in law to a Brownian motion (Cheridito 2001,
Bernoulli 7(6)): at alpha = r = 0, sigma0 = 0.2, beta = 1 and H = 0.9 that
SDE reads Q(2) = 0.0207, the clock 0.0312.  Under the power transform
x = S^(2-alpha) the state is a time-inhomogeneous square-root diffusion

    dx = [A x + B(t)] dt + sqrt(2 C(t) x) dW,

and the probability that x has been absorbed at zero by time t has the
closed form

    Q(t) = Gamma(1-xi, x0 / phi(t)) / Gamma(1-xi),

with xi = (1-alpha)/(2-alpha) and phi the discounted running integral of
C.  This module evaluates phi (closed form and quadrature oracle), the
first-passage density g = dQ/dt, and Q; the scalar functions are thin views
of the array-native ``FirstPassageLaw``, whose docstring gives the accuracy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from typing import Sequence

import numpy as np
from scipy.special import gammainc, gammaincc, gammaln

from .errors import NumericalError, ParameterError, QuadratureError

#: ln(lambda t) is clamped up to this, where (1 - e^(-x))/x and
#: Gamma(2H+1) x^(-2H) P(2H, x) are 1 to double precision
LOG_X_MIN = math.log(1e-17)

#: Q(s, u) is evaluated as 1 - P(s, u) below this u = x0/phi (see
#: _regularized_upper_gamma)
Q_SPLIT_U = 1.1

#: log-density floor; anything below exp(LOG_FLOOR) is reported as exact 0
LOG_FLOOR = -700.0

#: the CDS leg integrals start where x0/phi >= ONSET_U: Q, g < e^(-ONSET_U) before
ONSET_U = 700.0


#: the most negative alpha ModelParams accepts: Q's accuracy is stated down to it
ALPHA_MIN = -1000.0


@dataclass(frozen=True)
class ModelParams:
    """Mixed-fractional CEV parameter set.

    r       risk-free rate (per year, >= 0)
    sigma0  at-the-money volatility scale (per sqrt(year), > 0)
    alpha   elasticity exponent, in [-1000, 2): below 2 so that zero is
            attainable, and down to -1000, where Q's accuracy is stated
    beta    fractional mixing weight (>= 0; 0 recovers the classical CEV)
    hurst   Hurst exponent of the fractional component, in (3/4, 1); may
            be None only when beta = 0, where H has no role
    s0      initial price (> 0)

    The volatility coefficient of the price SDE is delta = sigma0 *
    s0^((2-alpha)/2), so sigma0 is the local volatility at inception and
    every default/spread quantity is invariant to the price level.
    """

    r: float
    sigma0: float
    alpha: float
    beta: float
    hurst: float | None
    s0: float = 50.0

    def __post_init__(self):
        """Check every constraint; raise ParameterError naming the first violated one.

        Each check is a comparison that NaN fails, bounded strictly at the
        infinite end, so every parameter must also be finite.
        """
        if not ALPHA_MIN <= self.alpha < 2.0:
            raise ParameterError("alpha", f"alpha must lie in [{ALPHA_MIN:g}, 2), got {self.alpha}")
        if self.hurst is not None and not 0.75 < self.hurst < 1.0:
            raise ParameterError("hurst", f"hurst must lie in (3/4, 1), got {self.hurst}")
        if not 0.0 <= self.beta < math.inf:
            raise ParameterError("beta", f"beta must be finite and >= 0, got {self.beta}")
        if self.hurst is None and self.beta != 0.0:
            raise ParameterError("hurst", f"hurst may be omitted only at beta = 0, not {self.beta}")
        if not 0.0 < self.sigma0 < math.inf:
            raise ParameterError("sigma0", f"sigma0 must be finite and > 0, got {self.sigma0}")
        if not 0.0 <= self.r < math.inf:
            raise ParameterError("r", f"r must be finite and >= 0, got {self.r}")
        if not 0.0 < self.s0 < math.inf:
            raise ParameterError("s0", f"s0 must be finite and > 0, got {self.s0}")

    @property
    def effective_hurst(self) -> float:
        """H as every formula reads it: hurst, or 1/2 on a classical row.

        There beta = 0 zeroes every term that holds H, so any H gives the
        same bits, and 2H = 1 keeps each of those terms finite for any t.
        """
        return 0.5 if self.hurst is None else self.hurst


def _regularized_upper_gamma(s, u, log_u) -> np.ndarray:
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

    Below the smallest normal double u is subnormal or 0, and ``gammainc``
    loses digits there (6e-9 relative at alpha = -718).  P(s, u) =
    u^s / Gamma(1+s) to double precision, so Q = -expm1(s ln u -
    ln Gamma(1+s)), from ln u.

    u and ln u carry the broadcast shape.  The bands are gathered and
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
    tiny = u < np.finfo(float).tiny
    if tiny.any():
        s = s[tiny]
        out[tiny] = -np.expm1(s * log_u[tiny] - gammaln(1.0 + s))
    return out


def _log1p_exp(z):
    """ln(1 + e^z) for any z, -inf included: about four times faster than np.logaddexp(0, z)."""
    tail = np.exp(-np.abs(z))
    return np.maximum(z, 0.0) + np.log1p(tail, out=tail)


def _column(values) -> np.ndarray:
    return np.asarray(values, dtype=float).reshape(-1, 1)


@dataclass(frozen=True)
class FirstPassageLaw:
    """phi, Q and g of a batch of parameter sets, in units with s0 = 1.

    Q and g depend on the initial state only through x0/phi(t), and phi is
    proportional to delta^2 = sigma0^2 s0^(2-alpha).  With s0 = 1 the state
    is x0 = 1 and delta^2 = sigma0^2, so no power of s0 is ever formed; phi
    in model units is s0^(2-alpha) times ``phi`` here.

    Every attribute is a column with one row per parameter set, so the
    methods broadcast against a (rows, times) array of times t >= 0.  With
    lambda = (2-alpha) r, k = sigma0^2 (2-alpha)^2 and x = lambda t,

        C(t)   = (k/2) (1 + 2H beta^2 t^(2H-1)),
        phi(t) = (k/2) [t D(x) + beta^2 t^(2H) F(x)],
        D(x)   = (1 - e^(-x)) / x,   F(x) = Gamma(2H+1) x^(-2H) P(2H, x),

    the second term of phi being k beta^2 H integral_0^t v^(2H-1) e^(-lambda v) dv.
    H is ``ModelParams.effective_hurst``, 1/2 on a classical row.

    phi is taken as ln phi from the logarithms of the parameters, its two
    terms added by a softplus, so no factor leaves the double range.  ln x
    is clamped up to LOG_X_MIN, where D = F = 1 to double precision, so one
    expression serves every r >= 0 (ln lambda = -inf at r = 0).  Q and g
    read ln u = -ln phi, so every accepted input has a Q.  ln phi is off by
    a few ulps of the largest logarithm formed, and Q by u times that: over
    the log-uniform domain (sigma0, t in [1e-300, 1e300], beta to 1e300, r
    to 1e308, alpha to -1000) Q was within 7.9e-12 relative of mpmath in
    4,800 draws.

    ``q`` and ``q_and_g`` share one Q evaluator, ``_regularized_upper_gamma``,
    so they give the same Q bit for bit.
    """

    r: np.ndarray
    log_lam: np.ndarray
    log_half_k: np.ndarray
    log_beta_sq: np.ndarray
    two_h: np.ndarray
    s: np.ndarray

    @classmethod
    def of(cls, params: Sequence[ModelParams]) -> "FirstPassageLaw":
        r = _column([p.r for p in params])
        two_a = 2.0 - _column([p.alpha for p in params])
        log_two_a = np.log(two_a)
        with np.errstate(divide="ignore"):  # ln 0 = -inf at r = 0 and at beta = 0
            log_lam = log_two_a + np.log(r)
            log_beta_sq = 2.0 * np.log(_column([p.beta for p in params]))
        log_sigma0 = np.log(_column([p.sigma0 for p in params]))
        log_half_k = 2.0 * (log_sigma0 + log_two_a) - math.log(2.0)
        return cls(r=r, log_lam=log_lam, log_half_k=log_half_k, log_beta_sq=log_beta_sq,
                   two_h=2.0 * _column([p.effective_hurst for p in params]), s=1.0 / two_a)

    def take(self, rows) -> "FirstPassageLaw":
        """The law of the selected rows."""
        return FirstPassageLaw(**{f.name: getattr(self, f.name)[rows] for f in fields(self)})

    def onset(self, horizon) -> np.ndarray:
        """Per row, a time up to which Q and g stay below about e^(-ONSET_U), capped at horizon.

        As D, F <= 1, phi(t) <= (k/2) (t + beta^2 t^(2H)), and at the returned
        time each of the two terms is at most 1 / (2 ONSET_U); so up to there
        1 / phi >= ONSET_U.  It is at least the smallest positive double.
        """
        log_bound = -self.log_half_k - math.log(2.0 * ONSET_U)
        log_onset = np.minimum(log_bound, (log_bound - self.log_beta_sq) / self.two_h)
        with np.errstate(over="ignore"):
            return np.maximum(np.minimum(horizon, np.exp(log_onset)), 5e-324)

    def _log_phi(self, t) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """y = ln(beta^2 t^(2H-1)), x = lambda t and ln phi(t); ln phi is finite for t > 0."""
        with np.errstate(over="ignore", divide="ignore"):  # x = inf, and ln 0 at t = 0
            log_t = np.log(t)
            log_x = np.maximum(self.log_lam + log_t, LOG_X_MIN)
            x = np.exp(log_x)
            log_d = np.log(-np.expm1(-x)) - log_x
            log_f = np.log(gammainc(self.two_h, x)) - self.two_h * log_x
        y = self.log_beta_sq + (self.two_h - 1.0) * log_t
        # ln phi = ln(k/2) + ln(t D) + ln(1 + beta^2 t^(2H) F / (t D)), in place
        log_f += y - log_d + gammaln(self.two_h + 1.0)
        log_d += log_t + self.log_half_k
        return y, x, log_d + _log1p_exp(log_f)

    def phi(self, t) -> np.ndarray:
        """phi(t) for t > 0: inf or 0 where it leaves the double range."""
        with np.errstate(over="ignore"):
            return np.exp(self._log_phi(t)[2])

    def q(self, t) -> np.ndarray:
        """Default probability Q(t) = Gamma(s, 1/phi(t)) / Gamma(s), s = 1 - xi, with Q(0) = 0."""
        # at t = 0 ln phi is -inf, or NaN (0 * ln 0) on a classical row; Q(0) = 0 is set apart
        with np.errstate(over="ignore", invalid="ignore"):
            log_u = -self._log_phi(t)[2]
            q = _regularized_upper_gamma(self.s, np.exp(log_u), log_u)
        return np.where(t > 0.0, q, 0.0)

    def q_and_g(self, t) -> tuple[np.ndarray, np.ndarray]:
        """Q(t) and the first-passage density g(t) = dQ/dt, for t > 0.

        g(t) = C(t) e^(-lambda t) / Gamma(s) * u^(1+s) e^(-u), u = 1/phi(t),
        evaluated in log space; values below exp(LOG_FLOOR) are exact 0.
        """
        y, x, log_phi = self._log_phi(t)
        log_u = -log_phi
        with np.errstate(over="ignore"):
            u = np.exp(log_u)
            q = _regularized_upper_gamma(self.s, u, log_u)
            # ln C = ln(k/2) + ln(1 + 2H beta^2 t^(2H-1))
            log_g = (_log1p_exp(y + np.log(self.two_h)) - x + (1.0 + self.s) * log_u - u
                     + (self.log_half_k - gammaln(self.s)))
            g = np.exp(log_g)
        g[log_g < LOG_FLOOR] = 0.0
        return q, g


def _finite_phi(t: float, phi) -> float:
    if not math.isfinite(phi):
        raise NumericalError(f"phi({t}) in model units is not finite in double precision")
    return float(phi)


def phi_closed(t: float, params: ModelParams) -> float:
    """Closed form of phi(t) = integral_0^t C(u) e^(-(2-alpha) r u) du, in model units.

    That is exp((2-alpha) ln s0 + ln phi) with ``FirstPassageLaw``'s phi,
    whose docstring gives the formula.  Raises NumericalError where phi in
    model units is not finite in double precision.
    """
    if not 0.0 <= t < math.inf:
        raise ValueError(f"phi requires a finite t >= 0, got {t}")
    if t == 0.0:
        return 0.0
    log_phi = FirstPassageLaw.of([params])._log_phi(t)[2]
    with np.errstate(over="ignore"):
        phi = np.exp((2.0 - params.alpha) * math.log(params.s0) + log_phi)
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
    if not 0.0 <= t < math.inf:
        raise ValueError(f"phi requires a finite t >= 0, got {t}")
    if t == 0.0:
        return 0.0
    # Importing scipy.integrate here keeps it (about 25 MB and 0.2 s) out of
    # every pricing process.
    from scipy.integrate import quad

    two_a = 2.0 - params.alpha
    lam = two_a * params.r
    hurst = params.effective_hurst
    # numpy scalars overflow to inf (and phi with them) where Python floats raise
    with np.errstate(over="ignore", invalid="ignore"):
        scale = float(np.float64(params.sigma0) ** 2 * np.float64(params.s0) ** two_a * two_a ** 2)
        beta_sq_h = float(np.float64(params.beta) ** 2 * hurst)
    power = 2.0 * hurst - 1.0  # >= 0, so u^power is finite at u = 0

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
    if not 0.0 < t < math.inf:
        raise ValueError(f"fpt_density requires a finite t > 0, got {t}")
    return FirstPassageLaw.of([params]).q_and_g(t)[1].item()


def default_probability(t: float, params: ModelParams) -> float:
    """Risk-neutral probability that the price has hit zero by time t.

    Q(t) = Gamma(1-xi, x0/phi(t)) / Gamma(1-xi), with Q(0) = 0.  Invariant
    to s0 because x0 and phi carry the same s0^(2-alpha) factor, so it is
    evaluated with s0 = 1.  Every accepted input has a Q, within the
    accuracy ``FirstPassageLaw`` states.
    """
    if not 0.0 <= t < math.inf:
        raise ValueError(f"default_probability requires a finite t >= 0, got {t}")
    return FirstPassageLaw.of([params]).q(t).item()
