"""Independent reference implementations used as test oracles.

Nothing here imports the package's numerics: erfc, 1F1 and Q over the
whole accepted domain come from mpmath, and the classical square-root-model
absorption probability and spread straight from scipy primitives.  Each
function that uses mpmath imports it, so loading this module leaves it
unloaded.  Values produced by these routines are what the package is
checked against.
"""

from __future__ import annotations

import math
import warnings

from scipy.integrate import IntegrationWarning, quad
from scipy.special import gammaincc


def erfc_reference(x: float) -> float:
    """erfc(x) for x >= 0, from mpmath at 30 digits."""
    if x < 0.0:
        raise ValueError("erfc_reference requires x >= 0")
    import mpmath as mp  # imported here, as in default_probability_mpmath

    with mp.workdps(30):
        return float(mp.erfc(x))


def kummer_reference(a: float, b: float, z: float) -> float:
    """1F1(a; b; z) from mpmath at 30 digits."""
    import mpmath as mp  # imported here, as in default_probability_mpmath

    with mp.workdps(30):
        return float(mp.hyp1f1(a, b, z))


def cev_default_probability(t: float, r: float, sigma0: float, alpha: float,
                            s0: float) -> float:
    """Classical (beta = 0) absorption probability from scipy primitives.

    Q(t) = Gamma_reg_upper(1/(2-a), x0 / psi(t)) with
    psi(t) = delta^2 (2-a)/(2r) (1 - e^(-(2-a) r t)), delta^2 = sigma0^2 s0^(2-a),
    and the r = 0 limit psi = delta^2 (2-a)^2 t / 2.
    """
    if t <= 0.0:
        return 0.0
    two_a = 2.0 - alpha
    delta_sq = sigma0 ** 2 * s0 ** two_a
    if r == 0.0:
        psi = 0.5 * delta_sq * two_a ** 2 * t
    else:
        psi = delta_sq * two_a / (2.0 * r) * (1.0 - math.exp(-two_a * r * t))
    return float(gammaincc(1.0 / two_a, s0 ** two_a / psi))


def cev_spread_bps(maturity: float, r: float, sigma0: float, alpha: float,
                   s0: float, recovery: float, freq: int = 2) -> float:
    """Classical (beta = 0) equilibrium spread from scipy quadrature.

    Protection (1-R)[e^(-rT) Q(T) + r int_0^T e^(-rt) Q dt] against the
    accrual-weighted risky annuity, in basis points.
    """
    q = lambda t: cev_default_probability(t, r, sigma0, alpha, s0)
    integral, _ = quad(lambda t: math.exp(-r * t) * q(t), 0.0, maturity, limit=200)
    protection = (1.0 - recovery) * (math.exp(-r * maturity) * q(maturity) + r * integral)
    n = math.ceil(maturity * freq - 1e-12)
    annuity = sum(math.exp(-r * i / freq) * (1.0 - q(i / freq)) for i in range(1, n + 1)) / freq
    return 1e4 * protection / annuity



def phi_reference(t: float, r: float, sigma0: float, alpha: float, beta: float,
                  hurst: float) -> float:
    """phi(t) in units with s0 = 1, by scipy quadrature of its defining integrand

        sigma0^2 (2-a)^2 (1/2 + beta^2 H u^(2H-1)) e^(-lambda u),  lambda = (2-a) r.

    The range is split at 1, 4, 16 and 64 times 1/lambda: a single quad call
    misses an e^(-lambda u) boundary layer much thinner than t (it returns 0
    at a = -1000, r = 5, t = 100).
    """
    two_a = 2.0 - alpha
    lam = two_a * r
    scale = sigma0 ** 2 * two_a ** 2

    def integrand(u):
        return scale * (0.5 + beta ** 2 * hurst * u ** (2.0 * hurst - 1.0)) * math.exp(-lam * u)

    edges = [0.0] + [m / lam for m in (1.0, 4.0, 16.0, 64.0) if lam > 0.0 and m / lam < t] + [t]
    with warnings.catch_warnings():
        # near 1e-12 quad may report roundoff; its best estimate is still returned
        warnings.simplefilter("ignore", IntegrationWarning)
        return sum(quad(integrand, lo, hi, epsabs=0.0, epsrel=1e-12, limit=200)[0]
                   for lo, hi in zip(edges, edges[1:]))


def default_probability_reference(t: float, r: float, sigma0: float, alpha: float,
                                  beta: float, hurst: float) -> float:
    """Q(t) = gammaincc(1/(2-a), 1/phi(t)) with phi_reference, in units with s0 = 1."""
    return float(gammaincc(1.0 / (2.0 - alpha), 1.0 / phi_reference(t, r, sigma0, alpha,
                                                                     beta, hurst)))


def default_probability_mpmath(t: float, r: float, sigma0: float, alpha: float,
                               beta: float, hurst: float | None) -> float:
    """Q(t) from the closed form of phi, in units with s0 = 1, in mpmath at 60 digits.

        phi(t) = k [(1 - e^(-lambda t)) / (2 lambda) + beta^2 H lambda^(-2H) gamma(2H, lambda t)],

    k = sigma0^2 (2-a)^2, lambda = (2-a) r, and phi = k (t + beta^2 t^(2H)) / 2 at
    r = 0.  mpmath's exponent range holds every magnitude ModelParams
    accepts.  1 - e^(-lambda t) is taken as -expm1(-lambda t): at 60 digits the
    plain difference is 0 for lambda t < 1e-60.
    """
    if t == 0.0:
        return 0.0
    # imported here, so that perfbench, which loads this module for its
    # other oracles, does not carry mpmath in its peak RSS
    import mpmath as mp

    with mp.workdps(60):
        t, r, sigma0, beta = mp.mpf(t), mp.mpf(r), mp.mpf(sigma0), mp.mpf(beta)
        two_a = 2 - mp.mpf(alpha)
        h = mp.mpf(0.5 if hurst is None else hurst)
        lam = two_a * r
        k = sigma0 ** 2 * two_a ** 2
        if lam == 0:
            phi = k * (t + beta ** 2 * t ** (2 * h)) / 2
        else:
            phi = k * (-mp.expm1(-lam * t) / (2 * lam)
                       + beta ** 2 * h * lam ** (-2 * h) * mp.gammainc(2 * h, 0, lam * t))
        return float(mp.gammainc(1 / two_a, 1 / phi, mp.inf, regularized=True))


def spread_reference_bps(maturity: float, r: float, sigma0: float, alpha: float,
                         beta: float, hurst: float, recovery: float, freq: int = 2) -> float:
    """Equilibrium spread from default_probability_reference and scipy quadrature.

    Protection (1-R)[e^(-rT) Q(T) + r int_0^T e^(-rt) Q dt] against the
    accrual-weighted risky annuity, in basis points.  The integral is taken
    over ln t in 40 pieces reaching down to T e^(-60), so that quad sees
    the switch-on of Q however early it comes.
    """
    def q(t):
        return default_probability_reference(t, r, sigma0, alpha, beta, hurst)

    def integrand(y):
        t = math.exp(y)
        return t * math.exp(-r * t) * q(t)

    integral = 0.0
    if r > 0.0:
        edges = [math.log(maturity) - 60.0 + 1.5 * i for i in range(41)]
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", IntegrationWarning)
            integral = math.fsum(quad(integrand, lo, hi, epsabs=0.0, epsrel=1e-12, limit=200)[0]
                                 for lo, hi in zip(edges, edges[1:]))
    protection = (1.0 - recovery) * (math.exp(-r * maturity) * q(maturity) + r * integral)
    n = math.ceil(maturity * freq - 1e-12)
    annuity = sum(math.exp(-r * i / freq) * (1.0 - q(i / freq)) for i in range(1, n + 1)) / freq
    return 1e4 * protection / annuity


#: benchmark spread grid, in basis points: (beta, hurst) -> {(maturity, alpha): bps}
TABLE1_BPS = {
    (0.0, None): {(1, 0): 0.0015, (1, -2): 14.6761, (2, 0): 0.4976, (2, -2): 49.3693,
                  (5, 0): 11.0929, (5, -2): 71.0707, (10, 0): 22.0907, (10, -2): 58.1472},
    (0.5, 0.8): {(1, 0): 0.0220, (1, -2): 33.0638, (2, 0): 3.6859, (2, -2): 97.5923,
                 (5, 0): 45.8409, (5, -2): 130.6805, (10, 0): 73.6537, (10, -2): 107.2735},
    (0.5, 0.9): {(1, 0): 0.0219, (1, -2): 32.9327, (2, 0): 4.5121, (2, -2): 104.3824,
                 (5, 0): 61.1677, (5, -2): 148.0252, (10, 0): 99.5110, (10, -2): 125.2780},
    (1.0, 0.8): {(1, 0): 1.3802, (1, -2): 121.9533, (2, 0): 45.2696, (2, -2): 250.5198,
                 (5, 0): 182.4174, (5, -2): 265.8567, (10, 0): 206.8295, (10, -2): 206.2857},
    (1.0, 0.9): {(1, 0): 1.3665, (1, -2): 121.0740, (2, 0): 58.1627, (2, -2): 275.5237,
                 (5, 0): 240.6370, (5, -2): 307.8064, (10, 0): 270.6823, (10, -2): 244.4577},
}


def table1_tolerance(ref_bps: float) -> float:
    """Spread-grid reproduction tolerance: max(0.5% relative, 0.005 bps)."""
    return max(0.005 * ref_bps, 0.005)
