"""Scalar special functions that report their own convergence.

Log-gamma (libm's), the regularized upper incomplete gamma Q(s,x), Kummer's
confluent hypergeometric 1F1 and the Whittaker M function.  Everything is
scalar, double precision, real arguments only.  Pricing does not use this
module (it takes the array ufuncs of ``scipy.special``).  It stays only for
the benchmark harness's terms replay, which imports
``reg_gamma_upper_result`` and ``whittaker_m_result``, until that import is
dropped (ROADMAP item 2).

Algorithms are the classic stable split: lower incomplete gamma by power
series for x < s+1, upper by modified-Lentz continued fraction otherwise;
1F1 by ascending series with an asymptotic branch for large argument.
Iterative routines carry an explicit convergence flag instead of failing
silently when the term budget runs out.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

#: iteration budget for every series / continued fraction in this module
MAX_TERMS = 500

#: relative stagnation tolerance that stops the iterations
STAGNATION_TOL = 1e-15

#: arguments above this switch 1F1 to its large-z asymptotic expansion
ASYMPTOTIC_Z = 50.0

@dataclass(frozen=True)
class SpecFunResult:
    """Value of an iteratively evaluated special function.

    ``converged`` is False when the iteration budget was exhausted before
    the stagnation tolerance was met; ``terms_used`` counts the terms (or
    continued-fraction levels) actually consumed.
    """

    value: float
    converged: bool
    terms_used: int


def log_gamma(s: float) -> float:
    """Natural log of the gamma function for s > 0, from libm's lgamma."""
    if not s > 0.0:
        raise ValueError(f"log_gamma requires s > 0, got {s}")
    return math.lgamma(s)


def _gamma_prefactor_log(s: float, x: float) -> float:
    """log of x^s e^-x / Gamma(s), the scale shared by both gamma branches."""
    return s * math.log(x) - x - log_gamma(s)


def _lower_series(s: float, x: float) -> tuple[float, bool, int]:
    """P(s,x) by ascending series; valid and stable for x < s + 1."""
    term = 1.0 / s
    total = term
    denom = s
    for n in range(1, MAX_TERMS + 1):
        denom += 1.0
        term *= x / denom
        total += term
        if abs(term) <= STAGNATION_TOL * abs(total):
            return math.exp(_gamma_prefactor_log(s, x)) * total, True, n
    return math.exp(_gamma_prefactor_log(s, x)) * total, False, MAX_TERMS


def _upper_continued_fraction(s: float, x: float) -> tuple[float, bool, int]:
    """Q(s,x) by the even continued fraction, modified-Lentz evaluation."""
    tiny = 1e-300
    b = x + 1.0 - s
    c = 1.0 / tiny
    d = 1.0 / b if b != 0.0 else 1.0 / tiny
    h = d
    for i in range(1, MAX_TERMS + 1):
        an = -i * (i - s)
        b += 2.0
        d = an * d + b
        if abs(d) < tiny:
            d = tiny
        c = b + an / c
        if abs(c) < tiny:
            c = tiny
        d = 1.0 / d
        delta = d * c
        h *= delta
        if abs(delta - 1.0) <= STAGNATION_TOL:
            return math.exp(_gamma_prefactor_log(s, x)) * h, True, i
    return math.exp(_gamma_prefactor_log(s, x)) * h, False, MAX_TERMS


def reg_gamma_upper_result(s: float, x: float) -> SpecFunResult:
    """Regularized upper incomplete gamma Q(s,x) with convergence metadata."""
    if not s > 0.0:
        raise ValueError(f"regularized gamma requires s > 0, got {s}")
    if x < 0.0:
        raise ValueError(f"regularized gamma requires x >= 0, got {x}")
    if x == 0.0:
        return SpecFunResult(1.0, True, 0)
    if x < s + 1.0:
        p, ok, n = _lower_series(s, x)
        return SpecFunResult(1.0 - p, ok, n)
    return SpecFunResult(*_upper_continued_fraction(s, x))


def _kummer_series(a: float, b: float, z: float) -> tuple[float, bool, int]:
    term = 1.0
    total = 1.0
    for n in range(MAX_TERMS):
        term *= (a + n) / (b + n) * z / (n + 1.0)
        total += term
        if abs(term) <= STAGNATION_TOL * abs(total):
            return total, True, n + 1
    return total, False, MAX_TERMS


def _kummer_asymptotic(a: float, b: float, z: float) -> tuple[float, bool, int]:
    # 1F1(a;b;z) ~ Gamma(b)/Gamma(a) e^z z^(a-b) * sum_k (b-a)_k (1-a)_k / (k! z^k)
    # for z -> +inf; truncated at the smallest term.
    log_pref = z + (a - b) * math.log(z) + log_gamma(b) - log_gamma(a)
    total = 1.0
    term = 1.0
    prev_abs = math.inf
    for k in range(MAX_TERMS):
        term *= (b - a + k) * (1.0 - a + k) / ((k + 1.0) * z)
        if abs(term) >= prev_abs:
            return math.exp(log_pref) * total, True, k + 1
        total += term
        if abs(term) <= STAGNATION_TOL * abs(total):
            return math.exp(log_pref) * total, True, k + 1
        prev_abs = abs(term)
    return math.exp(log_pref) * total, False, MAX_TERMS


def kummer_1f1_result(a: float, b: float, z: float) -> SpecFunResult:
    """Confluent hypergeometric 1F1(a; b; z) with convergence metadata.

    Ascending series with term-ratio stopping for z <= 50; for larger z the
    exponential asymptotic expansion takes over (requires a > 0 there).
    """
    if not b > 0.0:
        raise ValueError(f"1F1 requires b > 0, got {b}")
    if z < 0.0:
        raise ValueError(f"1F1 requires z >= 0, got {z}")
    if z == 0.0:
        return SpecFunResult(1.0, True, 0)
    if z > ASYMPTOTIC_Z and a > 0.0:
        value, ok, n = _kummer_asymptotic(a, b, z)
    else:
        value, ok, n = _kummer_series(a, b, z)
    return SpecFunResult(value, ok, n)


def whittaker_m_result(kappa: float, mu: float, z: float) -> SpecFunResult:
    """Whittaker M_{kappa,mu}(z) with convergence metadata.

    Evaluated through the confluent hypergeometric representation

        M_{kappa,mu}(z) = e^(-z/2) z^(mu+1/2) 1F1(mu-kappa+1/2; 1+2mu; z)

    valid for z > 0 when 1+2mu is not a nonpositive integer.
    """
    if not z > 0.0:
        raise ValueError(f"Whittaker M requires z > 0, got {z}")
    b = 1.0 + 2.0 * mu
    if b <= 0.0 and abs(b - round(b)) < 1e-12:
        raise ValueError(f"Whittaker M undefined: 1+2*mu = {b} is a nonpositive integer")
    a = mu - kappa + 0.5
    f = kummer_1f1_result(a, b, z)
    log_pref = -0.5 * z + (mu + 0.5) * math.log(z)
    if f.value > 0.0 and math.isfinite(f.value):
        value = math.exp(log_pref + math.log(f.value))
    else:
        value = math.exp(log_pref) * f.value
    return SpecFunResult(value, f.converged, f.terms_used)
