"""Acceptance suite: one test (and one printed PASS/FAIL line) per criterion.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines as they
are produced.  Criterion 7 simulates 2e5 paths x 5000 steps three times and
dominates the runtime (about 15 s on a 2-vCPU x86-64 VM).
"""

import math
import subprocess
import sys
from pathlib import Path

import mpmath
import numpy as np
import pytest
from scipy.integrate import quad

from mfcev.cds import (CdsContract, cds_spread, premium_annuity,
                       protection_leg, spread_table)
from mfcev.core import (ModelParams, default_probability, fpt_density,
                        phi_closed, phi_quadrature)
from mfcev.mc import McConfig, mc_cds_spread

from reference import TABLE1_BPS, erfc_reference, table1_tolerance

BETAS_HURSTS = [(0.0, None), (0.5, 0.8), (0.5, 0.9), (1.0, 0.8), (1.0, 0.9)]
MATURITIES = [1.0, 2.0, 5.0, 10.0]


def benchmark_params(alpha, beta, hurst):
    return ModelParams(r=0.05, sigma0=0.2, alpha=alpha, beta=beta, hurst=hurst, s0=50.0)


def report(number: int, name: str, ok: bool, detail: str) -> None:
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE criterion {number} ({name}): {status} [{detail}]")
    assert ok, f"criterion {number} ({name}): {detail}"


def test_criterion_1_table1_reproduction():
    # calibration step: the accrual-inclusive annuity convention must land
    # near the 22.0907 bps benchmark cell; the literal no-accrual sum must not
    p = benchmark_params(0.0, 0.0, None)
    contract = CdsContract(maturity=10.0, recovery=0.5)
    inclusive = cds_spread(contract, p)
    exclusive = 1e4 * protection_leg(contract, p) / (
        premium_annuity(contract, p) * contract.payments_per_year)
    assert abs(inclusive - 22.0907) < abs(exclusive - 22.0907)
    assert abs(inclusive - 22.0907) <= table1_tolerance(22.0907)

    cells = spread_table(0.05, 0.2, [0.0, -2.0], BETAS_HURSTS, MATURITIES)
    worst = 0.0
    failures = []
    for cell in cells:
        ref = TABLE1_BPS[(cell.beta, cell.hurst)][(int(cell.maturity), int(cell.alpha))]
        err = abs(cell.spread_bps - ref)
        worst = max(worst, err / max(ref, 1e-12))
        if err > table1_tolerance(ref):
            failures.append((cell, ref))
    report(1, "table1-reproduction", not failures,
           f"40 cells, worst rel err {worst:.2e}, calibration "
           f"{inclusive:.4f} vs {exclusive:.4f} bps")


def test_criterion_2_phi_closed_vs_quadrature():
    worst = 0.0
    n_points = 0
    for alpha in (-2.0, 0.0, 1.5):
        for beta in (0.0, 0.5, 1.0):
            for hurst in (0.76, 0.8, 0.9, 0.99):
                for t in (0.05, 0.5, 1.0, 2.0, 5.0, 10.0):
                    p = benchmark_params(alpha, beta, hurst)
                    closed = phi_closed(t, p)
                    oracle = phi_quadrature(t, p)
                    worst = max(worst, abs(closed - oracle) / oracle)
                    n_points += 1
    report(2, "phi-closed-vs-quadrature", worst <= 1e-8,
           f"{n_points} grid points, worst rel diff {worst:.2e}")


def test_criterion_3_density_cdf_consistency():
    worst = 0.0
    for beta, hurst in BETAS_HURSTS:
        for alpha in (0.0, -2.0):
            for horizon in MATURITIES:
                p = benchmark_params(alpha, beta, hurst)
                integral, _ = quad(lambda t: fpt_density(t, p), 0.0, horizon,
                                   limit=200)
                q = default_probability(horizon, p)
                worst = max(worst, abs(integral - q) / q)
    report(3, "density-integrates-to-cdf", worst <= 1e-6,
           f"40 parameter sets, worst rel diff {worst:.2e}")


def test_criterion_4_classical_erfc_reduction():
    p = benchmark_params(0.0, 0.0, None)
    q = default_probability(10.0, p)
    u = 0.05 / (0.04 * -math.expm1(-1.0))
    ref = erfc_reference(math.sqrt(u))
    diff = abs(q - ref)
    report(4, "alpha0-erfc-reduction",
           diff <= 1e-10 and round(q, 4) == 0.0467,
           f"Q(10) = {q:.12f} vs erfc ref {ref:.12f}, |diff| = {diff:.2e}")


def test_criterion_5_initial_price_invariance():
    worst_q = 0.0
    worst_s = 0.0
    for alpha, beta, hurst in ((0.0, 0.5, 0.8), (-2.0, 1.0, 0.9), (1.5, 0.5, 0.99)):
        qs, spreads = [], []
        for s0 in (1.0, 50.0, 1000.0):
            p = ModelParams(r=0.05, sigma0=0.2, alpha=alpha, beta=beta,
                            hurst=hurst, s0=s0)
            qs.append(default_probability(5.0, p))
            spreads.append(cds_spread(CdsContract(maturity=5.0, recovery=0.5), p))
        worst_q = max(worst_q, max(abs(q - qs[0]) for q in qs))
        scale = max(abs(spreads[0]), 1e-300)
        worst_s = max(worst_s, max(abs(s - spreads[0]) / scale for s in spreads))
    report(5, "initial-price-invariance", worst_q <= 1e-12 and worst_s <= 1e-12,
           f"max |dQ| {worst_q:.2e}, max spread rel diff {worst_s:.2e}")


def test_criterion_6_monotonicity_suite():
    ok = True
    details = []

    for alpha, beta, hurst in ((0.0, 0.0, None), (-2.0, 1.0, 0.9)):
        p = benchmark_params(alpha, beta, hurst)
        values = [default_probability(0.2 * i, p) for i in range(51)]
        if not all(b >= a for a, b in zip(values, values[1:])):
            ok = False
            details.append("Q not nondecreasing in t")

    for t in (1.0, 5.0):
        qs = [default_probability(t, benchmark_params(-2.0, b, 0.8))
              for b in (0.0, 0.25, 0.5, 0.75, 1.0)]
        spreads = [cds_spread(CdsContract(maturity=t, recovery=0.5),
                              benchmark_params(-2.0, b, 0.8))
                   for b in (0.0, 0.25, 0.5, 0.75, 1.0)]
        if not all(b > a for a, b in zip(qs, qs[1:])):
            ok = False
            details.append(f"Q not strictly increasing in beta at t={t}")
        if not all(b > a for a, b in zip(spreads, spreads[1:])):
            ok = False
            details.append(f"spread not strictly increasing in beta at T={t}")

    contract = CdsContract(maturity=1.0, recovery=0.5)
    s_low = cds_spread(contract, benchmark_params(-2.0, 0.5, 0.8))
    s_high = cds_spread(contract, benchmark_params(-2.0, 0.5, 0.9))
    pinned = (abs(s_low - 33.0638) <= table1_tolerance(33.0638)
              and abs(s_high - 32.9327) <= table1_tolerance(32.9327)
              and s_low > s_high)
    if not pinned:
        ok = False
        details.append("H non-monotonicity cell not reproduced")
    report(6, "monotonicity-suite", ok,
           "; ".join(details) if details
           else f"pinned H cells {s_low:.4f} > {s_high:.4f}")


@pytest.mark.slow
def test_criterion_7_mc_validation():
    cases = [(0.0, 0.0, None), (-2.0, 0.5, 0.8), (0.0, 1.0, 0.9)]
    contract = CdsContract(maturity=2.0, recovery=0.5)
    cfg = McConfig(n_paths=200_000, n_steps=5000, horizon=2.0, seed=20260808)
    ok = True
    details = []
    for alpha, beta, hurst in cases:
        p = benchmark_params(alpha, beta, hurst)
        analytic_q = default_probability(2.0, p)
        analytic_spread = cds_spread(contract, p)
        mc = mc_cds_spread(p, contract, cfg)
        p_hat = mc.n_defaulted / mc.n_paths
        se = math.sqrt(p_hat * (1.0 - p_hat) / mc.n_paths)
        z = (p_hat - analytic_q) / se if se > 0 else math.inf
        rel = abs(mc.estimate - analytic_spread) / analytic_spread
        case_ok = abs(z) <= 4.0 and rel <= 0.02
        ok = ok and case_ok
        details.append(f"(a={alpha:g},b={beta:g},H={hurst or '-'}): "
                       f"z={z:+.2f}, spread rel={rel:.2%}")
    report(7, "mc-validation", ok, "; ".join(details))


def test_criterion_8_whittaker_reduction():
    # the paper's Whittaker M form of the fractional term, checked in mpmath:
    # for (kappa, mu) = (H, H + 1/2) the 1F1 parameters collapse to (1, 2H + 2)
    worst = 0.0
    for hurst in (0.76, 0.8, 0.9, 0.99):
        for z in np.geomspace(0.01, 20.0, 25):
            generic = float(mpmath.whitm(hurst, hurst + 0.5, z))
            reduced = (math.exp(-0.5 * z) * z ** (hurst + 1.0)
                       * float(mpmath.hyp1f1(1.0, 2.0 * hurst + 2.0, z)))
            worst = max(worst, abs(generic - reduced) / reduced)
    worst_sinh = 0.0
    for z in np.linspace(0.5, 20.0, 40):
        value = float(mpmath.whitm(0.0, 0.5, z))
        ref = 2.0 * math.sinh(0.5 * z)
        worst_sinh = max(worst_sinh, abs(value - ref) / ref)
    report(8, "whittaker-reduction", worst <= 1e-10 and worst_sinh <= 1e-12,
           f"1F1 reduction worst rel {worst:.2e}, sinh case worst rel {worst_sinh:.2e}")


def test_criterion_9_curve_ordering(tmp_path):
    root = Path(__file__).resolve().parents[1]
    ok = True
    details = []
    for alpha in (-2.0, 0.0):
        for hurst in (0.8, 0.9):
            proc = subprocess.run(
                [sys.executable, "-m", "mfcev", "curve",
                 "--alpha", str(alpha), "--sigma0", "0.2", "--rate", "0.05",
                 "--tmax", "10", "--points", "41",
                 "--series", "0", "--series", f"0.5:{hurst}",
                 "--series", f"1:{hurst}"],
                capture_output=True, text=True,
                env={"PYTHONPATH": str(root / "src"), "PATH": "/usr/bin:/bin"})
            assert proc.returncode == 0, proc.stderr
            rows = [line.split(",") for line in proc.stdout.strip().split("\n")[1:]]
            q0 = [float(r[1]) for r in rows]
            q_half = [float(r[2]) for r in rows]
            q_one = [float(r[3]) for r in rows]
            pointwise = (all(h >= c for c, h in zip(q0, q_half))
                         and all(o >= h for h, o in zip(q_half, q_one)))
            strict_at_end = q0[-1] < q_half[-1] < q_one[-1]
            if not (pointwise and strict_at_end):
                ok = False
                details.append(f"ordering violated at alpha={alpha}, H={hurst}")
    report(9, "figure-curve-ordering", ok,
           "; ".join(details) if details else "4 curve families, 41 points each")
