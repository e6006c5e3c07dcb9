"""Property tests over the whole parameter domain that ModelParams accepts.

Every accepted input must either price, or fail with a documented error and
exit code; Q is checked against a scipy oracle in units with s0 = 1, and
against an mpmath oracle over every magnitude ModelParams accepts.  A
classical row (beta = 0) gives the same bits with or without a Hurst exponent,
a default curve is Q on the uniform grid and each row of a batch of curves
is that series' curve alone, the Monte-Carlo default times are
those of a plain loop over the seed's draws, and the Monte-Carlo spread is
that of a plain loop over the premium dates.
"""

import contextlib
import io
import math
import pickle
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from mfcev import cds
from mfcev.cli import main
from mfcev.core import (FirstPassageLaw, ModelParams, default_probability, phi_closed,
                        phi_quadrature)
from mfcev.errors import NumericalError
from mfcev.mc import McConfig, McResult, simulate_fpt, spread_estimate

from reference import default_probability_mpmath, default_probability_reference

DOMAIN = dict(
    alpha=st.floats(min_value=-1000.0, max_value=2.0, exclude_max=True),
    hurst=st.floats(min_value=0.75, max_value=1.0, exclude_min=True, exclude_max=True),
    beta=st.floats(min_value=0.0, max_value=50.0),
    r=st.floats(min_value=0.0, max_value=5.0),
    maturity=st.floats(min_value=1e-3, max_value=100.0),
    sigma0=st.floats(min_value=0.05, max_value=1.0),
)


def log_uniform(lo, hi):
    return st.floats(min_value=math.log10(lo), max_value=math.log10(hi)).map(lambda e: 10.0 ** e)


#: every magnitude ModelParams accepts, log-uniform, with r = 0 and beta = 0 drawn as such
WHOLE_DOMAIN = dict(
    alpha=DOMAIN["alpha"],
    hurst=DOMAIN["hurst"],
    beta=st.just(0.0) | log_uniform(1e-3, 1e300),
    r=st.just(0.0) | log_uniform(1e-12, 1e308),
    t=log_uniform(1e-300, 1e300),
    sigma0=log_uniform(1e-300, 1e300),
)

#: the documented exit codes of a pricing command: success, bad input, numerical failure
PRICING_EXIT_CODES = {0, 2, 3}


def run_quietly(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


@settings(max_examples=60, deadline=None, derandomize=True)
@given(**DOMAIN)
def test_default_probability_matches_oracle(alpha, hurst, beta, r, maturity, sigma0):
    params = ModelParams(r=r, sigma0=sigma0, alpha=alpha, beta=beta, hurst=hurst, s0=50.0)
    q = default_probability(maturity, params)
    assert 0.0 <= q <= 1.0
    ref = default_probability_reference(maturity, r, sigma0, alpha, beta, hurst)
    assert q == pytest.approx(ref, rel=1e-8, abs=1e-300)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(**WHOLE_DOMAIN)
def test_q_matches_mpmath_over_the_whole_domain(alpha, hurst, beta, r, t, sigma0):
    params = ModelParams(r=r, sigma0=sigma0, alpha=alpha, beta=beta, hurst=hurst)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        q = default_probability(t, params)
        q_with_g = FirstPassageLaw.of([params]).q_and_g(t)[0].item()
    ref = default_probability_mpmath(t, r, sigma0, alpha, beta, hurst)
    assert q == pytest.approx(ref, rel=1e-11, abs=1e-300)
    assert q_with_g == q


@settings(max_examples=30, deadline=None, derandomize=True)
@given(**DOMAIN)
def test_cli_exit_codes(alpha, hurst, beta, r, maturity, sigma0):
    model = [f"--alpha={alpha!r}", f"--sigma0={sigma0!r}", f"--rate={r!r}"]
    code, out, err = run_quietly(["curve", *model, f"--tmax={maturity!r}", "--points=5",
                                  "--series=0", f"--series={beta!r}:{hurst!r}"])
    assert code in PRICING_EXIT_CODES, err
    if code == 0:
        qs = [float(tok) for line in out.split("\n")[1:-1] for tok in line.split(",")[1:]]
        assert all(0.0 <= q <= 1.0 for q in qs)
    code, out, err = run_quietly(["spread", *model, f"--beta={beta!r}", f"--hurst={hurst!r}",
                                  "--recovery=0.4", f"--maturity={maturity!r}"])
    assert code in PRICING_EXIT_CODES, err


@settings(max_examples=100, deadline=None, derandomize=True)
@given(command=st.sampled_from(["spread", "table1", "validate"]), alpha=DOMAIN["alpha"],
       hurst=DOMAIN["hurst"], beta=WHOLE_DOMAIN["beta"], r=WHOLE_DOMAIN["r"],
       maturity=WHOLE_DOMAIN["t"], sigma0=WHOLE_DOMAIN["sigma0"],
       recovery=st.floats(min_value=0.0, max_value=1.0), freq=st.integers(1, 12))
@example(command="validate", alpha=-1000.0, hurst=0.9973180809828153,
         beta=1.3315647761934871e+122, r=0.4318540785294554, maturity=4.525860366413656,
         sigma0=0.8099451687278921, recovery=0.5, freq=1)
@example(command="spread", alpha=0.0, hurst=0.8, beta=0.0, r=2.7605646406224805e+307,
         maturity=8.86, sigma0=0.2, recovery=0.5, freq=2)
@example(command="spread", alpha=-2.0, hurst=0.8, beta=0.0, r=0.0,
         maturity=1.5736804744615324e-254, sigma0=3.7342039645743225e+189,
         recovery=0.8419417068871948, freq=2)
def test_pricing_commands_end_cleanly_over_every_magnitude(command, alpha, hurst, beta, r,
                                                           maturity, sigma0, recovery, freq):
    # a numpy warning on the way raises here, as pytest makes RuntimeWarning an error
    market = [f"--sigma0={sigma0!r}", f"--rate={r!r}", f"--recovery={recovery!r}",
              f"--freq={freq}"]
    cell = [f"--alpha={alpha!r}", f"--beta={beta!r}", f"--hurst={hurst!r}", *market,
            f"--maturity={maturity!r}"]
    argv = {"spread": ["spread", *cell],
            "table1": ["table1", *market, f"--maturities={maturity!r}"],
            "validate": ["validate", *cell, "--paths=200", "--steps=50", "--seed=3"]}[command]
    code, out, err = run_quietly(argv)
    assert code in (PRICING_EXIT_CODES | {1} if command == "validate" else PRICING_EXIT_CODES)
    if code in (0, 1):
        assert err == ""
    else:
        assert out == "" and err.startswith("error: ") and err.count("\n") == 1, err


def outcome(view, params):
    """view(params) as exact bytes, or the type and message of the NumericalError it raises."""
    try:
        return pickle.dumps(view(params))
    except NumericalError as exc:
        return type(exc), str(exc)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(**{name: DOMAIN[name] for name in ("alpha", "hurst", "r", "maturity", "sigma0")})
def test_classical_rows_ignore_hurst(alpha, hurst, r, maturity, sigma0):
    # at beta = 0 every term that holds H is multiplied by zero, so leaving
    # H out gives the same bits as any H the model accepts
    without, with_hurst = (ModelParams(r=r, sigma0=sigma0, alpha=alpha, beta=0.0, hurst=h,
                                       s0=50.0) for h in (None, hurst))
    times = maturity * np.array([0.01, 0.1, 0.5, 1.0])
    contract = cds.CdsContract(maturity=maturity, recovery=0.4)
    cfg = McConfig(n_paths=200, n_steps=20, horizon=maturity, seed=7)

    def price(p):
        leg, annuity, errors = cds._price_batch([p], [contract])
        return leg, annuity, [None if e is None else (type(e), str(e)) for e in errors]

    views = {
        "default_probability": lambda p: default_probability(maturity, p),
        "q_and_g": lambda p: FirstPassageLaw.of([p]).q_and_g(times),
        "_price_batch": price,
        "phi_closed": lambda p: phi_closed(maturity, p),
        "phi_quadrature": lambda p: phi_quadrature(maturity, p),
        "simulate_fpt": lambda p: simulate_fpt(p, cfg),
    }
    for name, view in views.items():
        assert outcome(view, without) == outcome(view, with_hurst), name


def default_times_reference(params, n_paths, n_steps, horizon, seed):
    """Default times of the seed contract, one full-array loop: per step one
    standard_normal(n_paths) from SFC64(SeedSequence(seed, spawn_key=(0,))),
    the stream of a run's only block up to BLOCK_PATHS paths, the Euler
    update ((x + A dt x) + B dt) + ((csd sqrt(x)) z) on the unabsorbed
    paths, and the step's right endpoint as the default time of each path
    it takes to x <= 0."""
    alpha, sigma0, beta = params.alpha, params.sigma0, params.beta
    two_a = 2.0 - alpha
    tgrid = np.linspace(0.0, horizon, n_steps + 1)
    dv = np.diff(tgrid + beta ** 2 * tgrid ** (2.0 * params.hurst))
    adt = two_a * params.r * (horizon / n_steps)
    b = 0.5 * sigma0 ** 2 * (1.0 - alpha) * two_a * dv
    csd = two_a * sigma0 * np.sqrt(dv)
    rng = np.random.Generator(np.random.SFC64(np.random.SeedSequence(seed, spawn_key=(0,))))
    x = np.ones(n_paths)
    default_time = np.full(n_paths, np.nan)
    for k in range(n_steps):
        z = rng.standard_normal(n_paths)
        alive = np.isnan(default_time)
        live_x = np.where(alive, x, 1.0)
        stepped = ((live_x + adt * live_x) + b[k]) + ((csd[k] * np.sqrt(live_x)) * z)
        x = np.where(alive, stepped, x)
        default_time = np.where(alive & (x <= 0.0), tgrid[k + 1], default_time)
    return default_time


@settings(max_examples=30, deadline=None, derandomize=True)
@given(alpha=st.floats(min_value=-10.0, max_value=2.0, exclude_max=True),
       beta=st.floats(min_value=0.0, max_value=2.0), hurst=DOMAIN["hurst"],
       sigma0=DOMAIN["sigma0"], r=st.floats(min_value=0.0, max_value=0.5),
       n_paths=st.integers(min_value=1, max_value=500),
       n_steps=st.integers(min_value=1, max_value=50),
       seed=st.integers(min_value=0, max_value=2 ** 64 - 1))
def test_simulation_follows_the_seed_contract(alpha, beta, hurst, sigma0, r, n_paths, n_steps,
                                              seed):
    params = ModelParams(r=r, sigma0=sigma0, alpha=alpha, beta=beta, hurst=hurst, s0=50.0)
    times = simulate_fpt(params, McConfig(n_paths=n_paths, n_steps=n_steps, horizon=2.0,
                                          seed=seed))
    expected = default_times_reference(params, n_paths, n_steps, 2.0, seed)
    assert np.array_equal(times, expected, equal_nan=True)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(t_max=st.floats(min_value=1e-3, max_value=1e3),
       n_points=st.integers(min_value=2, max_value=5000),
       **{name: DOMAIN[name] for name in ("alpha", "hurst", "beta", "sigma0")},
       r=st.floats(min_value=0.0, max_value=0.5))
def test_curve_is_q_on_the_uniform_grid(t_max, n_points, alpha, hurst, beta, sigma0, r):
    params = ModelParams(r=r, sigma0=sigma0, alpha=alpha, beta=beta, hurst=hurst, s0=50.0)
    t, (q,) = cds.default_curve([params], t_max, n_points)
    step = t_max / (n_points - 1)
    grid = np.array([t_max if i == n_points - 1 else i * step for i in range(n_points)])
    assert t.tobytes() == grid.tobytes()
    assert q.tobytes() == FirstPassageLaw.of([params]).q(grid)[0].tobytes()


#: the parameter sets of test_core.py's TestDoubleRange, where phi or one of
#: its factors leaves the double range
DOUBLE_RANGE_ROWS = [
    *(ModelParams(r=0.05, sigma0=sigma0, alpha=alpha, beta=0.0, hurst=0.8)
      for alpha, sigma0 in ((0.0, 1e300), (-16.0, 1e300), (-17.0, 1e300), (-1000.0, 1e152))),
    ModelParams(r=1e308, sigma0=1e300, alpha=0.0, beta=0.0, hurst=0.8),
    ModelParams(r=0.05, sigma0=0.2, alpha=0.0, beta=1e300, hurst=0.8),
    ModelParams(r=0.05, sigma0=1e-200, alpha=0.0, beta=1e300, hurst=0.8),
]
#: a row of a curve batch: anywhere in the whole domain, a classical row
#: without a Hurst exponent, or one of DOUBLE_RANGE_ROWS
CURVE_ROW = st.one_of(
    st.builds(ModelParams, **{name: WHOLE_DOMAIN[name]
                              for name in ("r", "sigma0", "alpha", "beta", "hurst")}),
    st.builds(ModelParams, r=WHOLE_DOMAIN["r"], sigma0=WHOLE_DOMAIN["sigma0"],
              alpha=WHOLE_DOMAIN["alpha"], beta=st.just(0.0), hurst=st.none()),
    st.sampled_from(DOUBLE_RANGE_ROWS),
)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(series=st.lists(CURVE_ROW, min_size=2, max_size=40), t_max=WHOLE_DOMAIN["t"],
       n_points=st.integers(min_value=2, max_value=5000))
@example(series=[*DOUBLE_RANGE_ROWS, ModelParams(r=0.0, sigma0=0.2, alpha=0.0, beta=0.0,
                                                 hurst=None)],
         t_max=10.0, n_points=41)
def test_curve_rows_are_the_one_row_curves(series, t_max, n_points):
    t, q = cds.default_curve(series, t_max, n_points)
    assert q.shape == (len(series), n_points)
    for params, row in zip(series, q):
        t_one, (q_one,) = cds.default_curve([params], t_max, n_points)
        assert t.tobytes() == t_one.tobytes()
        assert row.tobytes() == q_one.tobytes()


def spread_estimate_reference(default_time, params, contract):
    """The Monte-Carlo spread with one pass over the paths per premium date:
    each path's annuity adds accrual * e^(-r t_i) for every date t_i < tau."""
    n = default_time.size
    r = params.r
    tau = np.where(np.isnan(default_time), np.inf, default_time)
    defaulted = tau <= contract.maturity + 1e-12
    protection = np.where(defaulted,
                          (1.0 - contract.recovery) * np.exp(-r * np.where(defaulted, tau, 0.0)),
                          0.0)
    accrual = 1.0 / contract.payments_per_year
    annuity = np.zeros(n)
    for t_i in contract.payment_times():
        annuity += np.where(tau > t_i, accrual * math.exp(-r * t_i), 0.0)
    if float(np.mean(annuity)) <= 0.0:
        raise NumericalError("every path defaulted before the first payment "
                             "date; the Monte-Carlo spread is undefined")
    estimate = 1e4 * float(np.mean(protection)) / float(np.mean(annuity))
    std_error = (float(np.std(1e4 * protection - estimate * annuity, ddof=1))
                 / (math.sqrt(n) * float(np.mean(annuity))) if n > 1 else 0.0)
    return McResult(estimate, std_error, int(np.count_nonzero(defaulted)), n)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(maturity=st.floats(min_value=0.01, max_value=5.0),
       freq=st.integers(min_value=1, max_value=1000),
       r=st.floats(min_value=0.0, max_value=0.5),
       recovery=st.floats(min_value=0.0, max_value=1.0),
       n_paths=st.integers(min_value=1, max_value=1000),
       n_steps=st.integers(min_value=1, max_value=200),
       seed=st.integers(min_value=0, max_value=2 ** 32 - 1))
def test_spread_estimate_matches_the_per_date_loop(maturity, freq, r, recovery, n_paths,
                                                   n_steps, seed):
    # default times of four kinds: exactly a premium date, a grid time (the
    # simulation's, 25 x 0.02 being exactly the date 0.5 for instance), any
    # time up to the horizon, and NaN for a survivor
    params = ModelParams(r=r, sigma0=0.2, alpha=0.0, beta=0.0, hurst=None, s0=50.0)
    contract = cds.CdsContract(maturity=maturity, recovery=recovery, payments_per_year=freq)
    dates = np.asarray(contract.payment_times())
    horizon = max(maturity, dates[-1])
    rng = np.random.default_rng(seed)
    choices = [dates[rng.integers(dates.size, size=n_paths)],
               np.linspace(0.0, horizon, n_steps + 1)[rng.integers(1, n_steps + 1, size=n_paths)],
               rng.uniform(0.0, horizon, size=n_paths),
               np.full(n_paths, np.nan)]
    default_time = np.choose(rng.integers(4, size=n_paths), choices)
    got = outcome(lambda t: spread_estimate(t, params, contract), default_time)
    assert got == outcome(lambda t: spread_estimate_reference(t, params, contract), default_time)
    # the mean annuity is 0 only when every path defaults by the first date
    assert isinstance(got, tuple) == bool(np.all(default_time <= dates[0]))
