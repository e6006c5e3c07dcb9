import math
from pathlib import Path

import numpy as np
import pytest

from mfcev import _mc_fallback
from mfcev.cds import CdsContract, cds_spread
from mfcev.core import default_probability
from mfcev.errors import NumericalError, ParameterError
from mfcev.mc import (MAX_PATH_STEPS, McConfig, mc_cds_spread,
                      mc_default_probability, simulate_fpt)

DATA = Path(__file__).resolve().parent / "data"

#: the four mc-validate parameter sets (r = 5%, s0 = 50)
VALIDATE_CONFIGS = {
    "classical": dict(alpha=0.0, beta=0.0, hurst=0.8, sigma0=0.2),
    "frac_alpha-2": dict(alpha=-2.0, beta=0.5, hurst=0.8, sigma0=0.2),
    "frac_beta1": dict(alpha=0.0, beta=1.0, hurst=0.9, sigma0=0.2),
    "distressed": dict(alpha=0.0, beta=1.0, hurst=0.9, sigma0=0.8),
}


class TestMcConfig:
    @pytest.mark.parametrize("field,kwargs", [
        ("n_paths", dict(n_paths=0)),
        ("n_steps", dict(n_steps=0)),
        ("horizon", dict(horizon=0.0)),
        ("seed", dict(seed=-1)),
        ("seed", dict(seed=2 ** 64)),
        ("horizon", dict(horizon=-1.0)),
        ("horizon", dict(horizon=math.inf)),
        ("horizon", dict(horizon=math.nan)),
    ])
    def test_constraints(self, field, kwargs):
        base = dict(n_paths=100, n_steps=10, horizon=1.0, seed=1)
        base.update(kwargs)
        with pytest.raises(ParameterError) as err:
            McConfig(**base)
        assert err.value.constraint == field

    def test_budget(self):
        with pytest.raises(ParameterError):
            McConfig(n_paths=MAX_PATH_STEPS, n_steps=2, horizon=1.0, seed=1)


class TestSimulateFpt:
    def test_deterministic_per_seed(self, fig_params):
        p = fig_params(alpha=-2.0, beta=0.5)
        cfg = McConfig(n_paths=2000, n_steps=100, horizon=2.0, seed=99)
        first = simulate_fpt(p, cfg)
        second = simulate_fpt(p, cfg)
        assert np.array_equal(first, second, equal_nan=True)
        other = simulate_fpt(p, McConfig(n_paths=2000, n_steps=100, horizon=2.0, seed=100))
        assert not np.array_equal(first, other, equal_nan=True)

    def test_near_zero_vol_never_defaults(self, fig_params):
        p = fig_params(sigma0=1e-8, beta=0.0)
        cfg = McConfig(n_paths=2000, n_steps=50, horizon=1.0, seed=5)
        assert np.isnan(simulate_fpt(p, cfg)).all()

    @pytest.mark.parametrize("kwargs", [dict(sigma0=1e300), dict(beta=1e300), dict(r=1e308)])
    def test_coefficients_out_of_range_raise(self, fig_params, kwargs):
        # sigma0^2 or beta^2 overflows, or A dt = (2-alpha) r dt does
        cfg = McConfig(n_paths=100, n_steps=10, horizon=1.0, seed=1)
        with pytest.raises(NumericalError, match="step coefficients"):
            simulate_fpt(fig_params(**kwargs), cfg)

    def test_default_times_on_grid(self, fig_params):
        p = fig_params(alpha=-2.0, beta=1.0, hurst=0.9)
        cfg = McConfig(n_paths=4000, n_steps=40, horizon=2.0, seed=11)
        times = simulate_fpt(p, cfg)
        hit = times[~np.isnan(times)]
        assert hit.size > 0
        grid = np.linspace(0.0, 2.0, 41)
        assert np.isin(hit, grid).all()
        assert (hit > 0.0).all() and (hit <= 2.0).all()

    @pytest.mark.parametrize("label", sorted(VALIDATE_CONFIGS))
    def test_matches_frozen_default_times(self, fig_params, label):
        # frozen from the full-array step with the state in model units;
        # the live-path step in s0 = 1 units must reproduce every bit
        frozen = np.load(DATA / "simulate_fpt.npz")[label]
        cfg = McConfig(n_paths=10000, n_steps=100, horizon=2.0, seed=4242)
        times = simulate_fpt(fig_params(**VALIDATE_CONFIGS[label]), cfg)
        assert np.array_equal(times, frozen, equal_nan=True)

    def test_coupled_seeds_order_default_counts_by_beta(self, fig_params):
        # same noise, increasing beta -> stochastically earlier defaults
        cfg = McConfig(n_paths=20000, n_steps=250, horizon=2.0, seed=777)
        counts = {}
        for beta in (0.0, 0.5, 1.0):
            times = simulate_fpt(fig_params(alpha=-2.0, beta=beta, hurst=0.8), cfg)
            filled = np.where(np.isnan(times), np.inf, times)
            counts[beta] = [int(np.count_nonzero(filled <= t))
                            for t in (0.5, 1.0, 1.5, 2.0)]
        for lo, hi in ((0.0, 0.5), (0.5, 1.0)):
            assert all(a <= b for a, b in zip(counts[lo], counts[hi]))
        assert counts[0.0][-1] < counts[1.0][-1]

    def test_grid_refinement_moves_toward_analytic(self, fig_params):
        p = fig_params(alpha=-2.0, beta=0.5, hurst=0.8)
        analytic = default_probability(2.0, p)
        coarse = mc_default_probability(
            p, McConfig(n_paths=50000, n_steps=100, horizon=2.0, seed=13))
        fine = mc_default_probability(
            p, McConfig(n_paths=50000, n_steps=400, horizon=2.0, seed=13))
        assert abs(fine.estimate - analytic) < abs(coarse.estimate - analytic)


class TestStepKernels:
    def test_absorbed_paths_stay_absorbed(self):
        x = np.array([1.0, 100.0])
        index = np.arange(2)
        tdef = np.full(2, np.nan)
        work = np.empty(2)
        n_alive = _mc_fallback.step_paths(x, index, tdef, np.array([-30.0, 0.1]),
                                          0.01, 1.0, 2.0, 0.25, work)
        assert n_alive == 1
        assert index[0] == 1 and x[0] > 0.0
        assert tdef[0] == 0.25 and np.isnan(tdef[1])
        # only the live prefix is stepped again: path 0 keeps its default time
        # whatever its draw, and path 1 reads its own draw
        z = np.array([-30.0, 0.1])
        x1 = x[0]
        n_alive = _mc_fallback.step_paths(x[:1], index[:1], tdef, z, 0.01, 1.0, 2.0, 0.5,
                                          work)
        assert n_alive == 1
        assert x[0] == ((x1 + 0.01 * x1) + 1.0) + ((2.0 * math.sqrt(x1)) * 0.1)
        assert tdef[0] == 0.25 and np.isnan(tdef[1])

    def test_crossing_is_recorded_at_right_endpoint(self):
        x = np.array([1.0])
        index = np.arange(1)
        tdef = np.array([np.nan])
        z = np.array([-30.0])
        n_alive = _mc_fallback.step_paths(x, index, tdef, z, 0.0, 0.0, 1.0, 0.75,
                                          np.empty(1))
        assert n_alive == 0
        assert tdef[0] == 0.75

    def test_update_is_the_prescribed_expression(self):
        # bit for bit, in this order of operations, for every surviving path
        rng = np.random.default_rng(5)
        x0 = rng.uniform(0.1, 10.0, 1000)
        z = rng.standard_normal(1000)
        adt, b, csd = 0.013, 0.0071, 0.37
        expected = ((x0 + adt * x0) + b) + ((csd * np.sqrt(x0)) * z)
        x = x0.copy()
        index = np.arange(1000)
        tdef = np.full(1000, np.nan)
        n_alive = _mc_fallback.step_paths(x, index, tdef, z.copy(), adt, b, csd, 1.0,
                                          np.empty(1000))
        assert n_alive == np.count_nonzero(expected > 0.0) > 900
        assert np.array_equal(x[:n_alive], expected[index[:n_alive]])
        assert np.array_equal(np.isnan(tdef), expected > 0.0)

    def test_survivors_fill_the_holes(self):
        # paths 1 and 3 die; the survivor 4 moves into hole 1, path 3's slot
        # is beyond the live prefix, and each state keeps its path number
        x = np.full(5, 1.0)
        index = np.arange(5)
        tdef = np.full(5, np.nan)
        z = np.array([0.5, -30.0, 0.25, -30.0, 0.125])
        n_alive = _mc_fallback.step_paths(x, index, tdef, z.copy(), 0.0, 0.0, 1.0, 1.0,
                                          np.empty(5))
        assert n_alive == 3
        assert sorted(index[:3]) == [0, 2, 4]
        assert np.array_equal(x[:3], 1.0 + z[index[:3]])
        assert np.isnan(tdef[[0, 2, 4]]).all() and (tdef[[1, 3]] == 1.0).all()


class TestMcDefaultProbability:
    def test_no_defaults(self, fig_params):
        res = mc_default_probability(
            fig_params(sigma0=1e-8, beta=0.0),
            McConfig(n_paths=500, n_steps=20, horizon=1.0, seed=2))
        assert res.estimate == 0.0 and res.std_error == 0.0
        assert res.n_defaulted == 0 and res.n_paths == 500

    def test_classical_case_within_band(self, fig_params):
        # dt = 0.01: measured discretization bias is ~+1 std error here,
        # so a 4-sigma band is comfortable and stable per fixed seed.
        p = fig_params(alpha=0.0, beta=0.0)
        cfg = McConfig(n_paths=20000, n_steps=500, horizon=5.0, seed=4242)
        res = mc_default_probability(p, cfg)
        analytic = default_probability(5.0, p)
        assert res.n_defaulted == round(res.estimate * res.n_paths)
        assert abs(res.estimate - analytic) <= 4.0 * res.std_error

    def test_estimator_scaling(self, fig_params):
        p = fig_params(alpha=-2.0, beta=1.0, hurst=0.9)
        small = mc_default_probability(p, McConfig(n_paths=20000, n_steps=100,
                                                   horizon=2.0, seed=3))
        large = mc_default_probability(p, McConfig(n_paths=40000, n_steps=100,
                                                   horizon=2.0, seed=3))
        assert 0.5 <= large.std_error / small.std_error <= 0.95


class TestMcCdsSpread:
    def test_full_recovery(self, fig_params):
        res = mc_cds_spread(fig_params(alpha=-2.0),
                            CdsContract(maturity=1.0, recovery=1.0),
                            McConfig(n_paths=2000, n_steps=50, horizon=1.0, seed=8))
        assert res.estimate == 0.0 and res.std_error == 0.0

    def test_horizon_must_cover_maturity(self, fig_params):
        with pytest.raises(ParameterError):
            mc_cds_spread(fig_params(), CdsContract(maturity=2.0, recovery=0.5),
                          McConfig(n_paths=100, n_steps=10, horizon=1.0, seed=1))

    def test_degenerate_when_all_default_immediately(self):
        from mfcev import ModelParams
        doomed = ModelParams(r=0.0, sigma0=500.0, alpha=1.9, beta=0.0,
                             hurst=0.8, s0=1.0)
        with pytest.raises(NumericalError):
            mc_cds_spread(doomed, CdsContract(maturity=1.0, recovery=0.5,
                                              payments_per_year=1),
                          McConfig(n_paths=200, n_steps=10, horizon=1.0, seed=1))

    def test_brackets_analytic_with_discretization_allowance(self, fig_params):
        # At dt = 2e-3 the endpoint-absorption scheme overprices defaults by
        # ~15-25% on this cell (measured by step refinement); the assertion
        # grants that allowance on top of the statistical band.
        p = fig_params(alpha=-2.0, beta=0.5, hurst=0.9)
        contract = CdsContract(maturity=2.0, recovery=0.5)
        cfg = McConfig(n_paths=50000, n_steps=1000, horizon=2.0, seed=6)
        res = mc_cds_spread(p, contract, cfg)
        analytic = cds_spread(contract, p)
        assert abs(res.estimate - analytic) <= 0.35 * analytic + 4.0 * res.std_error
        assert res.estimate > 0.0 and res.std_error > 0.0
        assert res.n_defaulted <= res.n_paths

    def test_classical_long_maturity_bracket(self, fig_params):
        p = fig_params(alpha=0.0, beta=0.0)
        contract = CdsContract(maturity=10.0, recovery=0.5)
        cfg = McConfig(n_paths=20000, n_steps=1000, horizon=10.0, seed=12)
        res = mc_cds_spread(p, contract, cfg)
        analytic = cds_spread(contract, p)
        assert abs(res.estimate - analytic) <= 0.2 * analytic + 4.0 * res.std_error
