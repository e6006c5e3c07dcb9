import math
import sys
import threading
from pathlib import Path

import numpy as np
import pytest

from mfcev import _mc_fallback, mc
from mfcev.cds import CdsContract, cds_spread
from mfcev.core import ModelParams, default_probability
from mfcev.errors import NumericalError, ParameterError
from mfcev.mc import (BLOCK_PATHS, MAX_PATH_STEPS, MAX_PATHS, MAX_STEPS, McConfig,
                      mc_cds_spread, mc_default_probability, simulate_fpt)

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
        ("n_paths", dict(n_paths=MAX_PATHS + 1)),
        ("n_steps", dict(n_steps=MAX_STEPS + 1)),
        ("n_paths", dict(n_paths=100.0)),
        ("n_steps", dict(n_steps=10.5)),
        ("seed", dict(seed=1.5)),
        ("n_paths", dict(n_paths=True)),
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
        # within both caps, over the product's budget
        with pytest.raises(ParameterError, match="budget"):
            McConfig(n_paths=MAX_PATHS, n_steps=MAX_PATH_STEPS // MAX_PATHS + 1,
                     horizon=1.0, seed=1)


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
        # the step in s0 = 1 units must reproduce every bit
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


class TestDrawThread:
    """Block b of the paths draws from SFC64(SeedSequence(seed, spawn_key=(b,))).
    One block runs on the calling thread; more run on worker threads, none of
    which outlives the call, and the number of workers never changes a bit."""

    CFG = McConfig(n_paths=2000, n_steps=50, horizon=1.0, seed=21)
    #: three blocks, more than this machine may have workers for
    BLOCKS_CFG = McConfig(n_paths=2 * BLOCK_PATHS + 1, n_steps=20, horizon=1.0, seed=21)

    def test_no_thread_left_after_return(self, fig_params):
        before = threading.active_count()
        times = simulate_fpt(fig_params(alpha=-2.0), self.CFG)
        assert threading.active_count() == before
        assert np.isnan(times).any()

    #: every path defaults on one of the first few steps
    DOOMED = ModelParams(r=0.0, sigma0=500.0, alpha=1.9, beta=0.0, hurst=None, s0=1.0)

    @staticmethod
    def simulate_and_replay(monkeypatch, params, cfg):
        """The simulated default times, the steps each block took, and the
        default times of a loop that, block by block, draws
        standard_normal(block size) from SFC64(SeedSequence(seed,
        spawn_key=(b,))) before each of that block's steps."""
        step = _mc_fallback.step_paths
        blocks = {}     # address of a block's states -> its step coefficients
        threads = set()

        def spy(x, default_time, z, adt, b, csd, t_next, work, n_alive):
            threads.add(threading.get_ident())
            blocks.setdefault(x.__array_interface__["data"][0], []).append(
                (adt, b, csd, t_next))
            return step(x, default_time, z, adt, b, csd, t_next, work, n_alive)

        before = threading.active_count()
        with monkeypatch.context() as patch:
            patch.setattr(_mc_fallback, "step_paths", spy)
            times = simulate_fpt(params, cfg)
        assert threading.active_count() == before

        n = cfg.n_paths
        n_blocks = -(-n // BLOCK_PATHS)
        assert len(blocks) == n_blocks
        if n_blocks == 1:
            assert threads == {threading.get_ident()}
        expected = np.full(n, np.nan)
        steps = []
        # the blocks' states are slices of one array, so address order is block order
        for b, (_, coefficients) in enumerate(sorted(blocks.items())):
            lo, hi = n * b // n_blocks, n * (b + 1) // n_blocks
            seed_sequence = np.random.SeedSequence(cfg.seed, spawn_key=(b,))
            rng = np.random.Generator(np.random.SFC64(seed_sequence))
            x, work = np.ones(hi - lo), np.empty(hi - lo)
            n_alive = hi - lo
            for adt, b_step, csd, t_next in coefficients:
                n_alive = step(x, expected[lo:hi], rng.standard_normal(hi - lo), adt, b_step,
                               csd, t_next, work, n_alive)
            # a block stops early only once every one of its paths has defaulted
            assert len(coefficients) == cfg.n_steps or n_alive == 0
            steps.append(len(coefficients))
        return times, steps, expected

    def test_early_exit_matches_sequential_draws(self, monkeypatch):
        # every path dies well before the horizon, so the loop stops early;
        # its default times equal a loop drawing standard_normal(n) per step
        times, steps, expected = self.simulate_and_replay(monkeypatch, self.DOOMED, self.CFG)
        assert 0 < steps[0] < self.CFG.n_steps
        assert np.array_equal(times, expected)

    @pytest.mark.parametrize("n", [1, 7, 2000, 19_999, 20_000, BLOCK_PATHS])
    @pytest.mark.parametrize("doomed", [False, True], ids=["some-default", "all-default"])
    def test_draw_tasks_match_one_thread_loop(self, monkeypatch, n, doomed):
        # up to BLOCK_PATHS paths, one block draws standard_normal(n) per
        # step from the stream of spawn key 0; doomed paths all default at
        # once, and the loop stops early
        cfg = McConfig(n_paths=n, n_steps=25, horizon=1.0, seed=5)
        params = self.DOOMED if doomed else ModelParams(r=0.05, sigma0=0.8, alpha=-2.0,
                                                        beta=0.5, hurst=0.8, s0=50.0)
        times, steps, expected = self.simulate_and_replay(monkeypatch, params, cfg)
        if doomed:
            assert steps[0] < cfg.n_steps and not np.isnan(times).any()
        assert np.array_equal(times, expected, equal_nan=True)

    def test_blocks_match_spawned_streams(self, monkeypatch):
        # two blocks of 25,000 and 25,001 paths; here the second block loses
        # its last path on step 19 and stops, while the first steps to the end
        cfg = McConfig(n_paths=BLOCK_PATHS + 1, n_steps=20, horizon=1.0, seed=11)
        params = ModelParams(r=0.0, sigma0=10.5, alpha=1.9, beta=0.0, hurst=None, s0=1.0)
        times, steps, expected = self.simulate_and_replay(monkeypatch, params, cfg)
        assert steps == [cfg.n_steps, 19]
        assert np.array_equal(times, expected, equal_nan=True)

    def test_three_blocks_match_spawned_streams(self, monkeypatch, fig_params):
        times, steps, expected = self.simulate_and_replay(
            monkeypatch, fig_params(alpha=-2.0, sigma0=0.8), self.BLOCKS_CFG)
        assert steps == [self.BLOCKS_CFG.n_steps] * 3
        assert np.array_equal(times, expected, equal_nan=True)

    def test_worker_count_keeps_bits(self, monkeypatch, fig_params):
        # one worker per block at 3, more than this machine's cores, with the
        # interpreter switching threads as often as it can
        params = fig_params(alpha=-2.0, sigma0=0.8)
        runs = []
        interval = sys.getswitchinterval()
        try:
            sys.setswitchinterval(1e-6)
            for workers in (1, 2, 3):
                monkeypatch.setattr(mc, "_usable_cpus", lambda: workers)
                runs.append(simulate_fpt(params, self.BLOCKS_CFG))
        finally:
            sys.setswitchinterval(interval)
        assert all(np.array_equal(run, runs[0], equal_nan=True) for run in runs[1:])
        assert 0 < np.count_nonzero(np.isnan(runs[0])) < self.BLOCKS_CFG.n_paths

    def test_step_error_reaches_caller(self, monkeypatch, fig_params):
        step = _mc_fallback.step_paths
        calls = 0
        raised_on = []

        def failing(*args):
            nonlocal calls
            calls += 1
            if calls == 3:
                raised_on.append(threading.get_ident())
                raise FloatingPointError("step 3")
            return step(*args)

        before = threading.active_count()
        monkeypatch.setattr(_mc_fallback, "step_paths", failing)
        with pytest.raises(FloatingPointError, match="step 3"):
            simulate_fpt(fig_params(alpha=-2.0), self.BLOCKS_CFG)
        assert threading.active_count() == before
        assert raised_on[0] != threading.get_ident()

    def test_draw_error_reaches_caller(self, monkeypatch, fig_params):
        raised_on = []

        class FailingGenerator(np.random.Generator):
            draws = 0

            def standard_normal(self, *args, **kwargs):
                FailingGenerator.draws += 1
                if FailingGenerator.draws == 3:
                    raised_on.append(threading.get_ident())
                    raise MemoryError("draw 3")
                return super().standard_normal(*args, **kwargs)

        before = threading.active_count()
        monkeypatch.setattr(np.random, "Generator", FailingGenerator)
        with pytest.raises(MemoryError, match="draw 3"):
            simulate_fpt(fig_params(alpha=-2.0), self.BLOCKS_CFG)
        assert threading.active_count() == before
        assert raised_on[0] != threading.get_ident()


class TestStepKernels:
    def test_absorbed_paths_stay_absorbed(self):
        x = np.array([1.0, 100.0])
        tdef = np.full(2, np.nan)
        work = np.empty(2)
        n_alive = _mc_fallback.step_paths(x, tdef, np.array([-30.0, 0.1]),
                                          0.01, 1.0, 2.0, 0.25, work, 2)
        assert n_alive == 1
        assert np.isnan(x[0]) and x[1] > 0.0
        assert tdef[0] == 0.25 and np.isnan(tdef[1])
        # path 0 keeps its default time whatever its draw, and path 1 reads
        # its own draw
        z = np.array([-30.0, 0.1])
        x1 = x[1]
        n_alive = _mc_fallback.step_paths(x, tdef, z, 0.01, 1.0, 2.0, 0.5, work, n_alive)
        assert n_alive == 1
        assert x[1] == ((x1 + 0.01 * x1) + 1.0) + ((2.0 * math.sqrt(x1)) * 0.1)
        assert tdef[0] == 0.25 and np.isnan(tdef[1])
        # a positive drift and a large positive draw do not revive it
        n_alive = _mc_fallback.step_paths(x, tdef, np.array([30.0, 0.1]),
                                          0.01, 1.0, 2.0, 0.75, work, n_alive)
        assert n_alive == 1
        assert np.isnan(x[0]) and x[1] > 0.0
        assert tdef[0] == 0.25 and np.isnan(tdef[1])

    def test_crossing_is_recorded_at_right_endpoint(self):
        x = np.array([1.0])
        tdef = np.array([np.nan])
        z = np.array([-30.0])
        n_alive = _mc_fallback.step_paths(x, tdef, z, 0.0, 0.0, 1.0, 0.75, np.empty(1), 1)
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
        tdef = np.full(1000, np.nan)
        n_alive = _mc_fallback.step_paths(x, tdef, z.copy(), adt, b, csd, 1.0,
                                          np.empty(1000), 1000)
        alive = expected > 0.0
        assert n_alive == np.count_nonzero(alive) > 900
        assert np.array_equal(x[alive], expected[alive])
        assert np.isnan(x[~alive]).all()
        assert np.array_equal(np.isnan(tdef), alive)


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

    def test_horizon_must_reach_the_last_premium_date(self, fig_params):
        # maturity 1.25 pays semi-annually up to 1.5, so a horizon of 1.25
        # would read every path alive at 1.25 as paying at 1.5
        contract = CdsContract(maturity=1.25, recovery=0.5)
        p = fig_params(alpha=-2.0, beta=1.0, hurst=0.9)
        with pytest.raises(ParameterError) as exc:
            mc_cds_spread(p, contract, McConfig(n_paths=1000, n_steps=25, horizon=1.25, seed=1))
        assert exc.value.constraint == "horizon"
        res = mc_cds_spread(p, contract, McConfig(n_paths=1000, n_steps=30, horizon=1.5, seed=1))
        assert res.estimate > 0.0 and math.isfinite(res.std_error)

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
