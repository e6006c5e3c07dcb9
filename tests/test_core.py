import math

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.special import gammaincc

from mfcev import _mc_fallback
from mfcev.core import (Q_SPLIT_U, FirstPassageLaw, ModelParams, default_probability,
                        fpt_density, phi_closed, phi_quadrature)
from mfcev.errors import NumericalError, ParameterError
from mfcev.mc import McConfig, simulate_fpt

from reference import (cev_default_probability, default_probability_reference,
                       erfc_reference)


class TestModelParams:
    def test_benchmark_point_valid(self):
        p = ModelParams(r=0.05, sigma0=0.2, alpha=0.0, beta=0.5, hurst=0.8, s0=50.0)
        assert (p.r, p.sigma0, p.alpha, p.beta, p.hurst, p.s0) == (0.05, 0.2, 0.0, 0.5, 0.8, 50.0)

    @pytest.mark.parametrize("field,kwargs", [
        ("alpha", dict(alpha=2.0)),
        ("alpha", dict(alpha=2.5)),
        ("hurst", dict(hurst=0.7)),
        ("hurst", dict(hurst=0.75)),
        ("hurst", dict(hurst=1.0)),
        ("beta", dict(beta=-0.1)),
        ("sigma0", dict(sigma0=0.0)),
        ("r", dict(r=-0.01)),
        ("s0", dict(s0=0.0)),
        ("alpha", dict(alpha=-math.inf)),
        ("alpha", dict(alpha=math.nan)),
        ("beta", dict(beta=math.inf)),
        ("sigma0", dict(sigma0=math.inf)),
        ("r", dict(r=math.inf)),
        ("r", dict(r=math.nan)),
        ("s0", dict(s0=math.inf)),
        ("alpha", dict(alpha=-1000.5)),
        ("alpha", dict(alpha=-1e155)),
    ])
    def test_each_constraint_is_named(self, field, kwargs):
        base = dict(r=0.05, sigma0=0.2, alpha=0.0, beta=0.5, hurst=0.8, s0=50.0)
        base.update(kwargs)
        with pytest.raises(ParameterError) as err:
            ModelParams(**base)
        assert err.value.constraint == field


class TestEffectiveCoefficients:
    """The transformed-state coefficients, as ``simulate_fpt`` steps with them.

    Over a step of the variance clock dv, the Euler step of
    dx = [A x + B(t)] dt + sqrt(2 C(t) x) dW in s0 = 1 units takes
    adt = A dt = (2-alpha) r dt, b = B dt and csd = (2-alpha) sigma0 sqrt(dv),
    with 2 C dt = csd^2 and B / C = theta = (1-alpha)/(2-alpha).
    """

    CFG = McConfig(n_paths=100, n_steps=50, horizon=2.0, seed=1)

    def steps(self, monkeypatch, params):
        """(first state, adt, b, csd, t_next) of each step, read at the step kernel."""
        calls = []
        step = _mc_fallback.step_paths

        def spy(x, index, default_time, z, adt, b, csd, t_next, work):
            calls.append((x.copy() if not calls else None, adt, b, csd, t_next))
            return step(x, index, default_time, z, adt, b, csd, t_next, work)

        with monkeypatch.context() as patch:
            patch.setattr(_mc_fallback, "step_paths", spy)
            simulate_fpt(params, self.CFG)
        # every step ran, so some path survived to the horizon
        assert len(calls) == self.CFG.n_steps
        return calls

    def test_theta_below_one_and_drift_rate(self, monkeypatch, fig_params):
        dt = self.CFG.horizon / self.CFG.n_steps
        for alpha in (-2.0, 0.0, 1.0, 1.5):
            for _, adt, *_ in self.steps(monkeypatch, fig_params(alpha=alpha)):
                assert adt == pytest.approx((2.0 - alpha) * 0.05 * dt, rel=1e-15)

    def test_drift_diffusion_ratio_is_theta(self, monkeypatch):
        for alpha in (-2.0, 0.0, 1.5):
            theta = (1.0 - alpha) / (2.0 - alpha)
            assert theta < 1.0
            p = ModelParams(r=0.05, sigma0=0.2, alpha=alpha, beta=0.7, hurst=0.85, s0=50.0)
            for _, _, b, csd, _ in self.steps(monkeypatch, p):
                assert b / (0.5 * csd ** 2) == pytest.approx(theta, rel=1e-14)

    def test_ratio_at_alpha_one_is_zero(self, monkeypatch, fig_params):
        assert all(b == 0.0 for _, _, b, _, _ in self.steps(monkeypatch, fig_params(alpha=1.0)))

    def test_variance_clock(self, monkeypatch, fig_params):
        # csd^2 / ((2-alpha)^2 sigma0^2) is the step's dv; over the grid the
        # steps add up to v(t) = t + beta^2 t^(2H)
        calls = self.steps(monkeypatch, fig_params(alpha=-2.0, beta=0.5, hurst=0.8))
        dv = [csd ** 2 / (4.0 ** 2 * 0.2 ** 2) for _, _, _, csd, _ in calls]
        assert all(step > 0.0 for step in dv)
        t = calls[-1][-1]
        assert t == self.CFG.horizon
        assert math.fsum(dv) == pytest.approx(t + 0.25 * t ** 1.6, rel=1e-12)

    def test_x0(self, monkeypatch, fig_params):
        first_state = self.steps(monkeypatch, fig_params(alpha=-2.0))[0][0]
        assert first_state.shape == (self.CFG.n_paths,)
        assert np.all(first_state == 1.0)


class TestPhi:
    def test_zero_time(self, fig_params):
        assert phi_closed(0.0, fig_params()) == 0.0
        assert phi_quadrature(0.0, fig_params()) == 0.0

    def test_negative_time(self, fig_params):
        with pytest.raises(ValueError):
            phi_closed(-0.1, fig_params())
        with pytest.raises(ValueError):
            phi_quadrature(-0.1, fig_params())

    def test_zero_rate_closed_form(self):
        # sigma^2 = 1, alpha = 0, beta = 1, H = 0.8:
        # phi(1) = 4 (1 + 1)/2 = 4, checked against the quadrature oracle
        p = ModelParams(r=0.0, sigma0=1.0, alpha=0.0, beta=1.0, hurst=0.8, s0=1.0)
        assert phi_closed(1.0, p) == pytest.approx(4.0, rel=1e-14)
        assert phi_quadrature(1.0, p) == pytest.approx(4.0, rel=1e-9)

    def test_classical_term_only(self, fig_params):
        # beta = 0 keeps only delta^2 (2-a)/(2r) (1 - e^(-(2-a) r t))
        p = fig_params(alpha=0.0, beta=0.0)
        expected = 2000.0 * (-math.expm1(-0.1))
        assert phi_closed(1.0, p) == pytest.approx(expected, rel=1e-14)
        assert phi_quadrature(1.0, p) == pytest.approx(expected, rel=1e-10)
        assert phi_quadrature(5.0, p) == pytest.approx(
            2000.0 * (-math.expm1(-0.5)), rel=1e-10)

    @pytest.mark.parametrize("alpha", [-2.0, 0.0, 1.5])
    @pytest.mark.parametrize("beta,hurst", [(0.0, 0.8), (0.5, 0.8), (1.0, 0.9)])
    @pytest.mark.parametrize("t", [0.05, 1.0, 10.0])
    def test_closed_matches_quadrature(self, fig_params, alpha, beta, hurst, t):
        p = fig_params(alpha=alpha, beta=beta, hurst=hurst)
        assert phi_closed(t, p) == pytest.approx(phi_quadrature(t, p), rel=1e-8)

    def test_rate_branch_consistency(self):
        # closed form just above the r -> 0 switch agrees with the limit branch
        common = dict(sigma0=0.2, alpha=0.0, beta=0.5, hurst=0.8, s0=50.0)
        above = phi_closed(2.0, ModelParams(r=1e-10, **common))
        at_limit = phi_closed(2.0, ModelParams(r=0.0, **common))
        assert above == pytest.approx(at_limit, rel=1e-7)

    @pytest.mark.parametrize("phi", [phi_closed, phi_quadrature])
    @pytest.mark.parametrize("kwargs", [dict(alpha=-1000.0), dict(sigma0=1e200),
                                        dict(beta=1e200)],
                             ids=["s0-power", "sigma0-squared", "beta-squared"])
    def test_out_of_double_range_raises(self, fig_params, phi, kwargs):
        # s0^(2-alpha) = 50^1002, sigma0^2 or beta^2 overflows; these raised
        # OverflowError, or returned inf, instead of the documented error
        with pytest.raises(NumericalError, match="not finite in double precision"):
            phi(1.0, fig_params(**kwargs))


class TestFptDensity:
    def test_domain(self, fig_params):
        with pytest.raises(ValueError):
            fpt_density(0.0, fig_params())
        with pytest.raises(ValueError):
            fpt_density(-1.0, fig_params())

    def test_vanishes_at_short_times(self, fig_params):
        assert fpt_density(1e-4, fig_params(alpha=0.0, beta=0.5)) == 0.0

    def test_nonnegative_on_grid(self, fig_params):
        p = fig_params(alpha=-2.0, beta=0.5, hurst=0.8)
        for i in range(1, 1001):
            assert fpt_density(10.0 * i / 1000.0, p) >= 0.0

    def test_integrates_to_default_probability(self, fig_params):
        p = fig_params(alpha=0.0, beta=0.5, hurst=0.8)
        integral, _ = quad(lambda t: fpt_density(t, p), 0.0, 5.0, limit=200)
        assert integral == pytest.approx(default_probability(5.0, p), rel=1e-6)


class TestDefaultProbability:
    def test_zero_time(self, fig_params):
        assert default_probability(0.0, fig_params()) == 0.0

    def test_negative_time(self, fig_params):
        with pytest.raises(ValueError):
            default_probability(-0.5, fig_params())

    def test_classical_erfc_reduction(self, fig_params):
        # alpha = 0, beta = 0: Q(T) = erfc(sqrt(r / (sigma0^2 (1 - e^(-2 r T)))))
        p = fig_params(alpha=0.0, beta=0.0)
        u = 0.05 / (0.04 * -math.expm1(-1.0))
        assert default_probability(10.0, p) == pytest.approx(
            erfc_reference(math.sqrt(u)), abs=1e-10)
        assert round(default_probability(10.0, p), 4) == 0.0467

    def test_initial_price_invariance(self, fig_params):
        q_small = default_probability(5.0, fig_params(s0=50.0))
        q_large = default_probability(5.0, fig_params(s0=100.0))
        assert abs(q_small - q_large) <= 1e-14

    def test_nondecreasing_in_time(self, fig_params):
        p = fig_params(alpha=-2.0, beta=1.0, hurst=0.9)
        grid = [0.25 * i for i in range(0, 41)]
        values = [default_probability(t, p) for t in grid]
        assert all(b >= a for a, b in zip(values, values[1:]))

    @pytest.mark.parametrize("t", [0.5, 2.0, 10.0])
    def test_strictly_increasing_in_beta(self, fig_params, t):
        values = [default_probability(t, fig_params(alpha=-2.0, beta=b, hurst=0.85))
                  for b in (0.0, 0.25, 0.5, 0.75, 1.0)]
        assert all(b > a for a, b in zip(values, values[1:]))

    @pytest.mark.parametrize("alpha", [-2.0, -0.5, 0.0, 1.0, 1.5])
    @pytest.mark.parametrize("t", [1.0, 5.0, 20.0])
    def test_classical_limit_matches_independent_pricer(self, fig_params, alpha, t):
        p = fig_params(alpha=alpha, beta=0.0)
        assert default_probability(t, p) == pytest.approx(
            cev_default_probability(t, 0.05, 0.2, alpha, 50.0), rel=1e-10, abs=1e-300)

    def test_zero_rate_case(self):
        # r = 0, alpha = 0, beta = 0 is absorbed Brownian motion:
        # Q(T) = erfc(s0 / (delta sqrt(2 T)))
        p = ModelParams(r=0.0, sigma0=0.2, alpha=0.0, beta=0.0, hurst=0.8, s0=50.0)
        delta = 0.2 * 50.0
        assert default_probability(4.0, p) == pytest.approx(
            erfc_reference(50.0 / (delta * math.sqrt(8.0))), rel=1e-10)

    @pytest.mark.parametrize("alpha,r,t", [(-500.0, 5.0, 10.0), (-1000.0, 5.0, 10.0),
                                           (-1000.0, 5.0, 100.0), (-2.0, 2.0, 100.0),
                                           (-500.0, 0.0, 1.0)])
    def test_extreme_parameters_in_unit_initial_price(self, alpha, r, t):
        # at s0 = 50, s0^(2-alpha) is beyond a double for alpha <= -500, and
        # (2-alpha) r t = 400 overflowed phi's large-z Kummer expansion; Q does
        # not depend on s0, so it must match the s0 = 1 oracle everywhere
        p = ModelParams(r=r, sigma0=0.2, alpha=alpha, beta=0.5, hurst=0.8, s0=50.0)
        assert default_probability(t, p) == pytest.approx(
            default_probability_reference(t, r, 0.2, alpha, 0.5, 0.8), rel=1e-10)
        assert fpt_density(t, p) >= 0.0


class TestDoubleRange:
    """phi(t) = inf at every t > 0 once sigma0^2 (2-alpha)^2 overflows."""

    @staticmethod
    def law(alpha, sigma0=1e300, **kwargs):
        base = dict(r=0.05, sigma0=sigma0, alpha=alpha, beta=0.0, hurst=0.8)
        base.update(kwargs)
        return FirstPassageLaw.of([ModelParams(**base)])

    def test_q_is_one_where_exact_and_nan_below(self):
        # Q(s, u < 1/DBL_MAX) rounds to 1 only for s > 0.053: alpha = -16
        # has s = 1/18, alpha = -17 has s = 1/19
        t = np.array([0.0, 0.5, 1.0])
        for alpha in (0.0, -16.0):
            q, g = self.law(alpha).q_and_g(t[1:])
            assert q.tolist() == [[1.0, 1.0]] and g.tolist() == [[0.0, 0.0]]
            assert self.law(alpha).q(t).tolist() == [[0.0, 1.0, 1.0]]
        for alpha, sigma0 in ((-17.0, 1e300), (-1000.0, 1e152)):
            q, g = self.law(alpha, sigma0).q_and_g(t[1:])
            assert np.isnan(q).all() and np.isnan(g).all()
            assert self.law(alpha, sigma0).q(t[:1]).tolist() == [[0.0]]
            with pytest.raises(NumericalError, match="double range"):
                self.law(alpha, sigma0).q(t)

    def test_nan_phi_gives_nan_q(self):
        # lambda = (2-alpha) r and k both overflow: phi = inf * 0
        law = self.law(0.0, r=1e308)
        assert np.isnan(law.q_and_g(np.array([1.0]))[0]).all()
        assert law.q(np.array([0.0])).tolist() == [[0.0]]
        with pytest.raises(NumericalError):
            law.q(np.array([0.0, 1.0]))

    def test_default_probability_raises(self):
        p = ModelParams(r=0.05, sigma0=1e152, alpha=-1000.0, beta=0.0, hurst=0.8)
        assert default_probability(0.0, p) == 0.0
        with pytest.raises(NumericalError, match="double range"):
            default_probability(1.0, p)
        # just inside the range it prices; the value is mpmath's at 50 digits
        assert default_probability(1.0, ModelParams(r=0.05, sigma0=1e151, alpha=-1000.0,
                                                    beta=0.0, hurst=0.8)) == pytest.approx(
            0.50470979643973276736, rel=1e-12)

    @pytest.mark.parametrize("kwargs", [dict(), dict(sigma0=0.2, beta=1e300),
                                        dict(sigma0=1e-200, beta=1e300)])
    def test_onset_stays_positive(self, kwargs):
        onset = self.law(0.0, **kwargs).onset(np.array([[1.0]]))
        assert 0.0 < onset[0, 0] <= 1.0

    def test_onset_bounds_q(self, fig_params):
        law = FirstPassageLaw.of([fig_params(alpha=a, beta=b, hurst=0.9)
                                  for a in (-2.0, 0.0, 1.5) for b in (0.0, 1.0)])
        onset = law.onset(np.full((6, 1), 10.0))
        assert (1.0 / law.phi(onset) >= 700.0).all()


class TestQEvaluator:
    """Q as gammaincc(s, u) from u = 1.1 up and 1 - gammainc(s, u) below."""

    #: s = 1/(2 - alpha) from 1/1002 to 1000
    ALPHAS = [-1000.0, -733.0, -100.0, -10.0, -2.0, 0.0, 1.0, 1.5, 1.9, 1.99, 1.999]
    #: u = 1/phi from 1e-4 to 200, dense on both sides of the split
    U = np.concatenate([np.geomspace(1e-4, 0.9, 40), np.linspace(0.9, 1.3, 401),
                        np.geomspace(1.3, 200.0, 60)[1:]])

    def law_and_times(self, u):
        # r = 0 and beta = 0: phi(t) = sigma0^2 (2-alpha)^2 t / 2, so this t gives 1/phi = u
        params = [ModelParams(r=0.0, sigma0=0.2, alpha=a, beta=0.0, hurst=0.8)
                  for a in self.ALPHAS]
        law = FirstPassageLaw.of(params)
        return law, 2.0 / (law.k * u)

    def test_matches_gammaincc(self):
        assert self.U.min() < Q_SPLIT_U < 50.0 < self.U.max()
        law, t = self.law_and_times(self.U)
        expected = gammaincc(law.s, 1.0 / law.phi(t))
        assert np.all(expected > 0.0)
        # the complement below the split loses about log10(1/Q) digits:
        # at most 6.5e-12 seen, at s ~ 1/970 where Q ~ 2.5e-4
        np.testing.assert_allclose(law.q(t), expected, rtol=1e-11, atol=0.0)

    def test_bounded_and_monotone_across_split(self):
        law, t = self.law_and_times(self.U)
        q = law.q(t)
        assert np.all((q >= 0.0) & (q <= 1.0))
        # u increases along each row, so Q must not increase
        assert np.all(np.diff(q, axis=1) <= 0.0)

    def test_q_and_g_share_the_evaluator(self):
        law, t = self.law_and_times(self.U)
        assert np.array_equal(law.q_and_g(t)[0], law.q(t))
        fractional = FirstPassageLaw.of([ModelParams(r=0.05, sigma0=0.2, alpha=-2.0,
                                                     beta=1.0, hurst=0.9)])
        times = np.geomspace(1e-2, 30.0, 200)
        assert np.array_equal(fractional.q_and_g(times)[0], fractional.q(times))
