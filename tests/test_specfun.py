import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mfcev import specfun
from mfcev.specfun import (kummer_1f1_result, log_gamma, reg_gamma_upper_result,
                           whittaker_m_result)

from reference import erfc_reference, kummer_reference


class TestLogGamma:
    def test_gamma_one(self):
        assert log_gamma(1.0) == pytest.approx(0.0, abs=1e-14)

    def test_gamma_half(self):
        assert log_gamma(0.5) == pytest.approx(0.5 * math.log(math.pi), rel=1e-13)

    def test_gamma_five(self):
        assert log_gamma(5.0) == pytest.approx(math.log(24.0), rel=1e-13)

    def test_domain(self):
        with pytest.raises(ValueError):
            log_gamma(0.0)
        with pytest.raises(ValueError):
            log_gamma(-1.5)

    @given(st.floats(min_value=1e-3, max_value=100.0))
    @settings(deadline=None)
    def test_against_libm(self, s):
        ref = math.lgamma(s)
        assert abs(log_gamma(s) - ref) <= 1e-12 * max(1.0, abs(ref))


class TestRegGamma:
    def test_exponential_case(self):
        # s = 1 reduces the upper function to e^(-x)
        assert reg_gamma_upper_result(1.0, math.log(2.0)).value == pytest.approx(0.5, abs=1e-14)

    def test_half_s_matches_erfc(self):
        # frozen from a 40-digit evaluation of erfc(sqrt(1.97747))
        assert reg_gamma_upper_result(0.5, 1.97747).value == pytest.approx(
            0.04673398418339496099, rel=1e-12)

    def test_zero_x(self):
        assert reg_gamma_upper_result(0.25, 0.0).value == 1.0

    def test_domain(self):
        with pytest.raises(ValueError):
            reg_gamma_upper_result(0.0, 1.0)
        with pytest.raises(ValueError):
            reg_gamma_upper_result(-1.0, 1.0)
        with pytest.raises(ValueError):
            reg_gamma_upper_result(0.5, -0.1)

    def test_frozen_spot_values(self):
        # 40-digit references for both evaluation branches
        assert reg_gamma_upper_result(0.5, 1.0).value == pytest.approx(
            0.15729920705028513066, rel=1e-12)
        assert reg_gamma_upper_result(1.7, 0.3).value == pytest.approx(
            0.93058115338102571487, rel=1e-12)
        # the lower function P(0.25, 2.5), as 1 - Q
        assert 1.0 - reg_gamma_upper_result(0.25, 2.5).value == pytest.approx(
            0.99078625152045996729, rel=1e-12)

    @given(st.floats(min_value=1e-3, max_value=2.0),
           st.floats(min_value=0.0, max_value=50.0))
    @settings(deadline=None)
    def test_upper_in_unit_interval(self, s, x):
        assert 0.0 <= reg_gamma_upper_result(s, x).value <= 1.0

    @given(st.floats(min_value=0.05, max_value=2.0),
           st.lists(st.floats(min_value=0.0, max_value=50.0),
                    min_size=2, max_size=12,
                    unique_by=lambda x: round(x, 2)))
    @settings(deadline=None)
    def test_upper_strictly_decreasing_in_x(self, s, xs):
        # grid points kept >= 0.005 apart so the decrease is representable
        values = [reg_gamma_upper_result(s, x).value for x in sorted(xs)]
        for lo, hi in zip(values[1:], values[:-1]):
            assert lo < hi

    @given(st.floats(min_value=0.0, max_value=50.0))
    @settings(deadline=None)
    def test_half_s_equals_erfc(self, x):
        assert reg_gamma_upper_result(0.5, x).value == pytest.approx(
            erfc_reference(math.sqrt(x)), rel=1e-10, abs=1e-300)

    def test_result_metadata(self, monkeypatch):
        res = reg_gamma_upper_result(0.5, 3.0)
        assert res.converged and math.isfinite(res.value)
        assert 0 < res.terms_used <= specfun.MAX_TERMS
        monkeypatch.setattr(specfun, "MAX_TERMS", 2)
        starved = reg_gamma_upper_result(0.5, 1.2)
        assert not starved.converged
        assert starved.terms_used == 2


class TestKummer:
    def test_at_zero(self):
        res = kummer_1f1_result(1.0, 2.0, 0.0)
        assert res.value == 1.0 and res.converged and res.terms_used == 0

    def test_exponential_reduction(self):
        # 1F1(1;2;z) = (e^z - 1)/z
        assert kummer_1f1_result(1.0, 2.0, 1.0).value == pytest.approx(math.e - 1.0, rel=1e-13)

    def test_generic_small_z(self):
        # frozen from raw partial sums run to 1e-14 stagnation; the reference is mpmath's
        assert kummer_1f1_result(1.0, 3.6, 0.5).value == pytest.approx(
            1.1554426641666370558, rel=1e-13)
        assert kummer_1f1_result(1.0, 3.6, 0.5).value == pytest.approx(
            kummer_reference(1.0, 3.6, 0.5), rel=1e-12)

    @pytest.mark.parametrize("a,b,z,expected", [
        (1.0, 2.8, 75.0, 2.6386211546052065096e+29),
        (1.0, 3.6, 120.0, 1.9039780474897428533e+47),
        (2.3, 4.1, 60.0, 4.0382761494887641366e+23),
    ])
    def test_asymptotic_branch(self, a, b, z, expected):
        # frozen 40-digit references beyond the series/asymptotic switch
        assert kummer_1f1_result(a, b, z).value == pytest.approx(expected, rel=1e-10)

    def test_domain(self):
        with pytest.raises(ValueError):
            kummer_1f1_result(1.0, 0.0, 1.0)
        with pytest.raises(ValueError):
            kummer_1f1_result(1.0, 2.0, -0.5)

    def test_budget_flag(self, monkeypatch):
        monkeypatch.setattr(specfun, "MAX_TERMS", 3)
        res = kummer_1f1_result(1.0, 2.0, 30.0)
        assert not res.converged and res.terms_used == 3

    @given(st.floats(min_value=0.1, max_value=5.0),
           st.floats(min_value=0.5, max_value=8.0),
           st.floats(min_value=0.0, max_value=40.0))
    @settings(deadline=None)
    def test_matches_mpmath(self, a, b, z):
        assert kummer_1f1_result(a, b, z).value == pytest.approx(
            kummer_reference(a, b, z), rel=1e-10)


class TestWhittakerM:
    def test_sinh_reduction(self):
        # M_{0,1/2}(z) = 2 sinh(z/2)
        assert whittaker_m_result(0.0, 0.5, 2.0).value == pytest.approx(
            2.0 * math.sinh(1.0), rel=1e-13)

    def test_small_z_leading_order(self):
        # M_{k,mu}(z) ~ z^(mu+1/2) as z -> 0+
        z = 1e-5
        value = whittaker_m_result(0.8, 1.3, z).value
        assert value == pytest.approx(z ** 1.8, rel=1e-4)
        assert whittaker_m_result(0.8, 1.3, 1e-12).value < 1e-21

    def test_generic_point(self):
        # frozen 40-digit references
        assert whittaker_m_result(0.9, 1.4, 1.0).value == pytest.approx(
            0.80609488534172031858, rel=1e-12)
        assert whittaker_m_result(0.9, 1.4, 30.0).value == pytest.approx(
            718732.53067173555726, rel=1e-10)

    def test_domain(self):
        with pytest.raises(ValueError):
            whittaker_m_result(0.5, 0.5, 0.0)
        with pytest.raises(ValueError):
            whittaker_m_result(0.5, 0.5, -1.0)
        with pytest.raises(ValueError):
            whittaker_m_result(0.5, -0.5, 1.0)  # 1+2*mu = 0

    @pytest.mark.parametrize("hurst", [0.76, 0.8, 0.9, 0.99])
    @pytest.mark.parametrize("z", [0.01, 0.1, 0.5, 1.0, 2.0, 5.0, 10.0, 20.0])
    def test_reduction_to_first_kind_series(self, hurst, z):
        # For (kappa, mu) = (H, H+1/2) the 1F1 parameters collapse to
        # (1, 2H+2); the generic path must agree with the explicit form.
        generic = whittaker_m_result(hurst, hurst + 0.5, z).value
        reduced = (math.exp(-0.5 * z) * z ** (hurst + 1.0)
                   * kummer_1f1_result(1.0, 2.0 * hurst + 2.0, z).value)
        assert generic == pytest.approx(reduced, rel=1e-10)

    def test_metadata(self):
        res = whittaker_m_result(0.9, 1.4, 3.0)
        assert res.converged and math.isfinite(res.value)
        assert res.terms_used <= specfun.MAX_TERMS
