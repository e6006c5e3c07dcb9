import json
import math
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from mfcev import cds
from mfcev.cds import (CdsContract, cds_spread, default_curve,
                       premium_annuity, protection_leg, spread_table)
from mfcev.core import FirstPassageLaw, ModelParams
from mfcev.errors import NumericalError, ParameterError, QuadratureError

from reference import TABLE1_BPS, cev_spread_bps, spread_reference_bps, table1_tolerance

DATA = Path(__file__).resolve().parent / "data"


class TestCdsContract:
    @pytest.mark.parametrize("field,kwargs", [
        ("maturity", dict(maturity=0.0)),
        ("maturity", dict(maturity=-1.0)),
        ("recovery", dict(recovery=-0.1)),
        ("recovery", dict(recovery=1.1)),
        ("recovery", dict(recovery=math.nan)),
        ("payments_per_year", dict(payments_per_year=0)),
        ("maturity", dict(maturity=math.inf)),
        ("maturity", dict(maturity=math.nan)),
        ("payments_per_year", dict(payments_per_year=math.inf)),
        ("payments_per_year", dict(payments_per_year=math.nan)),
        ("payments_per_year", dict(payments_per_year=True)),
        ("payments_per_year", dict(payments_per_year=2.0)),
        ("payments_per_year", dict(payments_per_year=np.float64(2.0))),
    ])
    def test_constraints(self, field, kwargs):
        base = dict(maturity=5.0, recovery=0.5)
        base.update(kwargs)
        with pytest.raises(ParameterError) as err:
            CdsContract(**base)
        assert err.value.constraint == field

    def test_contract_within_the_date_slack_keeps_its_first_date(self):
        # ceil(T * freq - 1e-12) is 0 here; the schedule still holds 1/freq
        assert CdsContract(maturity=4e-13, recovery=0.5).payment_times() == [0.5]
        assert CdsContract(maturity=1e-300, recovery=0.5,
                           payments_per_year=4).payment_times() == [0.25]

    def test_premium_date_cap(self):
        # ceil(maturity * freq) may reach MAX_PREMIUM_DATES, not pass it; a
        # freq too large for a float is rejected, not converted
        per_year = cds.MAX_PREMIUM_DATES // 10
        dates = CdsContract(maturity=10.0, recovery=0.5, payments_per_year=per_year)
        assert len(dates.payment_times()) == cds.MAX_PREMIUM_DATES
        for freq in (per_year + 1, 10 ** 400):
            with pytest.raises(ParameterError) as err:
                CdsContract(maturity=10.0, recovery=0.5, payments_per_year=freq)
            assert err.value.constraint == "payments_per_year"

    def test_payment_dates(self):
        assert CdsContract(maturity=1.0, recovery=0.5).payment_times() == [0.5, 1.0]
        assert CdsContract(maturity=10.0, recovery=0.5).payment_times()[-1] == 10.0
        assert len(CdsContract(maturity=10.0, recovery=0.5).payment_times()) == 20
        # a stub maturity rounds the schedule up
        assert CdsContract(maturity=1.25, recovery=0.5).payment_times() == [0.5, 1.0, 1.5]
        assert CdsContract(maturity=2.0, recovery=0.5,
                           payments_per_year=4).payment_times()[:2] == [0.25, 0.5]

    def test_array_schedule_matches_payment_times(self):
        # payment_times() reads row 0 of a one-contract schedule; in one
        # batch of every pairing, each row must be that contract's dates,
        # padded with the maturity at zero accrual
        contracts = [CdsContract(maturity=m, recovery=0.5, payments_per_year=f)
                     for m in (1e-4, 0.3, 1.0, 1.25, 2.0, 10.0, 100.0) for f in (1, 2, 4, 12)]
        dates, accrual = cds._schedule(contracts)
        assert dates.shape == accrual.shape == (len(contracts), 1200)
        for c, row_dates, row_accrual in zip(contracts, dates, accrual):
            times = c.payment_times()
            pad = len(row_dates) - len(times)
            assert row_dates.tolist() == times + [c.maturity] * pad
            assert row_accrual.tolist() == [1.0 / c.payments_per_year] * len(times) + [0.0] * pad


class TestProtectionLeg:
    def test_full_recovery_is_free(self, fig_params):
        contract = CdsContract(maturity=5.0, recovery=1.0)
        assert protection_leg(contract, fig_params()) == 0.0

    def test_vanishes_at_short_maturity(self, fig_params):
        contract = CdsContract(maturity=1e-4, recovery=0.5)
        assert protection_leg(contract, fig_params()) == pytest.approx(0.0, abs=1e-12)


class TestPremiumAnnuity:
    def test_no_default_risk_geometric_sum(self, fig_params):
        # vanishing vol freezes Q at 0, leaving the discounted accrual sum
        p = fig_params(sigma0=1e-4)
        contract = CdsContract(maturity=3.0, recovery=0.5)
        expected = 0.5 * sum(math.exp(-0.05 * i / 2) for i in range(1, 7))
        assert premium_annuity(contract, p) == pytest.approx(expected, rel=1e-12)

    def test_zero_rate_unit_annuity(self):
        p_riskless = dict(r=0.0, sigma0=1e-4, alpha=0.0, beta=0.0, hurst=0.8, s0=50.0)
        from mfcev import ModelParams
        contract = CdsContract(maturity=1.0, recovery=0.5)
        assert premium_annuity(contract, ModelParams(**p_riskless)) == pytest.approx(1.0)

    @pytest.mark.parametrize("beta,hurst", [(0.0, None), (1.0, 0.9)])
    @pytest.mark.parametrize("maturity", [1.0, 10.0])
    def test_bounds(self, fig_params, beta, hurst, maturity):
        p = fig_params(alpha=-2.0, beta=beta, hurst=hurst)
        annuity = premium_annuity(CdsContract(maturity=maturity, recovery=0.5), p)
        assert 0.0 < annuity <= maturity


class TestCdsSpread:
    @pytest.mark.parametrize("alpha,beta,hurst,maturity,ref", [
        (-2.0, 0.0, None, 1.0, 14.6761),
        (-2.0, 0.5, 0.8, 2.0, 97.5923),
        (0.0, 1.0, 0.9, 5.0, 240.6370),
        (0.0, 0.0, None, 10.0, 22.0907),
    ])
    def test_benchmark_cells(self, fig_params, alpha, beta, hurst, maturity, ref):
        p = fig_params(alpha=alpha, beta=beta, hurst=hurst)
        spread = cds_spread(CdsContract(maturity=maturity, recovery=0.5), p)
        assert abs(spread - ref) <= table1_tolerance(ref)

    def test_full_recovery_spread_is_zero(self, fig_params):
        assert cds_spread(CdsContract(maturity=5.0, recovery=1.0), fig_params()) == 0.0

    def test_consistent_with_legs(self, fig_params):
        p = fig_params(alpha=-2.0)
        contract = CdsContract(maturity=5.0, recovery=0.4)
        expected = 1e4 * protection_leg(contract, p) / premium_annuity(contract, p)
        assert cds_spread(contract, p) == pytest.approx(expected, rel=1e-12)

    def test_increasing_in_beta(self, fig_params):
        for alpha, hurst, maturity in ((-2.0, 0.8, 1.0), (0.0, 0.9, 5.0)):
            spreads = [cds_spread(CdsContract(maturity=maturity, recovery=0.5),
                                  fig_params(alpha=alpha, beta=b, hurst=hurst))
                       for b in (0.0, 0.5, 1.0)]
            assert spreads[0] < spreads[1] < spreads[2]

    def test_hurst_non_monotone_cell(self, fig_params):
        # At beta=0.5, alpha=-2, T=1 the spread *decreases* from H=0.8 to
        # H=0.9 (33.0638 vs 32.9327); pin it so nobody "fixes" it later.
        contract = CdsContract(maturity=1.0, recovery=0.5)
        low = cds_spread(contract, fig_params(alpha=-2.0, beta=0.5, hurst=0.8))
        high = cds_spread(contract, fig_params(alpha=-2.0, beta=0.5, hurst=0.9))
        assert abs(low - 33.0638) <= table1_tolerance(33.0638)
        assert abs(high - 32.9327) <= table1_tolerance(32.9327)
        assert low > high

    def test_vanishing_vol_vanishing_spread(self, fig_params):
        assert cds_spread(CdsContract(maturity=5.0, recovery=0.5),
                          fig_params(sigma0=1e-3)) == 0.0

    @pytest.mark.parametrize("alpha", [-2.0, 0.0, 1.5])
    @pytest.mark.parametrize("maturity", [1.0, 5.0])
    def test_classical_limit_matches_independent_pricer(self, fig_params, alpha, maturity):
        p = fig_params(alpha=alpha, beta=0.0)
        ours = cds_spread(CdsContract(maturity=maturity, recovery=0.5), p)
        ref = cev_spread_bps(maturity, 0.05, 0.2, alpha, 50.0, 0.5)
        assert ours == pytest.approx(ref, rel=1e-8, abs=1e-12)

    @pytest.mark.parametrize("alpha,beta,hurst,r,sigma0,maturity", [
        (-2.0, 1.0, 0.9, 0.05, 0.2, 10.0),
        (1.5, 0.5, 0.99, 0.05, 0.2, 5.0),
        (0.5, 3.0, 0.76, 0.3, 0.5, 7.3),
        (-1000.0, 0.5, 0.8, 5.0, 0.2, 5.0),
        (-500.0, 2.0, 0.95, 0.0, 0.7, 100.0),
        (-2.0, 1.0, 0.9, 2.0, 0.2, 100.0),
    ])
    def test_matches_reference_pricer(self, alpha, beta, hurst, r, sigma0, maturity):
        ours = cds_spread(CdsContract(maturity=maturity, recovery=0.4),
                          ModelParams(r=r, sigma0=sigma0, alpha=alpha, beta=beta,
                                      hurst=hurst, s0=50.0))
        ref = spread_reference_bps(maturity, r, sigma0, alpha, beta, hurst, 0.4)
        assert ours == pytest.approx(ref, rel=1e-9)


class TestSpreadTable:
    BETAS_HURSTS = [(0.0, None), (0.5, 0.8), (0.5, 0.9), (1.0, 0.8), (1.0, 0.9)]

    def test_benchmark_grid_shape_and_order(self, fig_params):
        cells = spread_table(fig_params(), [0.0, -2.0], self.BETAS_HURSTS,
                             [1.0, 2.0, 5.0, 10.0])
        assert len(cells) == 40
        expected_order = [(b, h, t, a)
                          for b, h in self.BETAS_HURSTS
                          for t in (1.0, 2.0, 5.0, 10.0)
                          for a in (0.0, -2.0)]
        assert [(c.beta, c.hurst, c.maturity, c.alpha) for c in cells] == expected_order

    def test_matches_published_benchmark_grid(self, fig_params):
        cells = spread_table(fig_params(), [0.0, -2.0], self.BETAS_HURSTS,
                             [1.0, 2.0, 5.0, 10.0])
        for cell in cells:
            ref = TABLE1_BPS[(cell.beta, cell.hurst)][(int(cell.maturity), int(cell.alpha))]
            assert abs(cell.spread_bps - ref) <= table1_tolerance(ref), (cell, ref)

    def test_benchmark_grid_bits(self, fig_params):
        # table1.csv keeps 4 decimals; this file holds every spread's double, as repr
        lines = (DATA / "table1_bits.csv").read_text().splitlines()[1:]
        cells = spread_table(fig_params(), [0.0, -2.0], self.BETAS_HURSTS,
                             [1.0, 2.0, 5.0, 10.0])
        assert [f"{c.beta!r},{c.hurst!r},{c.alpha!r},{c.maturity!r},{c.spread_bps!r}"
                for c in cells] == lines

    def test_empty_maturities(self, fig_params):
        assert spread_table(fig_params(), [0.0], self.BETAS_HURSTS, []) == []

    def test_singleton_matches_scalar(self, fig_params):
        cells = spread_table(fig_params(), [-2.0], [(0.5, 0.9)], [2.0])
        assert len(cells) == 1
        direct = cds_spread(CdsContract(maturity=2.0, recovery=0.5),
                            fig_params(alpha=-2.0, beta=0.5, hurst=0.9))
        assert cells[0].spread_bps == pytest.approx(direct, rel=1e-12)
        assert cells[0].error is None

    # terms: where each case departs from the benchmark grid, model inputs included
    @pytest.mark.parametrize("field,maturities,terms", [
        ("maturity", [1.0, -1.0], {}),
        ("recovery", [1.0, 2.0], dict(recovery=1.5)),
        ("payments_per_year", [1.0, 2.0], dict(payments_per_year=0)),
        ("alpha", [1.0, 2.0], dict(alphas=[0.0, 2.5])),
        ("hurst", [1.0, 2.0], dict(betas_hursts=BETAS_HURSTS + [(0.5, None)])),
    ])
    def test_bad_contract_terms_raise_before_pricing(self, fig_params, monkeypatch,
                                                     field, maturities, terms):
        priced = []
        monkeypatch.setattr(cds, "_price_batch", lambda *args: priced.append(args))
        grid = dict(alphas=[0.0, -2.0], betas_hursts=self.BETAS_HURSTS, maturities=maturities)
        with pytest.raises(ParameterError) as err:
            spread_table(fig_params(), **{**grid, **terms})
        assert err.value.constraint == field
        assert priced == []

    def test_cell_cap_raises_before_pricing(self, fig_params, monkeypatch):
        priced = []
        monkeypatch.setattr(cds, "_price_batch", lambda *args: priced.append(args))
        monkeypatch.setattr(cds, "MAX_TABLE_CELLS", 39)
        with pytest.raises(ParameterError) as err:
            spread_table(fig_params(), [0.0, -2.0], self.BETAS_HURSTS, [1.0, 2.0, 5.0, 10.0])
        assert err.value.constraint == "maturities"
        assert priced == []

    def test_alternating_classical_and_fractional_rows(self):
        # phi once evaluated P(2H, lambda t) through a scipy.special ufunc
        # with where= over a 2-D array, which corrupted the heap and aborted
        # the interpreter when classical and fractional rows alternated; a
        # subprocess keeps such an abort from killing the pytest run
        script = (
            "import json\n"
            "from mfcev.cds import spread_table\n"
            "from mfcev.core import ModelParams\n"
            "base = ModelParams(r=0.05, sigma0=0.2, alpha=0, beta=0, hurst=None, s0=50)\n"
            "cells = spread_table(base, [0, -2], [(0.0, None), (0.5, 0.8)] * 6, [1, 2, 5, 10])\n"
            "print(json.dumps([[c.alpha, c.beta, c.hurst, c.maturity, c.spread_bps]"
            " for c in cells]))\n")
        root = Path(__file__).resolve().parents[1]
        proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                              env={"PYTHONPATH": str(root / "src"), "PATH": "/usr/bin:/bin"})
        assert proc.returncode == 0, proc.stderr
        cells = json.loads(proc.stdout)
        assert len(cells) == 96
        for alpha, beta, hurst, maturity, spread in cells:
            params = ModelParams(r=0.05, sigma0=0.2, alpha=alpha, beta=beta, hurst=hurst, s0=50)
            direct = cds_spread(CdsContract(maturity=maturity, recovery=0.5), params)
            assert spread == pytest.approx(direct, rel=1e-12)

    def test_batches_keep_grid_order(self, fig_params, monkeypatch):
        # 30 cells priced in batches of 7; capped at 8 panels, every cell at
        # T = 100 fails to converge, so failures sit within and between batches
        alphas, maturities = [0.0, -2.0], [1.0, 5.0, 100.0]
        monkeypatch.setattr(cds, "MAX_PANELS", 2 * cds.BASE_PANELS)

        def key(cell):
            spread = None if math.isnan(cell.spread_bps) else cell.spread_bps
            return cell.alpha, cell.beta, cell.hurst, cell.maturity, spread, cell.error

        whole = spread_table(fig_params(), alphas, self.BETAS_HURSTS, maturities)
        monkeypatch.setattr(cds, "BATCH_CELLS", 7)
        cells = spread_table(fig_params(), alphas, self.BETAS_HURSTS, maturities)
        assert [key(c) for c in cells] == [key(c) for c in whole]
        grid = [(b, h, t, a) for b, h in self.BETAS_HURSTS for t in maturities for a in alphas]
        assert [(c.beta, c.hurst, c.maturity, c.alpha) for c in cells] == grid
        for cell in cells:
            contract = CdsContract(maturity=cell.maturity, recovery=0.5)
            params = fig_params(alpha=cell.alpha, beta=cell.beta, hurst=cell.hurst)
            if cell.maturity == 100.0:
                assert math.isnan(cell.spread_bps)
                with pytest.raises(QuadratureError) as err:
                    cds_spread(contract, params)
                assert cell.error == str(err.value)
                continue
            assert cell.error is None
            assert cell.spread_bps == cds_spread(contract, params)


class TestRefinementLoop:
    @staticmethod
    def record(monkeypatch):
        """The shape of every times array that Q, and Q with g, are evaluated on."""
        shapes = {"q": [], "q_and_g": []}
        for name, calls in shapes.items():
            def recording(self, t, exact=getattr(FirstPassageLaw, name), calls=calls):
                calls.append(t.shape)
                return exact(self, t)
            monkeypatch.setattr(FirstPassageLaw, name, recording)
        return shapes

    def test_benchmark_grid_takes_two_meshes(self, fig_params, monkeypatch):
        # every cell converges at the first doubling; Q is read once, at T
        # and the 20 semi-annual dates of the longest contract
        shapes = self.record(monkeypatch)
        spread_table(fig_params(), [0.0, -2.0], TestSpreadTable.BETAS_HURSTS,
                     [1.0, 2.0, 5.0, 10.0])
        nodes = cds.BASE_PANELS * cds.GL_ORDER
        assert shapes == {"q": [(40, 21)], "q_and_g": [(40, nodes), (40, 2 * nodes)]}

    def test_only_unconverged_rows_are_refined(self, fig_params, monkeypatch):
        # the T = 100 cell needs 16 panels, the T = 5 cell 8
        shapes = self.record(monkeypatch)
        cells = spread_table(fig_params(), [-2.0], [(1.0, 0.9)], [5.0, 100.0])
        nodes = cds.BASE_PANELS * cds.GL_ORDER
        assert shapes["q_and_g"] == [(2, nodes), (2, 2 * nodes), (1, 4 * nodes)]
        monkeypatch.undo()
        for cell in cells:
            assert cell.spread_bps == cds_spread(CdsContract(maturity=cell.maturity,
                                                             recovery=0.5),
                                                 fig_params(alpha=-2.0, beta=1.0, hurst=0.9))


class TestDefaultCurve:
    def test_grid_and_endpoints(self, fig_params):
        t, (q,) = default_curve([fig_params()], 10.0, 21)
        assert t.shape == q.shape == (21,)
        assert t[0] == 0.0 and q[0] == 0.0
        assert t[-1] == 10.0
        assert (np.diff(t) > 0.0).all()

    def test_monotone_nondecreasing(self, fig_params):
        _, (q,) = default_curve([fig_params(alpha=-2.0, beta=1.0, hurst=0.9)], 10.0, 101)
        assert (np.diff(q) >= 0.0).all()
        assert ((0.0 <= q) & (q <= 1.0)).all()

    def test_fractional_curve_dominates_classical(self, fig_params):
        _, (classical,) = default_curve([fig_params(alpha=0.0, beta=0.0)], 10.0, 41)
        _, (fractional,) = default_curve([fig_params(alpha=0.0, beta=0.5)], 10.0, 41)
        assert (fractional >= classical).all()
        assert fractional[-1] > classical[-1]

    def test_validation(self, fig_params):
        with pytest.raises(ParameterError):
            default_curve([fig_params()], 0.0, 10)
        with pytest.raises(ParameterError):
            default_curve([fig_params()], 5.0, 1)
        with pytest.raises(ParameterError):
            default_curve([fig_params()], math.inf, 10)
        with pytest.raises(ParameterError) as err:
            default_curve([fig_params()], 5.0, cds.MAX_CURVE_POINTS + 1)
        assert err.value.constraint == "n_points"
        for n_points in (3.0, True):
            with pytest.raises(ParameterError) as err:
                default_curve([fig_params()], 1.0, n_points)
            assert err.value.constraint == "n_points"

    def test_value_cap_raises_before_any_law(self, fig_params, monkeypatch):
        built = []
        monkeypatch.setattr(cds.FirstPassageLaw, "of",
                            classmethod(lambda cls, params: built.append(params)))
        monkeypatch.setattr(cds, "MAX_CURVE_VALUES", 5)
        with pytest.raises(ParameterError) as err:
            default_curve([fig_params(), fig_params(alpha=-2.0)], 1.0, 3)
        assert err.value.constraint == "series"
        assert str(err.value) == "2 series x 3 points exceed the cap of 5 Q values"
        assert built == []


class TestFailureContract:
    # needs 16 panels per leg integral: the cap of 8 leaves it unconverged
    HARD = dict(alpha=-2.0, beta=1.0, hurst=0.9)
    HARD_MATURITY = 100.0

    def test_prices_with_default_cap(self, fig_params):
        spread = cds_spread(CdsContract(maturity=self.HARD_MATURITY, recovery=0.5),
                            fig_params(**self.HARD))
        assert 0.0 < spread < 1e4

    def test_unconverged_cell_raises_quadrature_error(self, fig_params, monkeypatch):
        monkeypatch.setattr(cds, "MAX_PANELS", 2 * cds.BASE_PANELS)
        with pytest.raises(QuadratureError) as err:
            cds_spread(CdsContract(maturity=self.HARD_MATURITY, recovery=0.5),
                       fig_params(**self.HARD))
        assert err.value.error_bound > 0.0
        assert math.isfinite(err.value.estimate)

    def test_leg_disagreement_raises(self, fig_params, monkeypatch):
        exact = FirstPassageLaw.q_and_g

        def biased(self, t):
            q, g = exact(self, t)
            return q, g * (1.0 + 1e-6)

        monkeypatch.setattr(FirstPassageLaw, "q_and_g", biased)
        with pytest.raises(NumericalError, match="disagree") as err:
            cds_spread(CdsContract(maturity=5.0, recovery=0.5), fig_params())
        assert not isinstance(err.value, QuadratureError)

    def test_non_finite_leg_raises(self, fig_params, monkeypatch):
        exact = FirstPassageLaw.q_and_g

        def infinite_density(self, t):
            q, g = exact(self, t)
            return q, np.full_like(g, np.inf)

        monkeypatch.setattr(FirstPassageLaw, "q_and_g", infinite_density)
        with pytest.raises(NumericalError, match="not finite") as err:
            cds_spread(CdsContract(maturity=5.0, recovery=0.5), fig_params())
        assert not isinstance(err.value, QuadratureError)

    def test_unconverged_outranks_disagreement_in_one_batch(self, fig_params, monkeypatch):
        # both cells' legs disagree; the one that also misses the panel cap
        # reports the quadrature failure
        exact = FirstPassageLaw.q_and_g

        def biased(self, t):
            q, g = exact(self, t)
            return q, g * (1.0 + 1e-6)

        monkeypatch.setattr(FirstPassageLaw, "q_and_g", biased)
        monkeypatch.setattr(cds, "MAX_PANELS", 2 * cds.BASE_PANELS)
        cells = spread_table(fig_params(), [-2.0], [(1.0, 0.9)], [5.0, self.HARD_MATURITY])
        assert cells[0].error.startswith("protection-leg evaluations disagree")
        assert cells[1].error.startswith("quadrature failed")

    def test_table_captures_numerical_failure(self, fig_params, monkeypatch):
        monkeypatch.setattr(cds, "MAX_PANELS", 2 * cds.BASE_PANELS)
        cells = spread_table(fig_params(), [-2.0], [(1.0, 0.9)], [5.0, self.HARD_MATURITY])
        assert [c.maturity for c in cells] == [5.0, self.HARD_MATURITY]
        assert cells[0].error is None
        assert cells[0].spread_bps == cds_spread(CdsContract(maturity=5.0, recovery=0.5),
                                                 fig_params(**self.HARD))
        assert math.isnan(cells[1].spread_bps)
        assert "quadrature" in cells[1].error

