import math
import resource
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from mfcev import cds, cli
from mfcev.cds import CdsContract, cds_spread
from mfcev.cli import _fmt_bps, _fmt_prob, _fmt_z, build_parser, main
from mfcev.core import ModelParams, default_probability
from mfcev.mc import (McConfig, default_probability_estimate, mc_cds_spread,
                      mc_default_probability, simulate_fpt, spread_estimate)

from reference import default_probability_mpmath

DATA = Path(__file__).resolve().parent / "data"
ROOT = Path(__file__).resolve().parents[1]


def run_module(*argv, **kwargs):
    """Run ``python -m mfcev`` in a fresh interpreter, so that any numpy
    warning reaches its stderr."""
    return subprocess.run([sys.executable, "-m", "mfcev", *argv], capture_output=True, text=True,
                          env={"PYTHONPATH": str(ROOT / "src"), "PATH": "/usr/bin:/bin"},
                          **kwargs)

SPREAD_FLAGS = ["--alpha", "-2", "--beta", "1", "--hurst", "0.9",
                "--sigma0", "0.2", "--rate", "0.05",
                "--recovery", "0.5", "--maturity", "1"]


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestSpreadCommand:
    def test_benchmark_cell(self, capsys):
        code, out, _ = run_cli(capsys, "spread", *SPREAD_FLAGS)
        assert code == 0
        assert out == "121.0740\n"

    def test_full_recovery(self, capsys):
        flags = SPREAD_FLAGS[:-4] + ["--recovery", "1", "--maturity", "1"]
        code, out, _ = run_cli(capsys, "spread", *flags)
        assert code == 0 and out == "0.0000\n"

    def test_invalid_alpha_exits_2(self, capsys):
        flags = ["--alpha", "2"] + SPREAD_FLAGS[2:]
        code, _, err = run_cli(capsys, "spread", *flags)
        assert code == 2
        assert "alpha" in err

    def test_missing_flag_exits_2(self, capsys):
        code, _, err = run_cli(capsys, "spread", "--alpha", "0", "--beta", "0.5",
                               "--hurst", "0.8", "--sigma0", "0.2", "--rate", "0.05",
                               "--maturity", "5")
        assert code == 2
        assert "recovery" in err

    def test_unknown_flag_exits_2(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["spread", "--frobnicate", "1"] + SPREAD_FLAGS)
        assert exc.value.code == 2

    def test_precision_override(self, capsys):
        code, out, _ = run_cli(capsys, "spread", *SPREAD_FLAGS, "--precision", "8")
        assert code == 0
        assert out.strip() == f"{float(out):.8f}"

    @pytest.mark.parametrize("alpha,rate,maturity", [("-500", "5", "5"), ("-1000", "5", "5"),
                                                     ("-2", "2", "100")])
    def test_extreme_parameters_price(self, capsys, alpha, rate, maturity):
        code, out, err = run_cli(capsys, "spread", f"--alpha={alpha}", "--beta=0.5",
                                 "--hurst=0.8", "--sigma0=0.2", f"--rate={rate}",
                                 "--recovery=0.5", f"--maturity={maturity}")
        assert code == 0, err
        assert float(out) >= 0.0

    def test_negative_precision_exits_2(self, capsys):
        code, out, err = run_cli(capsys, "spread", *SPREAD_FLAGS, "--precision=-1")
        assert code == 2 and out == ""
        assert "'precision'" in err

    def test_equals_style_flags(self, capsys):
        code, out, _ = run_cli(capsys, "spread", "--alpha=-2", "--beta=1",
                               "--hurst=0.9", "--sigma0=0.2", "--rate=0.05",
                               "--recovery=0.5", "--maturity=1")
        assert code == 0 and out == "121.0740\n"


class TestTable1Command:
    def test_default_grid(self, capsys):
        code, out, _ = run_cli(capsys, "table1")
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0] == "beta,hurst,alpha,maturity,spread_bps"
        assert len(lines) == 41
        rows = {tuple(line.split(",")[:4]): line.split(",")[4] for line in lines[1:]}
        assert rows[("0", "-", "0", "1")] == "0.0015"
        assert rows[("1", "0.8", "-2", "5")] == "265.8567"
        assert rows[("0.5", "0.9", "-2", "2")] == "104.3824"

    def test_byte_stable(self, capsys):
        _, first, _ = run_cli(capsys, "table1", "--maturities", "1,2")
        _, second, _ = run_cli(capsys, "table1", "--maturities", "1,2")
        assert first == second

    def test_matches_golden_csv(self, capsys):
        code, out, _ = run_cli(capsys, "table1")
        assert code == 0
        assert out.encode() == (DATA / "table1.csv").read_bytes()

    def test_maturity_restriction(self, capsys):
        code, out, _ = run_cli(capsys, "table1", "--maturities", "1")
        assert code == 0
        assert len(out.strip().split("\n")) == 11

    def test_output_file_has_lf_endings(self, capsys, tmp_path):
        target = tmp_path / "table.csv"
        code, out, _ = run_cli(capsys, "table1", "--maturities", "1",
                               "--output", str(target))
        assert code == 0 and out == ""
        raw = target.read_bytes()
        assert b"\r" not in raw and raw.endswith(b"\n")
        assert raw.decode().split("\n")[0] == "beta,hurst,alpha,maturity,spread_bps"

    @pytest.mark.parametrize("flag,constraint", [("--maturities=-1", "maturity"),
                                                 ("--recovery=1.5", "recovery"),
                                                 ("--freq=0", "payments_per_year")])
    def test_bad_contract_terms_exit_2(self, capsys, flag, constraint):
        # the terms are the caller's: a parameter error, not a failed table cell
        code, out, err = run_cli(capsys, "table1", flag)
        assert code == 2 and out == ""
        assert f"'{constraint}'" in err and "numerical failure" not in err

    def test_round_trip(self, capsys):
        _, out, _ = run_cli(capsys, "table1", "--maturities", "5")
        for line in out.strip().split("\n")[1:]:
            beta, hurst, alpha, maturity, bps = line.split(",")
            params = ModelParams(r=0.05, sigma0=0.2, alpha=float(alpha),
                                 beta=float(beta),
                                 hurst=0.8 if hurst == "-" else float(hurst),
                                 s0=50.0)
            direct = cds_spread(CdsContract(maturity=float(maturity), recovery=0.5),
                                params)
            assert abs(float(bps) - direct) <= 5.1e-5  # half-ulp of 4 decimals


class TestCurveCommand:
    CURVE_FLAGS = ["--alpha", "0", "--sigma0", "0.2", "--rate", "0.05",
                   "--tmax", "10", "--points", "21"]

    def test_single_series(self, capsys):
        code, out, _ = run_cli(capsys, "curve", *self.CURVE_FLAGS,
                               "--beta", "0.5", "--hurst", "0.8")
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0] == "t,q"
        assert len(lines) == 22
        assert lines[1] == "0,0"
        qs = [float(line.split(",")[1]) for line in lines[1:]]
        assert all(0.0 <= q <= 1.0 for q in qs)
        assert all(b >= a for a, b in zip(qs, qs[1:]))

    def test_two_points(self, capsys):
        code, out, _ = run_cli(capsys, "curve", "--alpha", "0", "--sigma0", "0.2",
                               "--rate", "0.05", "--tmax", "2", "--points", "2",
                               "--beta", "0", "--hurst", "0.8")
        assert code == 0
        assert len(out.strip().split("\n")) == 3

    def test_overlay_series_ordering(self, capsys):
        code, out, _ = run_cli(capsys, "curve", *self.CURVE_FLAGS,
                               "--series", "0", "--series", "1:0.9")
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0] == "t,q_b0,q_b1_H0.9"
        for line in lines[1:]:
            _, q_classical, q_fractional = (float(tok) for tok in line.split(","))
            assert q_fractional >= q_classical

    def test_matches_golden_csv(self, capsys):
        code, out, _ = run_cli(capsys, "curve", "--alpha", "-2", "--sigma0", "0.2",
                               "--rate", "0.05", "--tmax", "10", "--points", "41",
                               "--series", "0", "--series", "0.5:0.8", "--series", "1:0.9")
        assert code == 0
        assert out.encode() == (DATA / "curve.csv").read_bytes()

    def test_fractional_series_requires_hurst(self, capsys):
        code, _, err = run_cli(capsys, "curve", *self.CURVE_FLAGS, "--series", "1")
        assert code == 2 and "hurst" in err.lower()

    def test_missing_tmax_exits_2(self, capsys):
        code, _, err = run_cli(capsys, "curve", "--alpha", "0", "--sigma0", "0.2",
                               "--rate", "0.05", "--points", "5", "--beta", "0")
        assert code == 2 and "tmax" in err

    @pytest.mark.parametrize("flags", [
        ["--sigma0=1e300", "--beta=0"],
        ["--sigma0=0.2", "--beta=1e300", "--hurst=0.8"],
    ], ids=["k-overflows", "beta-squared-overflows"])
    def test_overflowing_coefficient_keeps_q0_zero(self, flags):
        # sigma0^2 (2-alpha)^2 or beta^2 overflows to inf, and inf * phi's
        # zero at t = 0 must not make Q(0) NaN.  A subprocess, so that numpy
        # warnings would reach its stderr.
        root = Path(__file__).resolve().parents[1]
        proc = subprocess.run(
            [sys.executable, "-m", "mfcev", "curve", "--alpha=0", *flags,
             "--rate=0.05", "--tmax=1", "--points=3"],
            capture_output=True, text=True,
            env={"PYTHONPATH": str(root / "src"), "PATH": "/usr/bin:/bin"})
        assert proc.returncode == 0
        assert proc.stdout.split("\n")[1] == "0,0"
        assert "nan" not in proc.stdout
        assert proc.stderr == ""

    @pytest.mark.parametrize("alpha,sigma0,beta,hurst,rate,tmax,points", [
        (0.0, 1e300, 0.0, None, 1e308, 1.0, 3),
        (-1000.0, 1e152, 0.0, None, 0.05, 1.0, 2),
        (-4.39472047117617, 1.6903972019644846e+123, 1.2974135131638122e+146,
         0.7722281236936771, 0.0, 2.767911905172026e-287, 3),
        (0.0, 1e150, 1e160, 0.8, 0.0, 1e-250, 2),
    ], ids=["phi-nan", "phi-inf-small-s", "t-power-underflows", "beta-squared-overflows"])
    def test_factor_out_of_double_range_prints_mpmath_q(self, alpha, sigma0, beta, hurst, rate, tmax,
                                           points):
        # a factor of phi leaves the double range while ln phi does not: k and
        # lambda overflow, phi is near DBL_MAX at s = 1/1002, t^(2H) underflows,
        # or beta^2 overflows.  Every Q printed is mpmath's, with no warning.
        model = f"--beta={beta!r}" if hurst is None else f"--series={beta!r}:{hurst!r}"
        proc = run_module("curve", f"--alpha={alpha!r}", f"--sigma0={sigma0!r}", model,
                          f"--rate={rate!r}", f"--tmax={tmax!r}", f"--points={points}")
        assert proc.returncode == 0 and proc.stderr == ""
        expected = [_fmt_prob(default_probability_mpmath(t, rate, sigma0, alpha, beta, hurst),
                              None) for t in np.linspace(0.0, tmax, points)]
        assert [line.split(",")[1] for line in proc.stdout.splitlines()[1:]] == expected

    def test_overflowing_rate_prints_zeros(self):
        # lambda = (2-alpha) r overflows; phi -> 0 and Q = 0 at every t
        proc = run_module("curve", "--alpha=0", "--sigma0=0.2", "--beta=0", "--rate=1e308",
                          "--tmax=1", "--points=3")
        assert proc.returncode == 0 and proc.stderr == ""
        assert proc.stdout == "t,q\n0,0\n0.5,0\n1,0\n"

    def test_zero_rate_power_overflow_prints_ones(self):
        # at r = 0 the fractional term t^(2H) overflows; phi = inf and Q = 1,
        # with no numpy overflow warning on stderr
        proc = run_module("curve", "--alpha=0", "--sigma0=0.2", "--rate=0", "--beta=1",
                          "--hurst=0.8", "--tmax=1e300", "--points=3")
        assert proc.returncode == 0 and proc.stderr == ""
        assert proc.stdout == "t,q\n0,0\n5e+299,1\n1e+300,1\n"

    @pytest.mark.parametrize("alpha",["-1e100", "-1e150", "-1e155", "-1000.5"])
    def test_alpha_below_minus_1000_exits_2(self, capsys, alpha):
        # Q's accuracy is stated down to alpha = -1000; far below it Q came
        # out wrong (a negative probability at -1e150)
        code, out, err = run_cli(capsys, "curve", f"--alpha={alpha}", "--sigma0=0.2",
                                 "--beta=0", "--rate=0.05", "--tmax=1", "--points=3")
        assert code == 2 and out == ""
        assert "'alpha'" in err


class TestValidateCommand:
    VALIDATE_FLAGS = ["--alpha", "0", "--beta", "0", "--hurst", "0.8",
                      "--sigma0", "0.2", "--rate", "0.05", "--maturity", "5",
                      "--paths", "20000", "--steps", "500", "--seed", "4242"]

    def test_passing_report(self, capsys):
        code, out, _ = run_cli(capsys, "validate", *self.VALIDATE_FLAGS)
        assert code == 0
        fields = dict(line.split(" ", 1) for line in out.strip().split("\n"))
        assert abs(float(fields["z_score"])) <= 4.0
        assert fields["result"].startswith("PASS")
        assert float(fields["mc_q_std_error"]) > 0.0
        assert float(fields["analytic_spread_bps"]) > 0.0

    def test_report_is_deterministic(self, capsys):
        _, first, _ = run_cli(capsys, "validate", *self.VALIDATE_FLAGS)
        _, second, _ = run_cli(capsys, "validate", *self.VALIDATE_FLAGS)
        assert first == second

    GOLDEN_FLAGS = ["--alpha=-2", "--beta=0.5", "--hurst=0.8", "--sigma0=0.2",
                    "--rate=0.05", "--maturity=2", "--paths=20000", "--steps=200",
                    "--seed=4242"]

    def test_matches_golden_report(self, capsys):
        code, out, _ = run_cli(capsys, "validate", *self.GOLDEN_FLAGS)
        assert code == 1
        assert out.encode() == (DATA / "validate.txt").read_bytes()

    def test_report_matches_separate_estimators(self, capsys):
        # one shared simulation must print what two separate runs estimate
        _, out, _ = run_cli(capsys, "validate", *self.GOLDEN_FLAGS)
        fields = dict(line.split(" ", 1) for line in out.strip().split("\n"))
        params = ModelParams(r=0.05, sigma0=0.2, alpha=-2.0, beta=0.5, hurst=0.8)
        contract = CdsContract(maturity=2.0, recovery=0.5)
        cfg = McConfig(n_paths=20000, n_steps=200, horizon=2.0, seed=4242)
        q = mc_default_probability(params, cfg)
        spread = mc_cds_spread(params, contract, cfg)
        assert fields["mc_q"] == _fmt_prob(q.estimate, None)
        assert fields["mc_q_std_error"] == _fmt_prob(q.std_error, None)
        assert fields["mc_spread_bps"] == _fmt_bps(spread.estimate, None)
        assert fields["mc_spread_std_error_bps"] == _fmt_bps(spread.std_error, None)

    def test_extreme_alpha_prices(self, capsys):
        # the Monte-Carlo state runs with s0 = 1, so s0^(2-alpha) = 50^502 is never formed
        flags = ["--alpha=-500"] + self.VALIDATE_FLAGS[2:-6] + ["--paths", "5000",
                                                               "--steps", "100", "--seed", "1"]
        code, out, err = run_cli(capsys, "validate", *flags)
        assert code in (0, 1)
        fields = dict(line.split(" ", 1) for line in out.strip().split("\n"))
        assert fields.pop("result").startswith(("PASS", "FAIL"))
        assert len(fields) == 7
        assert all(math.isfinite(float(value)) for value in fields.values())
        assert "Traceback" not in err

    def test_state_overflow_exits_3(self, capsys):
        # beta = 1.3e122 makes the first drift increment about 6e247, and A dt = 43
        # multiplies the state by 44 a step, so it overflows on the step to t = 3.8;
        # a state at inf, or NaN, would read as a survivor and score mc_q = 0
        code, out, err = run_cli(
            capsys, "validate", "--alpha=-1000.0", "--beta=1.3315647761934871e+122",
            "--hurst=0.9973180809828153", "--sigma0=0.8099451687278921",
            "--rate=0.4318540785294554", "--maturity=4.525860366413656", "--freq=1",
            "--paths=200", "--steps=50", "--seed=3")
        assert code == 3 and out == ""
        assert err == ("error: numerical failure: Monte-Carlo state overflowed on the Euler "
                       "step to t = 3.8000000000000003: overflow encountered in multiply\n")

    def test_no_defaults_scores_against_null_std_error(self, capsys):
        # 100 paths see no default against an expected 0.94: the binomial
        # standard error is 0, so z uses sqrt(Q (1-Q) / n) under the null
        flags = ["--alpha=-500", "--beta=0", "--hurst=0.8", "--sigma0=0.2", "--rate=0.05",
                 "--maturity=5", "--paths=100", "--steps=10", "--seed=1"]
        code, out, _ = run_cli(capsys, "validate", *flags)
        fields = dict(line.split(" ", 1) for line in out.strip().split("\n"))
        assert (fields["mc_q"], fields["mc_q_std_error"]) == ("0", "0")
        q = float(fields["analytic_q"])
        assert fields["z_score"] == f"{-q / math.sqrt(q * (1.0 - q) / 100):.2f}" == "-0.97"
        assert code == 0 and fields["result"].startswith("PASS")

    @pytest.mark.parametrize("paths", ["20", "40"])
    def test_spread_error_needs_no_surviving_batch(self, capsys, paths):
        # some paths reach the first premium date, so the spread and its
        # standard error are defined, though runs of consecutive paths all
        # default before it
        flags = ["--alpha=0", "--beta=1", "--hurst=0.9", "--sigma0=0.8", "--rate=0.05",
                 "--maturity=2", f"--paths={paths}", "--steps=100", "--seed=7"]
        code, out, _ = run_cli(capsys, "validate", *flags)
        assert code in (0, 1)
        fields = dict(line.split(" ", 1) for line in out.strip().split("\n"))
        assert fields.pop("result").startswith(("PASS", "FAIL"))
        assert len(fields) == 7
        std_error = float(fields["mc_spread_std_error_bps"])
        assert math.isfinite(std_error) and std_error > 0.0

    def test_simulates_to_the_last_premium_date(self, capsys):
        # maturity 1.25 pays semi-annually up to 1.5: both Q values are read
        # at 1.5, and the spread is estimated from paths run to 1.5
        flags = ["--alpha=0", "--beta=1", "--hurst=0.9", "--sigma0=0.8", "--rate=0.05",
                 "--maturity=1.25", "--freq=2", "--paths=2000", "--steps=60", "--seed=7"]
        _, out, _ = run_cli(capsys, "validate", *flags)
        fields = dict(line.split(" ", 1) for line in out.strip().split("\n"))
        params = ModelParams(r=0.05, sigma0=0.8, alpha=0.0, beta=1.0, hurst=0.9)
        contract = CdsContract(maturity=1.25, recovery=0.5)
        default_time = simulate_fpt(params, McConfig(n_paths=2000, n_steps=60, horizon=1.5,
                                                     seed=7))
        spread = spread_estimate(default_time, params, contract)
        assert fields["mc_spread_bps"] == _fmt_bps(spread.estimate, None)
        assert fields["mc_q"] == _fmt_prob(default_probability_estimate(default_time).estimate,
                                           None)
        assert fields["analytic_q"] == _fmt_prob(default_probability(1.5, params), None)

    def test_z_score_prints_on_the_side_of_its_verdict(self, capsys):
        # z = -4.02501 reads -4.0 at one decimal, inside the limit beside a FAIL
        flags = ["--alpha=0.0", "--beta=1.0", "--hurst=0.9", "--sigma0=0.8", "--rate=0.05",
                 "--maturity=2.0", "--paths=2000", "--steps=20", "--seed=375", "--precision=1"]
        code, out, _ = run_cli(capsys, "validate", *flags)
        fields = dict(line.split(" ", 1) for line in out.strip().split("\n"))
        assert code == 1 and fields["result"].startswith("FAIL")
        assert fields["z_score"] == "-4.03"

    def test_zero_paths_exits_2(self, capsys):
        flags = self.VALIDATE_FLAGS[:-6] + ["--paths", "0", "--steps", "10",
                                            "--seed", "1"]
        code, _, err = run_cli(capsys, "validate", *flags)
        assert code == 2 and "n_paths" in err


class TestScenarioFile:
    def test_scenario_supplies_defaults_and_flags_win(self, capsys, tmp_path):
        scenario = tmp_path / "base.scn"
        scenario.write_text(
            "# benchmark point\n"
            "alpha = -2\n"
            "beta = 1\n"
            "hurst = 0.9\n"
            "sigma0 = 0.2\n"
            "rate = 0.05\n"
            "recovery = 0.5\n"
            "maturity = 1\n")
        code, out, _ = run_cli(capsys, "spread", "--scenario", str(scenario))
        assert code == 0 and out == "121.0740\n"
        # explicit flag overrides the file
        code, out, _ = run_cli(capsys, "spread", "--scenario", str(scenario),
                               "--recovery", "1")
        assert code == 0 and out == "0.0000\n"

    def test_unknown_key_rejected(self, capsys, tmp_path):
        scenario = tmp_path / "bad.scn"
        scenario.write_text("alfa = 1\n")
        code, _, err = run_cli(capsys, "spread", "--scenario", str(scenario))
        assert code == 2 and "alfa" in err

    def test_bad_value_rejected(self, capsys, tmp_path):
        scenario = tmp_path / "bad.scn"
        scenario.write_text("alpha = fast\n")
        code, _, err = run_cli(capsys, "spread", "--scenario", str(scenario))
        assert code == 2

    def test_missing_file_rejected(self, capsys):
        code, _, err = run_cli(capsys, "spread", "--scenario", "/nonexistent.scn")
        assert code == 2

    def test_constraints_enforced_from_scenario(self, capsys, tmp_path):
        scenario = tmp_path / "bad.scn"
        scenario.write_text("alpha = 3\nbeta = 0\nhurst = 0.8\nsigma0 = 0.2\n"
                            "rate = 0.05\nrecovery = 0.5\nmaturity = 1\n")
        code, _, err = run_cli(capsys, "spread", "--scenario", str(scenario))
        assert code == 2 and "alpha" in err

    def test_non_utf8_file_is_named(self, tmp_path):
        # a subprocess, so that a traceback would reach its stderr
        scenario = tmp_path / "utf16.scn"
        scenario.write_bytes(b"\xff\xfealpha = 1\n")
        proc = run_module("spread", "--scenario", str(scenario))
        assert proc.returncode == 2 and proc.stdout == ""
        assert proc.stderr.startswith("error: ") and proc.stderr.count("\n") == 1
        assert str(scenario) in proc.stderr

    def test_byte_order_mark_is_skipped(self, capsys, tmp_path):
        text = ("alpha = -2\nbeta = 1\nhurst = 0.9\nsigma0 = 0.2\nrate = 0.05\n"
                "recovery = 0.5\nmaturity = 1\n")
        plain, marked = tmp_path / "plain.scn", tmp_path / "marked.scn"
        plain.write_text(text, encoding="utf-8")
        marked.write_text(text, encoding="utf-8-sig")
        runs = [run_cli(capsys, "spread", "--scenario", str(path)) for path in (plain, marked)]
        assert marked.read_bytes().startswith(b"\xef\xbb\xbf")
        assert runs[0] == runs[1] == (0, "121.0740\n", "")


@pytest.mark.parametrize("argv,constraint", [
    (["curve", "--alpha=-inf", "--sigma0=0.2", "--rate=0.05", "--tmax=1", "--points=3",
      "--beta=0"], "alpha"),
    (["curve", "--alpha=0", "--sigma0=0.2", "--rate=0.05", "--tmax=1", "--points=3",
      "--beta=inf", "--hurst=0.8"], "beta"),
    (["curve", "--alpha=0", "--sigma0=0.2", "--rate=0.05", "--tmax=inf", "--points=3",
      "--beta=0"], "t_max"),
    (["spread", *SPREAD_FLAGS[:-2], "--maturity=inf"], "maturity"),
    (["validate", *TestValidateCommand.VALIDATE_FLAGS[:-6], "--paths=10", "--steps=10",
      "--seed=1", "--sigma0=nan"], "sigma0"),
])
def test_non_finite_parameters_exit_2(capsys, argv, constraint):
    code, out, err = run_cli(capsys, *argv)
    assert code == 2 and out == ""
    assert f"'{constraint}'" in err


SPREAD_RUN = ["spread", "--alpha=0", "--hurst=0.8", "--maturity=1", "--recovery=0.5"]
VALIDATE_RUN = ["validate", "--alpha=0", "--hurst=0.8", "--maturity=1",
                "--paths=100", "--steps=10", "--seed=1"]


@pytest.mark.parametrize("argv", [
    [*SPREAD_RUN, "--sigma0=1e300", "--beta=0", "--rate=0.05"],
    [*SPREAD_RUN, "--sigma0=0.2", "--beta=1e300", "--rate=0.05"],
    [*VALIDATE_RUN, "--sigma0=1e300", "--beta=0", "--rate=0.05"],
    [*VALIDATE_RUN, "--sigma0=0.2", "--beta=1e300", "--rate=0.05"],
    [*VALIDATE_RUN, "--sigma0=0.2", "--beta=0", "--rate=1e308"],
    ["spread", "--alpha=0", "--beta=0", "--hurst=0.8", "--sigma0=0.2",
     "--rate=2.7605646406224805e+307", "--maturity=8.86", "--recovery=0.5"],
    ["spread", "--alpha=-2", "--beta=0", "--hurst=0.8", "--sigma0=3.7342039645743225e+189",
     "--rate=0", "--maturity=1.5736804744615324e-254", "--recovery=0.8419417068871948"],
], ids=["spread-k", "spread-beta", "validate-k", "validate-beta", "validate-rate",
        "spread-rate", "spread-k-tiny-maturity"])
def test_out_of_range_inputs_write_one_error_line(argv):
    # Q = 1 from the first payment date, so the annuity is 0; no numpy
    # warning (r t overflowing, 0 * inf in the density leg), and no
    # OverflowError from the Monte-Carlo step, comes first
    proc = run_module(*argv)
    assert proc.returncode == 3 and proc.stdout == ""
    assert proc.stderr == ("error: numerical failure: premium annuity underflowed to zero "
                           "(certain default before the first payment date); the running "
                           "spread is undefined\n")


def cap_address_space():
    """Cap the child's address space at 2 GB, so an oversized allocation
    fails at once instead of filling the machine's memory."""
    resource.setrlimit(resource.RLIMIT_AS, (2 * 10 ** 9, 2 * 10 ** 9))


#: per command, every flag it requires, with a value that runs; curve also
#: needs --beta when it has no --series
REQUIRED_FLAGS = {
    "spread": dict(alpha="-2", beta="1", hurst="0.9", sigma0="0.2", rate="0.05",
                   recovery="0.5", maturity="1"),
    "table1": {},
    "curve": dict(alpha="0", sigma0="0.2", rate="0.05", tmax="1", points="3"),
    "validate": dict(alpha="0", beta="0", hurst="0.8", sigma0="0.2", rate="0.05",
                     maturity="1", paths="100", steps="10", seed="1"),
}
EXTRA_FLAGS = {"curve": ["--beta=0"]}


def required_run(command, leave_out=None):
    return [command, *(f"--{name}={value}" for name, value in REQUIRED_FLAGS[command].items()
                       if name != leave_out), *EXTRA_FLAGS.get(command, [])]


MODEL_RUN = ["--alpha=-2", "--beta=0.5", "--hurst=0.8", "--sigma0=0.2", "--rate=0.05"]


CURVE_RUN = ["curve", "--alpha=0", "--sigma0=0.2", "--rate=0.05", "--tmax=1"]


# scenario, when given, is the text of a scenario file for the command: one
# argv argument holds at most 128 KB, too little for the table-cells input
@pytest.mark.parametrize("argv,scenario,constraint", [
    (["spread", *MODEL_RUN, "--recovery=0.5", "--maturity=10", "--freq=1000000000000"], None,
     "payments_per_year"),
    (["curve", *MODEL_RUN, "--tmax=1", "--points=1000000000000"], None, "n_points"),
    (["validate", *MODEL_RUN, "--maturity=2", "--paths=1000000000", "--steps=2", "--seed=1"],
     None, "n_paths"),
    (["validate", *MODEL_RUN, "--maturity=2", "--paths=1", "--steps=2000000000", "--seed=1"],
     None, "n_steps"),
    *(([*required_run(command), "--precision=2000000000"], None, "precision")
      for command in REQUIRED_FLAGS),
    (["table1"], "maturities = " + ",".join(["1"] * 10 ** 6), "maturities"),
    ([*CURVE_RUN, "--points=1000000"], "series = " + ",".join(["0.5:0.8"] * 60), "series"),
    # with its line end, one character over the cap
    (["table1"], "#" * cli.MAX_SCENARIO_CHARS, "scenario"),
    (["table1", "--scenario", "/dev/zero"], None, "scenario"),
    ([*CURVE_RUN, "--points=2"], "series = " + ",".join(["0"] * 10 ** 6), "series"),
], ids=["premium-dates", "curve-points", "paths", "steps",
        *(f"precision-{command}" for command in REQUIRED_FLAGS),
        "table-cells", "curve-values", "scenario-size", "scenario-device", "curve-series"])
def test_oversized_inputs_exit_2(tmp_path, argv, scenario, constraint):
    # each asked numpy or a list for gigabytes to terabytes before its cap, or
    # read /dev/zero without end; a precision of 2e9 asked the formatter for a
    # 2 GB string
    if scenario is not None:
        (tmp_path / "big.scn").write_text(scenario + "\n")
        argv = [*argv, "--scenario", str(tmp_path / "big.scn")]
    proc = run_module(*argv, preexec_fn=cap_address_space)
    assert proc.returncode == 2 and proc.stdout == ""
    assert proc.stderr.startswith(f"error: invalid parameter '{constraint}': ")
    assert proc.stderr.count("\n") == 1


def test_curve_value_cap_counts_every_series(capsys, monkeypatch):
    monkeypatch.setattr(cds, "MAX_CURVE_VALUES", 6)
    code, out, err = run_cli(capsys, *CURVE_RUN, "--points=3", "--series=0", "--series=0.5:0.8")
    assert code == 0 and len(out.splitlines()) == 4 and err == ""
    code, out, err = run_cli(capsys, *CURVE_RUN, "--points=3", "--series=0", "--series=0.5:0.8",
                             "--series=1:0.8")
    assert code == 2 and out == ""
    assert err == ("error: invalid parameter 'series': 3 series x 3 points exceed "
                   "the cap of 6 Q values\n")


def log_uniform_int(top):
    """Integers from 1 to top, log-uniform."""
    return st.floats(min_value=0.0, max_value=math.log10(top)).map(lambda e: round(10.0 ** e))


#: the series a size example cycles through: a classical row and two fractional ones
SIZE_SERIES = ["0", "0.5:0.8", "1:0.9"]


def run_curve_sizes(tmp_dir, points, n_series):
    """``mfcev curve`` with these sizes, under the 2 GB address-space cap, ends
    in exit 0 or in exit 2 with one error line, and never in a traceback."""
    scenario, output = tmp_dir / "sizes.scn", tmp_dir / "curve.csv"
    scenario.write_text("series = " + ",".join(SIZE_SERIES[i % len(SIZE_SERIES)]
                                               for i in range(n_series)) + "\n")
    proc = run_module(*CURVE_RUN, f"--points={points}", "--scenario", str(scenario),
                      "--output", str(output), preexec_fn=cap_address_space)
    assert proc.returncode in (0, 2), proc.stderr
    assert proc.stderr.count("error:") <= 1 and "Traceback" not in proc.stderr, proc.stderr
    output.unlink(missing_ok=True)


@settings(max_examples=4, deadline=None, derandomize=True)
@given(points=log_uniform_int(1000), n_series=log_uniform_int(30))
def test_small_curve_sizes_end_cleanly(tmp_path_factory, points, n_series):
    run_curve_sizes(tmp_path_factory.mktemp("sizes"), points, n_series)


@pytest.mark.slow
@settings(max_examples=30, deadline=None, derandomize=True)
@given(points=log_uniform_int(10 * cds.MAX_CURVE_POINTS),
       n_series=log_uniform_int(10 * cli.MAX_CURVE_SERIES))
# the corners: each size at 10x its cap, and the most values the caps let through
@example(points=10 * cds.MAX_CURVE_POINTS, n_series=1)
@example(points=2, n_series=10 * cli.MAX_CURVE_SERIES)
@example(points=cds.MAX_CURVE_POINTS, n_series=cds.MAX_CURVE_VALUES // cds.MAX_CURVE_POINTS)
@example(points=cds.MAX_CURVE_VALUES // cli.MAX_CURVE_SERIES, n_series=cli.MAX_CURVE_SERIES)
def test_curve_sizes_end_cleanly(tmp_path_factory, points, n_series):
    run_curve_sizes(tmp_path_factory.mktemp("sizes"), points, n_series)


@pytest.mark.parametrize("command", REQUIRED_FLAGS)
def test_required_flags_suffice(capsys, command):
    code, out, err = run_cli(capsys, *required_run(command))
    assert code in (0, 1) and out and err == ""


@pytest.mark.parametrize("command,flag", [(command, flag) for command, flags
                                          in REQUIRED_FLAGS.items() for flag in flags])
def test_each_missing_required_flag_exits_2(capsys, command, flag):
    code, out, err = run_cli(capsys, *required_run(command, leave_out=flag))
    assert code == 2 and out == ""
    assert err == f"error: invalid parameter '{flag}': missing required parameter --{flag}\n"


def test_curve_needs_beta_without_series(capsys):
    code, out, err = run_cli(capsys, *(arg for arg in required_run("curve") if arg != "--beta=0"))
    assert code == 2 and out == ""
    assert err == "error: invalid parameter 'beta': missing required parameter --beta\n"


@pytest.mark.parametrize("command", REQUIRED_FLAGS)
def test_initial_price_is_not_a_setting(capsys, tmp_path, command):
    # no output depends on s0, so neither a flag nor a scenario line sets it
    with pytest.raises(SystemExit) as exc:
        main([*required_run(command), "--s0=50"])
    assert exc.value.code == 2
    scenario = tmp_path / "s0.scn"
    scenario.write_text("s0 = 50\n")
    code, out, err = run_cli(capsys, *required_run(command), f"--scenario={scenario}")
    assert code == 2 and out == ""
    assert "unknown key 's0'" in err


@pytest.mark.parametrize("argv", [["table1", "--maturities=1"],
                                  ["curve", *required_run("curve")[1:]]],
                         ids=["table1", "curve"])
@pytest.mark.parametrize("where", ["missing-directory", "onto-directory"])
def test_unwritable_output_exits_2(tmp_path, argv, where):
    # a subprocess, so that a traceback would reach its stderr
    target = tmp_path / "missing" / "out.csv" if where == "missing-directory" else tmp_path
    proc = run_module(*argv, f"--output={target}")
    assert proc.returncode == 2 and proc.stdout == ""
    assert proc.stderr.startswith("error: ") and proc.stderr.count("\n") == 1
    assert str(target) in proc.stderr


def test_module_entry_point():
    root = Path(__file__).resolve().parents[1]
    proc = subprocess.run(
        [sys.executable, "-m", "mfcev", "spread", *SPREAD_FLAGS],
        capture_output=True, text=True,
        env={"PYTHONPATH": str(root / "src"), "PATH": "/usr/bin:/bin"})
    assert proc.returncode == 0
    assert proc.stdout == "121.0740\n"


@pytest.mark.parametrize("argv", [
    ["spread", "--alpha=0", "--beta=0", "--hurst=0.8", "--sigma0=0.2", "--rate=0.05",
     "--recovery=0.5", "--maturity=4e-13"],
    ["validate", "--alpha=0", "--beta=0", "--hurst=0.8", "--sigma0=0.2", "--rate=0.05",
     "--maturity=1e-300", "--paths=1000", "--steps=10", "--seed=1"],
], ids=["spread", "validate"])
def test_contract_within_the_date_slack_prices(capsys, argv):
    # T * freq <= 1e-12 once left the schedule empty, so the annuity was 0;
    # the contract pays at its first date, and Q(T) = 0 makes the spread 0
    code, out, err = run_cli(capsys, *argv)
    assert code == 0 and err == ""
    if argv[0] == "spread":
        assert out == "0.0000\n"
    else:
        assert "analytic_spread_bps 0.0000\n" in out and "mc_spread_bps 0.0000\n" in out


#: command lines that end in argparse: help, usage or an error
PARSER_EXITS = {
    "help": ["--help"],
    **{f"{command}-help": [command, "--help"] for command in REQUIRED_FLAGS},
    "no-arguments": [],
    "unknown-command": ["frobnicate", "--alpha=0"],
    **{f"{command}-unknown-flag": [*required_run(command), "--frobnicate=1"]
       for command in REQUIRED_FLAGS},
    "bad-points": [*required_run("curve"), "--points=x"],
}


def parser_exit(capsys, parse, argv):
    with pytest.raises(SystemExit) as exc:
        parse(argv)
    captured = capsys.readouterr()
    return exc.value.code, captured.out, captured.err


@pytest.mark.parametrize("argv", PARSER_EXITS.values(), ids=PARSER_EXITS)
def test_parser_exits_match_the_parser_of_every_flag(capsys, argv):
    # main builds the flags of the command it runs only; what argparse
    # prints, and its exit code, are those of the parser with every flag
    expected = parser_exit(capsys, build_parser().parse_args, argv)
    assert parser_exit(capsys, main, argv) == expected
    assert expected[1] or expected[2]


def test_main_adds_the_flags_of_its_command_only(capsys, monkeypatch):
    add_flags, added = cli._add_flags, []

    def recording(sub, names):
        added.append(sub.prog)
        add_flags(sub, names)

    monkeypatch.setattr(cli, "_add_flags", recording)
    argv = required_run("curve")
    code, out, err = run_cli(capsys, *argv)
    assert code == 0 and out and err == ""
    # without arguments main reads sys.argv, as argparse does
    monkeypatch.setattr(sys, "argv", ["mfcev", *argv])
    assert main() == 0 and capsys.readouterr().out == out
    assert added == ["mfcev curve"] * 2
    build_parser()
    assert added[2:] == [f"mfcev {command}" for command in REQUIRED_FLAGS]


@given(st.floats(allow_nan=False), st.one_of(st.none(), st.integers(0, 20)))
def test_printed_z_keeps_its_verdict(z, precision):
    text = _fmt_z(z, precision)
    assert (abs(float(text)) <= 4.0) == (abs(z) <= 4.0)
    # more decimals than asked for only where one fewer reads the other verdict
    digits = 2 if precision is None else precision
    decimals = len(text.partition(".")[2])
    if decimals > digits:
        assert (abs(float(f"{z:.{decimals - 1}f}")) <= 4.0) != (abs(z) <= 4.0)
    else:
        assert text == f"{z:.{digits}f}"
