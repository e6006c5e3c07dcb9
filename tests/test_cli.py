import math
import subprocess
import sys
from pathlib import Path

import pytest

from mfcev.cds import CdsContract, cds_spread
from mfcev.cli import _fmt_bps, _fmt_prob, main
from mfcev.core import ModelParams
from mfcev.mc import McConfig, mc_cds_spread, mc_default_probability

DATA = Path(__file__).resolve().parent / "data"
ROOT = Path(__file__).resolve().parents[1]


def run_module(*argv):
    """Run ``python -m mfcev`` in a fresh interpreter, so that any numpy
    warning reaches its stderr."""
    return subprocess.run([sys.executable, "-m", "mfcev", *argv], capture_output=True, text=True,
                          env={"PYTHONPATH": str(ROOT / "src"), "PATH": "/usr/bin:/bin"})

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

    @pytest.mark.parametrize("flags", [
        ["--alpha=0", "--sigma0=1e300", "--rate=1e308", "--points=3"],
        ["--alpha=-1000", "--sigma0=1e152", "--rate=0.05", "--points=2"],
    ], ids=["phi-nan", "phi-inf-small-s"])
    def test_q_out_of_double_range_exits_3(self, flags):
        # phi = inf * 0 = NaN; or phi = inf at s = 1/1002, where Q = 1 would
        # be wrong (mpmath gives 0.50698)
        proc = run_module("curve", *flags, "--beta=0", "--tmax=1")
        assert proc.returncode == 3 and proc.stdout == ""
        assert proc.stderr.count("\n") == 1
        assert proc.stderr.startswith("error: numerical failure: default probability")

    def test_overflowing_rate_prints_zeros(self):
        # lambda = (2-alpha) r overflows; phi -> 0 and Q = 0 at every t
        proc = run_module("curve", "--alpha=0", "--sigma0=0.2", "--beta=0", "--rate=1e308",
                          "--tmax=1", "--points=3")
        assert proc.returncode == 0 and proc.stderr == ""
        assert proc.stdout == "t,q\n0,0\n0.5,0\n1,0\n"

    @pytest.mark.parametrize("alpha", ["-1e100", "-1e150", "-1e155", "-1000.5"])
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
], ids=["spread-k", "spread-beta", "validate-k", "validate-beta", "validate-rate"])
def test_out_of_range_inputs_write_one_error_line(argv):
    # Q = 1 from the first payment date, so the annuity is 0; no numpy
    # warning, and no OverflowError from the Monte-Carlo step, comes first
    proc = run_module(*argv)
    assert proc.returncode == 3 and proc.stdout == ""
    assert proc.stderr == ("error: numerical failure: premium annuity underflowed to zero "
                           "(certain default before the first payment date); the running "
                           "spread is undefined\n")


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
