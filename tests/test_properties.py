"""Property tests over the whole parameter domain that validate() accepts.

Every accepted input must either price, or fail with a documented error and
exit code; Q is checked against a scipy oracle in units with s0 = 1.
"""

import contextlib
import io

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mfcev.cli import main
from mfcev.core import ModelParams, default_probability

from reference import default_probability_reference

DOMAIN = dict(
    alpha=st.floats(min_value=-1000.0, max_value=2.0, exclude_max=True),
    hurst=st.floats(min_value=0.75, max_value=1.0, exclude_min=True, exclude_max=True),
    beta=st.floats(min_value=0.0, max_value=50.0),
    r=st.floats(min_value=0.0, max_value=5.0),
    maturity=st.floats(min_value=1e-3, max_value=100.0),
    sigma0=st.floats(min_value=0.05, max_value=1.0),
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
