"""Pricing engine for default probabilities and CDS spreads under the
mixed-fractional CEV model, with a Monte-Carlo validation oracle."""

from .cds import (CdsContract, SpreadCell, cds_spread, default_curve,
                  premium_annuity, protection_leg, spread_table)
from .core import ModelParams, default_probability, fpt_density, phi_closed
from .errors import NumericalError, ParameterError, QuadratureError
from .mc import (McConfig, McResult, default_probability_estimate,
                 mc_cds_spread, mc_default_probability, simulate_fpt,
                 spread_estimate)

__version__ = "0.1.0"

__all__ = [
    "CdsContract", "SpreadCell", "ModelParams", "McConfig", "McResult",
    "cds_spread", "default_curve", "default_probability",
    "default_probability_estimate", "fpt_density",
    "mc_cds_spread", "mc_default_probability", "phi_closed",
    "premium_annuity", "protection_leg", "simulate_fpt",
    "spread_estimate", "spread_table",
    "NumericalError", "ParameterError", "QuadratureError",
]
