"""Pricing engine for default probabilities and CDS spreads under the
mixed-fractional CEV model, with a Monte-Carlo validation oracle."""

from .cds import (CdsContract, CurvePoint, SpreadCell, cds_spread,
                  default_curve, premium_annuity, protection_leg, spread_table)
from .core import (ModelParams, default_probability, fpt_density, phi_closed,
                   phi_quadrature)
from .errors import (NonConvergenceError, NumericalError, ParameterError,
                     QuadratureError)
from .mc import (McConfig, McResult, default_probability_estimate,
                 mc_cds_spread, mc_default_probability, simulate_fpt,
                 spread_estimate)

__version__ = "0.1.0"

__all__ = [
    "CdsContract", "CurvePoint", "SpreadCell", "ModelParams", "McConfig", "McResult",
    "cds_spread", "default_curve", "default_probability",
    "default_probability_estimate", "fpt_density",
    "mc_cds_spread", "mc_default_probability", "phi_closed",
    "phi_quadrature", "premium_annuity", "protection_leg", "simulate_fpt",
    "spread_estimate", "spread_table",
    "NonConvergenceError", "NumericalError", "ParameterError", "QuadratureError",
]
