"""Exception types shared across the package."""


class ParameterError(ValueError):
    """An input violates a model/contract/config constraint.

    ``constraint`` names the offending field so callers (and the CLI) can
    report exactly which invariant was broken.
    """

    def __init__(self, constraint: str, message: str):
        super().__init__(message)
        self.constraint = constraint


class NumericalError(ArithmeticError):
    """A numerical routine failed to deliver its accuracy contract."""


class QuadratureError(NumericalError):
    """Adaptive quadrature could not meet the requested tolerance."""

    def __init__(self, message: str, estimate: float, error_bound: float):
        super().__init__(message)
        self.estimate = estimate
        self.error_bound = error_bound
