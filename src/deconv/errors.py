"""Exception types shared across the package, and the one positivity check."""

import math


class DeconvError(Exception):
    """Base class for all package errors."""


class ParameterError(DeconvError, ValueError):
    """Invalid parameter (non-positive epsilon, degree overflow, dt mismatch, ...)."""


class InputError(DeconvError, ValueError):
    """Malformed or non-finite input data."""


class PrecisionError(DeconvError):
    """Quadrature failed to reach the requested tolerance.

    Carries the achieved absolute error estimate in ``achieved_error``.
    Nothing in the package raises it any more (its quadrature is a fixed
    rule with no tolerance); it stays exported for API compatibility.
    """

    def __init__(self, message: str, achieved_error: float):
        super().__init__(message)
        self.achieved_error = achieved_error


class ResolutionError(DeconvError, ValueError):
    """Sample spacing too coarse to resolve a kernel or filter."""


class DivergenceError(DeconvError):
    """Iteration produced a non-finite intermediate.

    Carries the iteration index at which the blow-up was detected.
    """

    def __init__(self, message: str, iteration: int):
        super().__init__(message)
        self.iteration = iteration


def check_positive(name: str, value: float) -> None:
    """Raise ParameterError unless ``value`` is a positive finite real."""
    if not (value > 0 and math.isfinite(value)):
        raise ParameterError(f"{name} must be a positive finite real, got {value}")
