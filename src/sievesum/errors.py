"""Shared exception types and the one tolerance rule."""

import math


class RangeError(ValueError):
    """A parameter is outside the domain an operation supports."""


class ToleranceError(ArithmeticError):
    """A requested tolerance could not be certified.

    Carries the best rigorous bound that was achieved so callers can
    retry with a looser target or report the shortfall.
    """

    def __init__(self, message, achieved=None):
        super().__init__(message)
        self.achieved = achieved


def check_tol(tol):
    """Raise RangeError unless tol is a positive finite number."""
    if not (0.0 < tol < math.inf):
        raise RangeError(f"tol must be a positive finite number, got {tol}")
