"""Shared exception types and the one integer and tolerance rules: every
integer a caller passes goes through check_int, every tolerance through
check_tol, and nothing is truncated."""

import math
import numbers


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


def check_int(name, value, low=None):
    """value as an int.  Ints, numpy integers and integer-valued floats
    pass; anything else (2.5, NaN, None, a string), or a value below low,
    raises RangeError naming the parameter."""
    whole = type(value) is int or isinstance(value, numbers.Integral) or (
        isinstance(value, numbers.Real) and math.isfinite(value) and value == int(value)
    )
    if not whole or (low is not None and value < low):
        rule = "an integer" if low is None else f"an integer >= {low}"
        raise RangeError(f"{name} must be {rule}, got {value!r}")
    return int(value)


def check_tol(tol):
    """Raise RangeError unless tol is a positive finite number."""
    if not (0.0 < tol < math.inf):
        raise RangeError(f"tol must be a positive finite number, got {tol}")


def check_bound(what, bound, tol):
    """Raise ToleranceError, carrying bound, unless the certified bound on
    what is at most tol."""
    if not bound <= tol:
        raise ToleranceError(f"{what}: tolerance {tol} is below the certified bound "
                             f"(achieved about {bound:.3e})", achieved=bound)
