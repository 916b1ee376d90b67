"""Exception types shared across the package, and the finite-value check."""

import math


class SlowlightError(Exception):
    """Base class for all errors raised by this package."""


class ValidationError(SlowlightError, ValueError):
    """Invalid parameter, malformed input data, or broken invariant."""


class NumericError(SlowlightError, ArithmeticError):
    """A numeric guard fired (e.g. a pulse truncated by its window)."""


def require_finite(obj, *fields: str) -> None:
    """Raise ValidationError naming the first of obj's fields that is not finite."""
    for name in fields:
        value = getattr(obj, name)
        if not math.isfinite(value):
            raise ValidationError(f"{name} must be finite, got {value}")
