"""Exception types shared across the package, and the finite-value checks."""

import math

import numpy as np


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


def require_finite_array(arr: np.ndarray, what: str) -> np.ndarray:
    """Return the array arr; raise ValidationError naming `what`, the first
    non-finite value in arr and, unless arr is a scalar, its flat index."""
    finite = np.isfinite(arr)
    if not finite.all():
        i = int(np.argmin(finite))
        where = f" at index {i}" if arr.ndim else ""
        raise ValidationError(f"{what} must be finite, got {arr.flat[i]}{where}")
    return arr
