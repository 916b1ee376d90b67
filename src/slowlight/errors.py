"""Exception types shared across the package, the value checks, and the
one energy sum and energy guard.

require_finite and require_within take a number or an array and name its
first bad value, with its index in an array; a range check with finite
bounds is also the value's finite check.  energy_sum is the one sum |x|^2,
and energy_share the one measure of where an array's energy lies: the share
of that sum in given slices, or a NumericError naming an overflowed array.
require_inside applies it to the outer 5% of an array, edge_energy_fraction's
slices; synth guards its pulse with it, propagate its input waveform, both
spectra and its output waveform, and decompose takes it over each sideband.
"""

import math

import numpy as np


class SlowlightError(Exception):
    """Base class for all errors raised by this package."""


class ValidationError(SlowlightError, ValueError):
    """Invalid parameter, malformed input data, or broken invariant."""


class NumericError(SlowlightError, ArithmeticError):
    """A numeric guard fired (e.g. a propagated pulse wrapped around its window)."""


# every time (s), frequency (Hz) and optical depth the model takes lies
# within SCALE of zero, and a positive scale (dt, t0, gamma_eit) at least
# 1/SCALE above it: wide enough for any pulse and medium, narrow enough that
# the squares and products that synth, the transforms and the channel form
# stay normal floats
SCALE = 1e18


def _require(value, ok, what: str, rule: str, *bounds: float):
    """value; ValidationError naming `what` and the first value that ok marks
    False, with its flat index unless value is a number.  A nan or +-inf
    must be finite, any other value must `rule`, formatted with the bounds."""
    # a number passes as the bool True, without numpy's reduction
    if ok is not True and not np.all(ok):
        arr = np.asarray(value)
        i = int(np.argmin(ok))
        bad = arr.flat[i]
        where = f" at index {i}" if arr.ndim else ""
        rule = rule.format(*bounds) if np.isfinite(bad) else "be finite"
        raise ValidationError(f"{what} must {rule}, got {bad}{where}")
    return value


def require_finite(value, what: str):
    """value, a number or an array, checked to be finite throughout."""
    return _require(value, np.isfinite(value), what, "be finite")


def require_within(value, low: float, high: float, what: str):
    """value, a number or an array, checked to lie in [low, high] throughout;
    for finite bounds this is also its finite check."""
    return _require(value, (value >= low) & (value <= high), what, "lie in [{:g}, {:g}]", low, high)


def require_detunings(delta) -> np.ndarray:
    """delta as float64 detunings in Hz, each at most SCALE from zero, beyond
    which its square overflows."""
    return require_within(np.asarray(delta, dtype=np.float64), -SCALE, SCALE, "detuning")


# share of an array's energy tolerated in its outer 5%
EDGE_ENERGY_LIMIT = 1e-6
NYQUIST_EDGE = "bins, at the Nyquist frequency; the grid undersamples the pulse"
WINDOW_EDGE = "window; the pulse is cut off there or wraps around circularly"


def energy_sum(x: np.ndarray) -> float:
    """sum |x|^2 over the array x."""
    return float(np.vdot(x, x).real)


def energy_share(label: str, samples, *parts: slice) -> float:
    """Share of energy_sum in the given slices of the `label` samples; 0 when
    that sum is 0, and overflowed(label) when it is not finite."""
    x = np.asarray(samples)
    total = energy_sum(x)
    if total == 0.0:
        return 0.0
    if not total < math.inf:
        raise overflowed(label)
    return sum(energy_sum(x[p]) for p in parts) / total


def edge_energy_fraction(label: str, samples) -> float:
    """energy_share of the outer 5% of the `label` samples, 2.5% at each end."""
    m = max(1, math.ceil(0.025 * np.size(samples)))
    return energy_share(label, samples, slice(None, m), slice(-m, None))


def overflowed(label: str) -> NumericError:
    """The error for a `label` array whose energy sum is not finite."""
    return NumericError(
        f"the {label} energy sum overflowed float64; the pulse amplitude is too large"
    )


def require_inside(label: str, samples, edge: str) -> None:
    """Raise NumericError naming `label` when the samples hold no energy, when
    their energy overflowed, or when more than EDGE_ENERGY_LIMIT of it lies
    at their edges, which `edge` names."""
    fraction = edge_energy_fraction(label, samples)
    if fraction > EDGE_ENERGY_LIMIT:
        raise NumericError(
            f"{fraction:.2e} of the {label} energy lies in the outer 5% of the {edge}"
        )
    if fraction == 0.0 and energy_sum(samples) == 0.0:
        raise NumericError(f"the {label} holds no energy")
