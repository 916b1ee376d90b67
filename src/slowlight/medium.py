"""Analytic model of an EIT transparency window as a linear channel.

The medium acts on the field spectrum as

    H(delta) = sqrt(scale) * exp[-delta * z / (delta - i*gamma_eit)]
             = A(delta) * exp(-i * Phi(delta)),

with amplitude A(delta) = sqrt(scale) * exp[-delta^2 z / (delta^2 + gamma^2)]
and phase Phi(delta) = delta * z * gamma / (delta^2 + gamma^2).  Detunings and
gamma_eit are ordinary frequencies in Hz, so the group delay carries a 1/2pi.
The scale factor models the overall (background) intensity transmission level
of a measured window: far-detuned intensity transmission is scale * e^(-2z).

A MeasuredTransmission tabulates a window's intensity transmission instead;
transmission_lookup interpolates it linearly and returns the mean of the two
endpoint transmissions outside the table.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import SCALE, ValidationError, require_finite, require_finite_array, require_within

_TWO_PI = 2.0 * math.pi


@dataclass(frozen=True)
class EitMedium:
    """Calibrated channel parameters.

    gamma_eit : half-linewidth of the transparency window, Hz, in [1/SCALE, SCALE]
    z         : normalized propagation length (optical depth), in [0, SCALE]
    scale     : peak intensity transmission in (0, 1]
    """

    gamma_eit: float
    z: float
    scale: float = 1.0

    def __post_init__(self) -> None:
        require_finite(self, "gamma_eit", "z")
        require_within(self, 1.0 / SCALE, SCALE, "gamma_eit")
        require_within(self, 0.0, SCALE, "z")
        if not 0.0 < self.scale <= 1.0:
            raise ValidationError(f"scale must lie in (0, 1], got {self.scale}")


def _detunings(delta) -> np.ndarray:
    """delta as float64 detunings in Hz; ValidationError naming the first
    non-finite one, or the first beyond SCALE, where its square overflows."""
    d = require_finite_array(np.asarray(delta, dtype=np.float64), "detuning")
    beyond = np.abs(d) > SCALE
    if beyond.any():
        raise ValidationError(f"detuning must lie in [{-SCALE:g}, {SCALE:g}], "
                              f"got {d.flat[int(np.argmax(beyond))]}")
    return d


def amplitude_response(m: EitMedium, delta):
    """Field amplitude ratio A(delta) = |H(delta)|, in (0, 1]."""
    d = _detunings(delta)
    return np.sqrt(m.scale) * np.exp(-d**2 * m.z / (d**2 + m.gamma_eit**2))


def phase_response(m: EitMedium, delta):
    """Phase Phi(delta) in radians; odd in delta, zero at resonance."""
    d = _detunings(delta)
    return d * m.z * m.gamma_eit / (d**2 + m.gamma_eit**2)


def group_delay(m: EitMedium, delta):
    """Envelope delay (1/2pi) dPhi/ddelta in seconds.

    Positive means delay (slow light), negative advancement (fast light);
    the sign changes exactly at |delta| = gamma_eit.
    """
    d = _detunings(delta)
    g2 = m.gamma_eit**2
    return (m.z * m.gamma_eit / _TWO_PI) * (g2 - d**2) / (d**2 + g2) ** 2


def intensity_transmission(m: EitMedium, delta):
    """Intensity transmission |H(delta)|^2 = scale * exp[-2 delta^2 z / (delta^2 + gamma^2)]."""
    return amplitude_response(m, delta) ** 2


def calibrate_from_transmission(peak: float, background: float, fwhm: float) -> EitMedium:
    """Fit (gamma_eit, z, scale) to a measured transmission window.

    The returned model satisfies T(0) = peak, T(inf) = background and
    T(+-fwhm/2) = (peak + background)/2, the half level above the pedestal.
    scale = peak and z = ln(peak/background)/2 follow directly; the half-width
    condition exp(-2 z x) = (1 + e^(-2z))/2 with x = delta_h^2/(delta_h^2 +
    gamma^2) is solved by bisection on x in (0, 1).
    """
    if not 0.0 < background < peak <= 1.0:
        raise ValidationError(
            f"need 0 < background < peak <= 1 for a transparency window, "
            f"got peak={peak}, background={background}"
        )
    if not fwhm > 0:
        raise ValidationError(f"fwhm must be positive, got {fwhm}")

    scale = peak
    z = 0.5 * math.log(peak / background)
    target = 0.5 * (1.0 + math.exp(-2.0 * z))

    # exp(-2 z x) - target is monotone decreasing on (0, 1) and brackets 0.
    lo, hi = 0.0, 1.0
    while hi - lo > 1e-12:
        mid = 0.5 * (lo + hi)
        if math.exp(-2.0 * z * mid) > target:
            lo = mid
        else:
            hi = mid
    x = 0.5 * (lo + hi)

    gamma = (fwhm / 2.0) * math.sqrt((1.0 - x) / x)
    return EitMedium(gamma_eit=gamma, z=z, scale=scale)


@dataclass(frozen=True, eq=False)
class MeasuredTransmission:
    """Tabulated intensity transmission versus detuning.

    Lookups interpolate linearly between the tabulated points and return
    the mean of the two endpoint transmissions (the far-detuned background
    level) outside the tabulated range.
    """

    detunings: np.ndarray = field(repr=False)
    transmissions: np.ndarray = field(repr=False)

    def __post_init__(self) -> None:
        d = np.array(self.detunings, dtype=np.float64)
        t = np.array(self.transmissions, dtype=np.float64)
        if d.ndim != 1 or d.shape != t.shape:
            raise ValidationError("detunings and transmissions must be equal-length 1-d arrays")
        require_finite_array(d, "tabulated detuning")
        if d.size < 4:
            raise ValidationError(f"need at least 4 tabulated points, got {d.size}")
        if np.any(np.diff(d) <= 0):
            raise ValidationError("tabulated detunings must be strictly increasing")
        if not np.all((t >= 0) & (t <= 1)):
            raise ValidationError("tabulated transmissions must lie in [0, 1]")
        d.setflags(write=False)
        t.setflags(write=False)
        object.__setattr__(self, "detunings", d)
        object.__setattr__(self, "transmissions", t)


def transmission_lookup(table: MeasuredTransmission, delta):
    """Interpolated intensity transmission at delta (Hz), clamped to [0, 1]."""
    d = _detunings(delta)
    t = table.transmissions
    outside = 0.5 * float(t[0] + t[-1])
    value = np.interp(d, table.detunings, t, left=outside, right=outside)
    return np.clip(value, 0.0, 1.0)
