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

from .errors import SCALE, ValidationError, require_detunings, require_finite, require_within

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
        require_within(self.gamma_eit, 1.0 / SCALE, SCALE, "gamma_eit")
        require_within(self.z, 0.0, SCALE, "z")
        if not 0.0 < self.scale <= 1.0:
            raise ValidationError(f"scale must lie in (0, 1], got {self.scale}")


def amplitude_response(m: EitMedium, delta):
    """Field amplitude ratio A(delta) = |H(delta)|, in (0, 1]."""
    d = require_detunings(delta)
    return np.sqrt(m.scale) * np.exp(-d**2 * m.z / (d**2 + m.gamma_eit**2))


def phase_response(m: EitMedium, delta):
    """Phase Phi(delta) in radians; odd in delta, zero at resonance."""
    d = require_detunings(delta)
    return d * m.z * m.gamma_eit / (d**2 + m.gamma_eit**2)


def group_delay(m: EitMedium, delta):
    """Envelope delay (1/2pi) dPhi/ddelta in seconds.

    Positive means delay (slow light), negative advancement (fast light);
    the sign changes exactly at |delta| = gamma_eit.
    """
    d = require_detunings(delta)
    # a product, rounded as numpy rounds d**2: Python's gamma**2 calls pow,
    # which rounds 1.7371607681654914e16**2 one unit higher
    g2 = m.gamma_eit * m.gamma_eit
    return (m.z * m.gamma_eit / _TWO_PI) * (g2 - d**2) / (d**2 + g2) ** 2


def intensity_transmission(m: EitMedium, delta):
    """Intensity transmission |H(delta)|^2 = scale * exp[-2 delta^2 z / (delta^2 + gamma^2)]."""
    return amplitude_response(m, delta) ** 2


# the shallowest window calibrate_from_transmission fits: its half-width
# condition spans 2z of exp's range near 1, where float64 steps by 1.1e-16,
# so below z = 1e-6 the fitted half level drifts by more than 1e-10 of the
# window's depth (at z = 1.1e-16, background = nextafter(peak, 0), gamma_eit
# came out 303.1 kHz for a 350 kHz FWHM instead of 175.0 kHz)
_MIN_CALIBRATED_Z = 1e-6


def calibrate_from_transmission(peak: float, background: float, fwhm: float) -> EitMedium:
    """Fit (gamma_eit, z, scale) to a measured transmission window.

    The returned model satisfies T(0) = peak, T(inf) = background and
    T(+-fwhm/2) = (peak + background)/2, the half level above the pedestal.
    scale = peak and z = ln(peak/background)/2 follow directly; the half-width
    condition exp(-2 z x) = (1 + e^(-2z))/2 with x = delta_h^2/(delta_h^2 +
    gamma^2) is solved by bisection on x in (0, 1).

    background must be at least 1/SCALE, so z <= 20.8, and the window at
    least _MIN_CALIBRATED_Z deep; fwhm must lie in [2/SCALE, SCALE/4], which
    keeps gamma_eit, between fwhm/2 and 3.9 fwhm, within EitMedium's range.
    """
    if not 0.0 < background < peak <= 1.0:
        raise ValidationError(
            f"need 0 < background < peak <= 1 for a transparency window, "
            f"got peak={peak}, background={background}"
        )
    require_within(background, 1.0 / SCALE, 1.0, "background")
    require_within(fwhm, 2.0 / SCALE, SCALE / 4.0, "fwhm")

    scale = peak
    z = 0.5 * math.log(peak / background)
    if z < _MIN_CALIBRATED_Z:
        raise ValidationError(
            f"background {background} lies above peak * exp(-2e-6) = {peak * math.exp(-2e-6)}: "
            f"a window shallower than z = {_MIN_CALIBRATED_Z:g} has no resolvable half width"
        )
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
        require_finite(d, "tabulated detuning")
        if d.size < 4:
            raise ValidationError(f"need at least 4 tabulated points, got {d.size}")
        if np.any(np.diff(d) <= 0):
            raise ValidationError("tabulated detunings must be strictly increasing")
        require_within(t, 0.0, 1.0, "tabulated transmission")
        d.setflags(write=False)
        t.setflags(write=False)
        object.__setattr__(self, "detunings", d)
        object.__setattr__(self, "transmissions", t)


def transmission_lookup(table: MeasuredTransmission, delta):
    """Interpolated intensity transmission at delta (Hz), clamped to [0, 1]."""
    d = require_detunings(delta)
    t = table.transmissions
    outside = 0.5 * float(t[0] + t[-1])
    value = np.interp(d, table.detunings, t, left=outside, right=outside)
    return np.clip(value, 0.0, 1.0)
