"""Spectral compensation, pulse recovery, component decomposition, metrics.

Compensation divides the output intensity spectrum by the channel's intensity
transmission, clamped below at a floor so far-detuned bins are never amplified
by more than 1/floor.  Recovery applies the same division at field level
(square roots), keeping the propagated phase, and transforms back to the time
domain.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import NumericError, ValidationError
from .signal import SamplingGrid, Waveform, _handover
from .spectral import (
    Spectrum,
    _band_slice,
    band_extract,
    dft,
    fwhm,
    idft,
    intensity_spectrum,
    peak_location,
)

_TWO_PI = 2.0 * math.pi


@dataclass(frozen=True)
class CompensationConfig:
    """floor: minimum intensity transmission used as divisor."""

    floor: float = 1e-3

    def __post_init__(self) -> None:
        if not 0.0 < self.floor < 1.0:
            raise ValidationError(f"floor must lie in (0, 1), got {self.floor}")


@dataclass(frozen=True)
class PulseMetrics:
    """delay: signed peak delay in seconds (negative = advancement);
    loss: fraction of input energy lost; nrmse: peak-normalized RMS shape
    error after delay alignment; fwhm_time: output intensity FWHM in seconds."""

    delay: float
    loss: float
    nrmse: float
    fwhm_time: float


def _validated_transmission(transmission, n: int | None = None) -> np.ndarray:
    """transmission as floats in [0, 1], of shape (n,) when n is given."""
    t = np.asarray(transmission, dtype=np.float64)
    if n is not None and t.shape != (n,):
        raise ValidationError(f"transmission has shape {t.shape}, expected ({n},)")
    if not np.all((t >= 0) & (t <= 1)):
        raise ValidationError("per-bin transmission must lie in [0, 1]")
    return t


def compensate_intensity_spectrum(
    intensity: np.ndarray, transmission, cfg: CompensationConfig
) -> np.ndarray:
    """Bin-wise intensity / max(transmission, floor)."""
    i = np.asarray(intensity, dtype=np.float64)
    t = _validated_transmission(transmission, i.shape[0])
    return i / np.maximum(t, cfg.floor)


def recover_waveform(s_out: Spectrum, transmission, cfg: CompensationConfig) -> Waveform:
    """Field-level compensation then inverse transform.

    Divides the output spectrum by sqrt(max(transmission, floor)), preserving
    the propagated phase; the intensity spectrum of the result equals
    compensate_intensity_spectrum applied to |E_out|^2.
    """
    t = _validated_transmission(transmission, s_out.grid.n)
    divisor = np.sqrt(np.maximum(t, cfg.floor))
    return idft(_handover(Spectrum, s_out.grid, s_out.samples / divisor))


def export_gain_spectrum(transmission, cfg: CompensationConfig) -> np.ndarray:
    """Per-bin intensity gain 1/max(transmission, floor) an amplifier would need."""
    return 1.0 / np.maximum(_validated_transmission(transmission), cfg.floor)


@dataclass(frozen=True, eq=False)
class ComponentDecomposition:
    """Carrier and sideband pulses of an AMG spectrum, with signed delays
    of each component peak relative to the reference (input carrier) peak."""

    carrier: Waveform
    left: Waveform
    right: Waveform
    reference: Waveform
    carrier_delay: float
    left_delay: float
    right_delay: float


# a band holding less than this fraction of total spectral energy means the
# spectrum has no sideband there, i.e. the pulse is not amplitude modulated
_MIN_SIDEBAND_ENERGY = 1e-6


def _require_sidebands(s_in: Spectrum, s_out: Spectrum, bands) -> None:
    """Reject a spectrum whose left or right band holds less than
    _MIN_SIDEBAND_ENERGY of its energy."""
    deltas = s_out.detunings()
    for label, s in (("input", s_in), ("output", s_out)):
        power = intensity_spectrum(s)
        total = float(np.sum(power))
        if total == 0.0:
            raise ValidationError(f"{label} spectrum is identically zero")
        for side in ("left", "right"):
            frac = float(np.sum(power[_band_slice(deltas, *bands[side])])) / total
            if frac < _MIN_SIDEBAND_ENERGY:
                raise ValidationError(
                    f"{side} sideband of the {label} spectrum carries only "
                    f"{frac:.2e} of the total energy; not an AMG pulse"
                )


def check_band_plan(grid: SamplingGrid, mod_freq: float) -> dict[str, tuple[float, float]]:
    """The carrier, left and right bands of an AMG pulse modulated at
    mod_freq, as (low, high) detunings in Hz.

    The bands are the symmetric split at +-mod_freq/2 and +-3*mod_freq/2:
    carrier [-f/2, f/2), right [f/2, 3f/2), left [-3f/2, -f/2).  A right
    band reaching past grid's Nyquist frequency would alias, so it is
    rejected.
    """
    if not mod_freq > 0:
        raise ValidationError(f"mod_freq must be positive, got {mod_freq}")
    h = mod_freq / 2.0
    bands = {
        "carrier": (-h, h),
        "left": (-mod_freq - h, -mod_freq + h),
        "right": (mod_freq - h, mod_freq + h),
    }
    top, nyquist = bands["right"][1], grid.nyquist
    if top > nyquist:
        raise ValidationError(
            f"the right band's top 3*mod_freq/2 = {top} Hz lies above the "
            f"Nyquist frequency {nyquist} Hz; the sidebands would alias"
        )
    return bands


def decompose_components(
    s_out: Spectrum, s_in: Spectrum, mod_freq: float
) -> ComponentDecomposition:
    """Split an output AMG spectrum into carrier and sideband pulses.

    The bands are check_band_plan's.  Components come from the output
    spectrum; the common reference pulse is the carrier band of the input
    spectrum.  Delays are measured peak to peak against the reference.
    """
    if s_out.grid != s_in.grid:
        raise ValidationError("output and input spectra must share one grid")
    bands = check_band_plan(s_out.grid, mod_freq)
    _require_sidebands(s_in, s_out, bands)

    reference = idft(band_extract(s_in, *bands["carrier"]))
    carrier = idft(band_extract(s_out, *bands["carrier"]))
    left = idft(band_extract(s_out, *bands["left"]))
    right = idft(band_extract(s_out, *bands["right"]))

    t = s_out.grid.times()
    t_ref = peak_location(t, np.abs(reference.samples) ** 2)
    delays = [
        peak_location(t, np.abs(w.samples) ** 2) - t_ref for w in (carrier, left, right)
    ]
    return ComponentDecomposition(
        carrier=carrier,
        left=left,
        right=right,
        reference=reference,
        carrier_delay=delays[0],
        left_delay=delays[1],
        right_delay=delays[2],
    )


def _shift_waveform(w: Waveform, shift: float) -> Waveform:
    """Translate a waveform by `shift` seconds via the spectral shift theorem."""
    s = dft(w)
    shifted = np.multiply(-1j * _TWO_PI, s.detunings())
    shifted *= shift
    np.exp(shifted, out=shifted)
    np.multiply(s.samples, shifted, out=shifted)
    return idft(_handover(Spectrum, w.grid, shifted))


def measure_metrics(out: Waveform, reference: Waveform) -> PulseMetrics:
    """Peak delay, energy loss, aligned shape error, and output FWHM.

    The shape error is the RMS difference of the two unit-peak intensity
    profiles after shifting the output back by the measured delay, taken over
    the region holding the central 99% of the reference energy; a reference
    so concentrated that the region holds no sample is a NumericError.
    """
    if out.grid != reference.grid:
        raise ValidationError("output and reference waveforms must share one grid")
    dt = out.grid.dt
    i_ref = np.abs(reference.samples) ** 2
    i_out = np.abs(out.samples) ** 2
    ref_energy = float(np.sum(i_ref) * dt)  # reference.energy(), from i_ref
    if ref_energy == 0.0:
        raise ValidationError("reference waveform is identically zero")

    t = out.grid.times()
    delay = peak_location(t, i_out) - peak_location(t, i_ref)
    loss = 1.0 - float(np.sum(i_out) * dt) / ref_energy

    i_aligned = np.abs(_shift_waveform(out, -delay).samples) ** 2
    peak_aligned = float(np.max(i_aligned))
    if peak_aligned == 0.0:
        raise ValidationError("output waveform is identically zero")

    cumulative = np.cumsum(i_ref) * dt
    total = cumulative[-1]
    support = (cumulative >= 0.005 * total) & (cumulative <= 0.995 * total)
    if not support.any():
        raise NumericError(
            f"one sample holds {float(np.max(i_ref)) / float(np.sum(i_ref)):.2%} of the "
            "reference energy, so the 0.5%-99.5% energy support of the shape error is empty"
        )
    # unit-peak profiles, normalised in place now that i_ref's sums are taken
    i_aligned /= peak_aligned
    i_ref /= float(np.max(i_ref))
    nrmse = float(np.sqrt(np.mean((i_aligned[support] - i_ref[support]) ** 2)))

    return PulseMetrics(
        delay=float(delay),
        loss=float(loss),
        nrmse=nrmse,
        fwhm_time=float(fwhm(t, i_out)),
    )
