"""Spectral compensation, pulse recovery, component decomposition, metrics.

Compensation divides the output spectrum by the channel's intensity
transmission, clamped below at a floor so far-detuned bins are never amplified
by more than 1/floor; _divisor checks and clamps it once per call.  Recovery
divides the field by the divisor's square root, keeping the propagated phase;
compensate_spectrum also returns the compensated intensity spectrum and the
gain 1/divisor.  Decomposition splits an AMG spectrum at check_band_plan's bands,
after checking that each sideband holds at least 1e-6 of the input and the
output spectrum's energy, the share errors.energy_share takes; its four
components come from one batched inverse transform and share one read-only
buffer.  Metrics square the samples in place and raise NumericError naming
the waveform whose energy sum overflows.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import NumericError, ValidationError, energy_share, energy_sum, overflowed
from .errors import require_within
from .signal import SamplingGrid, Waveform, _handover, _intensity
from .spectral import (
    Spectrum,
    _band_slice,
    _idft_bands,
    _unit_phasor,
    dft,
    fwhm,
    idft,
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


def _divisor(transmission, n: int, cfg: CompensationConfig) -> np.ndarray:
    """max(transmission, floor) per bin, for a transmission of n values in [0, 1]."""
    t = np.asarray(transmission, dtype=np.float64)
    if t.shape != (n,):
        raise ValidationError(f"transmission has shape {t.shape}, expected ({n},)")
    return np.maximum(require_within(t, 0.0, 1.0, "per-bin transmission"), cfg.floor)


def _recover(s_out: Spectrum, divisor: np.ndarray) -> Waveform:
    """The waveform of s_out / sqrt(divisor); NumericError when its energy
    sum is not finite."""
    with np.errstate(over="ignore", invalid="ignore"):  # the check below names the overflow
        w = idft(_handover(Spectrum, s_out.grid, s_out.samples / np.sqrt(divisor)))
        total = energy_sum(w.samples)
    if not total < math.inf:
        raise overflowed("recovered waveform")
    return w


def compensate_spectrum(
    s_out: Spectrum, transmission, cfg: CompensationConfig
) -> tuple[np.ndarray, Waveform, np.ndarray]:
    """(|E_out|^2 / divisor, the waveform of E_out / sqrt(divisor), 1 / divisor)
    for divisor = max(transmission, floor): the compensated intensity spectrum,
    the recovered pulse and the gain spectrum.  NumericError when the first,
    or the energy sum of the second, overflows float64."""
    divisor = _divisor(transmission, s_out.grid.n, cfg)
    with np.errstate(over="ignore"):  # the check below names the overflow
        compensated = _intensity(s_out.samples)
        compensated /= divisor
    if not compensated.max() < math.inf:
        raise overflowed("output spectrum")
    return compensated, _recover(s_out, divisor), 1.0 / divisor


def recover_waveform(s_out: Spectrum, transmission, cfg: CompensationConfig) -> Waveform:
    """compensate_spectrum's recovered pulse, without the other two arrays."""
    return _recover(s_out, _divisor(transmission, s_out.grid.n, cfg))


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


def _require_sidebands(s_in: Spectrum, s_out: Spectrum, slices: dict[str, slice]) -> None:
    """Reject a spectrum whose left or right band, a slice of its bins, holds
    less than _MIN_SIDEBAND_ENERGY of its energy (errors.energy_share, which
    names a spectrum whose energy overflowed), or whose energy is zero."""
    for label, s in (("input", s_in), ("output", s_out)):
        for side in ("left", "right"):
            frac = energy_share(f"{label} spectrum", s.samples, slices[side])
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
    grid = s_out.grid
    deltas = grid.detunings()
    slices = {name: _band_slice(deltas, *band)
              for name, band in check_band_plan(grid, mod_freq).items()}
    del deltas  # not held through the transform
    _require_sidebands(s_in, s_out, slices)

    reference, carrier, left, right = _idft_bands(grid, [
        (s_in, slices["carrier"]),
        (s_out, slices["carrier"]),
        (s_out, slices["left"]),
        (s_out, slices["right"]),
    ])

    t = grid.times()
    t_ref = peak_location(t, _intensity(reference.samples))
    delays = [
        peak_location(t, _intensity(w.samples)) - t_ref for w in (carrier, left, right)
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


def _intensity_sum(w: Waveform, label: str) -> tuple[np.ndarray, np.floating]:
    """The intensity of w and its sum; NumericError naming the `label`
    waveform when that sum is not finite."""
    with np.errstate(over="ignore"):  # the check below names the overflow
        i = _intensity(w.samples)
        total = np.sum(i)
    if not total < math.inf:
        raise overflowed(f"{label} waveform")
    return i, total


def _shift_waveform(w: Waveform, shift: float) -> Waveform:
    """Translate a waveform by `shift` seconds via the spectral shift theorem,
    with the phase (-2 pi delta) * shift taken in the detunings' array."""
    s = dft(w)
    theta = s.detunings()
    theta *= -_TWO_PI
    theta *= shift
    shifted = _unit_phasor(theta)
    np.multiply(s.samples, shifted, out=shifted)
    del s, theta  # freed before idft allocates its buffer
    return idft(_handover(Spectrum, w.grid, shifted))


def measure_metrics(out: Waveform, reference: Waveform) -> PulseMetrics:
    """Peak delay, energy loss, aligned shape error, and output FWHM.

    The shape error is the RMS difference of the two unit-peak intensity
    profiles after shifting the output back by the measured delay, taken over
    the region holding the central 99% of the reference energy; a reference
    so concentrated that the region holds no sample is a NumericError, and
    so is a waveform whose energy sum overflows float64.
    """
    if out.grid != reference.grid:
        raise ValidationError("output and reference waveforms must share one grid")
    dt = out.grid.dt
    i_ref, ref_sum = _intensity_sum(reference, "reference")
    ref_energy = float(ref_sum * dt)  # reference.energy(), from i_ref
    if ref_energy == 0.0:
        raise ValidationError("reference waveform is identically zero")
    i_out, out_sum = _intensity_sum(out, "output")

    t = out.grid.times()
    delay = peak_location(t, i_out) - peak_location(t, i_ref)
    loss = 1.0 - float(out_sum * dt) / ref_energy

    i_aligned = _intensity(_shift_waveform(out, -delay).samples)
    peak_aligned = float(np.max(i_aligned))
    if peak_aligned == 0.0:
        raise ValidationError("output waveform is identically zero")

    cumulative = np.cumsum(i_ref)
    cumulative *= dt
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
