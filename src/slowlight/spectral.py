"""Discrete Fourier analysis between waveforms and detuning spectra.

Conventions: the forward transform carries dt and the backward df, so
discrete sums approximate continuous integrals and Parseval holds in
physical units,

    E(delta_k) = sum_n e(t_n) exp(-i 2 pi delta_k t_n) dt,
    e(t_n)     = sum_k E(delta_k) exp(+i 2 pi delta_k t_n) df.

A channel phase exp(-i Phi) with dPhi/ddelta > 0 then delays the envelope,
consistent with the shift theorem.

The phase ramps over the grid's detunings, inverse = exp(+i 2 pi delta_k t_0)
and forward = dt * conj(inverse), come from one complex exp and are
memoised together for the last grid, so the transforms of one pipeline
build them once.  SamplingGrid caps n at 2**22, which bounds the memo at two
64 MiB arrays.  dft writes into one fresh buffer the forward ramp times
the FFT with its halves swapped (the FFT shift).  Every inverse transform
runs through _idft_bands: it writes the in-band bins of one or more
spectra, times the inverse ramp, at their swapped positions in the rows
of one zeroed buffer and runs one inverse FFT over the rows in place.
idft is its one-band case, the whole spectrum, and each band of a
decomposition gets the bits of idft(band_extract(...)).  Complex multiply
is not bitwise commutative, so those operand orders fix the output bits.
fwhm and peak_location check their axis and values by one rule, _curve.
Library functions hand the arrays they have just built to Spectrum and
Waveform without a copy; the public constructors copy.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import NumericError, ValidationError, energy_sum, require_detunings, require_finite
from .signal import AMG, LN2, PulseSpec, SamplingGrid, Waveform, _handover, _intensity
from .signal import _own_samples

_TWO_PI = 2.0 * math.pi


@dataclass(frozen=True, eq=False)
class Spectrum:
    """Complex amplitude per detuning bin; the carrier (0 Hz) bin is at n//2."""

    grid: SamplingGrid
    samples: np.ndarray = field(repr=False)

    def __post_init__(self) -> None:
        _own_samples(self, "spectrum has {} bins")

    def detunings(self) -> np.ndarray:
        return self.grid.detunings()

    def energy(self) -> float:
        """Sum of |E|^2 * df; equals the waveform energy by Parseval."""
        return energy_sum(self.samples) * self.grid.df


def _ramps(grid: SamplingGrid) -> tuple[np.ndarray, np.ndarray]:
    """(forward, inverse) phase ramps of the grid, read-only and memoised;
    the forward one carries dt."""
    # grids with t_start 0.0 and -0.0 are equal, but their ramps differ in
    # the sign of zero, so that sign is part of the memo key
    return _memo_ramps(grid, math.copysign(1.0, grid.t_start))


@functools.lru_cache(maxsize=1)
def _memo_ramps(grid: SamplingGrid, zero_sign: float) -> tuple[np.ndarray, np.ndarray]:
    inverse = np.exp(1j * _TWO_PI * grid.detunings() * grid.t_start)
    forward = grid.dt * inverse.conj()
    inverse.setflags(write=False)
    forward.setflags(write=False)
    return forward, inverse


def _unit_phasor(theta: np.ndarray) -> np.ndarray:
    """exp(i theta) as cos(theta) and sin(theta) written into the real and
    imaginary parts of one complex buffer; bit for bit the np.exp of
    +0 + i theta on the platforms tests/test_spectral.py accepts."""
    out = np.empty(theta.shape, dtype=np.complex128)
    np.cos(theta, out=out.real)
    np.sin(theta, out=out.imag)
    return out


def dft(w: Waveform) -> Spectrum:
    """Forward transform of a waveform onto its grid's detuning lattice."""
    grid = w.grid
    forward, h = _ramps(grid)[0], grid.n // 2  # the FFT shift swaps the halves
    raw = np.fft.fft(w.samples)
    out = np.empty_like(raw)
    np.multiply(forward[:h], raw[h:], out=out[:h])
    np.multiply(forward[h:], raw[:h], out=out[h:])
    return _handover(Spectrum, grid, out)


def idft(s: Spectrum) -> Waveform:
    """Inverse transform; exact inverse of dft up to float rounding."""
    return _idft_bands(s.grid, [(s, slice(None))])[0]


def intensity_spectrum(s: Spectrum) -> np.ndarray:
    """|E(delta)|^2 per bin; phase information is discarded."""
    return _intensity(s.samples)


def amg_spectrum_closed_form(t0: float, mod_depth: float, mod_freq: float, delta):
    """Three-Gaussian intensity spectrum of an AMG pulse, carrier peak = 1.

    Evaluates i1(delta) + (A^2/4) [i1(delta - f) + i1(delta + f)] where i1 is
    the intensity spectrum of the Gaussian pulse, a Gaussian of half-width
    ln2/(2 pi t0) (FWHM ln2/(pi t0)).  Cross terms are neglected, valid when
    the modulation frequency far exceeds the spectral width.  The parameters
    are checked as PulseSpec(AMG, t0, mod_depth, mod_freq), the pulse whose
    spectrum this is, and delta by errors.require_detunings.
    """
    PulseSpec(AMG, t0, mod_depth, mod_freq)
    d = require_detunings(delta)
    half_width = LN2 / (_TWO_PI * t0)

    def i1(x):
        return np.exp(-LN2 * x**2 / half_width**2)

    ratio = mod_depth**2 / 4.0
    return i1(d) + ratio * (i1(d - mod_freq) + i1(d + mod_freq))


def _band_slice(deltas: np.ndarray, lo: float, hi: float) -> slice:
    """The bins of the ascending lattice deltas that lie in [lo, hi)."""
    return slice(*np.searchsorted(deltas, (lo, hi)))


def band_extract(s: Spectrum, lo: float, hi: float) -> Spectrum:
    """Copy of the spectrum with every bin outside [lo, hi) zeroed."""
    if not lo < hi:
        raise ValidationError(f"band bounds must satisfy lo < hi, got [{lo}, {hi})")
    band = _band_slice(s.detunings(), lo, hi)
    out = np.zeros(s.grid.n, dtype=np.complex128)
    out[band] = s.samples[band]
    return _handover(Spectrum, s.grid, out)


def _idft_bands(grid: SamplingGrid, bands) -> list[Waveform]:
    """The inverse transform of each (spectrum, bin slice) pair's spectrum with
    the bins outside the slice zeroed, from one zeroed (len(bands), n) buffer:
    only the in-band bins are multiplied by the inverse ramp and written at
    their FFT-shifted positions, and one batched inverse FFT transforms every
    row in place.  The waveforms are read-only rows of that buffer, which is
    read-only too."""
    inverse, n, h = _ramps(grid)[1], grid.n, grid.n // 2
    buf = np.zeros((len(bands), n), dtype=np.complex128)
    for row, (s, band) in zip(buf, bands):
        start, stop, _ = band.indices(n)
        # bin k sits at k - h from k = h up and at k + h below; a band across
        # bin h is written in two pieces
        for a, b, to in ((max(start, h), stop, -h), (start, min(stop, h), h)):
            if a < b:
                np.multiply(s.samples[a:b], inverse[a:b], out=row[a + to:b + to])
    np.fft.ifft(buf, axis=-1, out=buf)
    buf /= grid.dt
    buf.setflags(write=False)
    return [_handover(Waveform, grid, row) for row in buf]


def _curve(axis, values, what: str, min_size: int) -> tuple[np.ndarray, np.ndarray]:
    """axis and values as float64 arrays, checked to be 1-d, of one length
    of at least min_size, and finite; `what` names the caller in errors."""
    axis = np.asarray(axis, dtype=np.float64)
    values = np.asarray(values, dtype=np.float64)
    if axis.shape != values.shape or axis.ndim != 1 or axis.size < min_size:
        raise ValidationError(f"{what} needs matching 1-d axis/values of >= {min_size} samples")
    require_finite(axis, f"{what} axis")
    return axis, require_finite(values, f"{what} value")


def fwhm(axis: np.ndarray, values: np.ndarray) -> float:
    """Full width at half maximum of a peaked curve over an ordered axis.

    The half level is half the peak, measured from zero.  Crossings adjacent
    to the global maximum are located by linear interpolation between
    bracketing samples.
    """
    axis, values = _curve(axis, values, "fwhm", 3)
    i_peak = int(np.argmax(values))
    half = 0.5 * values[i_peak]

    def crossing(step: int) -> float:
        i = i_peak
        while 0 <= i + step < values.size:
            j = i + step
            if values[j] < half:
                # linear interpolation between samples i (>= half) and j (< half)
                frac = (values[i] - half) / (values[i] - values[j])
                return float(axis[i] + frac * (axis[j] - axis[i]))
            i = j
        raise NumericError(
            "no half-maximum crossing found on one side of the peak "
            "(curve truncated by the window)"
        )

    return crossing(+1) - crossing(-1)


def peak_location(axis: np.ndarray, values: np.ndarray) -> float:
    """Position of the global maximum, refined by 3-point parabolic interpolation."""
    axis, values = _curve(axis, values, "peak_location", 1)
    i = int(np.argmax(values))
    if i == 0 or i == values.size - 1:
        return float(axis[i])
    denom = values[i - 1] - 2.0 * values[i] + values[i + 1]
    if denom == 0.0:
        return float(axis[i])
    offset = 0.5 * (values[i - 1] - values[i + 1]) / denom
    offset = min(0.5, max(-0.5, offset))
    return float(axis[i] + offset * 0.5 * (axis[i + 1] - axis[i - 1]))
