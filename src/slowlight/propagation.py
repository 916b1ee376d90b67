"""Apply the EIT channel to a pulse in the spectral domain.

A channel multiplies the field spectrum bin-wise by A(delta) exp(-i Phi(delta)).
The phase always comes from the analytic medium.  The amplitude comes from
the medium too (the analytic channel), or from a measured transmission table
(the hybrid channel), whose values are intensity transmission, so field
filtering uses their square root.  propagate is the one dft -> multiply ->
idft path.  It raises NumericError, through errors.require_inside, when
energy sits at an edge of the input waveform (a pulse cut by its window),
of the input or the output spectrum (a grid whose Nyquist frequency cuts
into the pulse's band) or of the output waveform (circular wrap-around of
a delayed pulse), or when one of them holds no energy or its energy
overflows.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NYQUIST_EDGE, WINDOW_EDGE, ValidationError, require_inside
from .medium import (
    EitMedium,
    MeasuredTransmission,
    amplitude_response,
    phase_response,
    transmission_lookup,
)
from .signal import Waveform, _handover
from .spectral import Spectrum, _unit_phasor, dft, idft


class EdgeEnergyWarning(UserWarning):
    """Never emitted: the edge-energy guards raise NumericError.  Kept only
    because the benchmark in perfbench/ still names it; it goes with the
    benchmark's next change, as does warn_if_wrapped."""


@dataclass(frozen=True)
class Channel:
    """The medium's channel, with the table's amplitude when one is given."""

    medium: EitMedium
    table: MeasuredTransmission | None = None

    def __post_init__(self) -> None:
        if not isinstance(self.medium, EitMedium):
            raise ValidationError("medium must be an EitMedium")
        if self.table is not None and not isinstance(self.table, MeasuredTransmission):
            raise ValidationError("table must be a MeasuredTransmission or None")

    @classmethod
    def analytic(cls, medium: EitMedium) -> "Channel":
        """Fully analytic channel: amplitude and phase from the same medium."""
        return cls(medium)


def field_response(ch: Channel, delta) -> np.ndarray:
    """Complex field response A(delta) exp(-i Phi(delta)) at delta (Hz), built
    in one complex buffer: the unit phasor of -Phi, then A times it."""
    if ch.table is None:
        amp = amplitude_response(ch.medium, delta)
    else:
        amp = np.sqrt(transmission_lookup(ch.table, delta))
    phi = phase_response(ch.medium, delta)
    if not phi.ndim:  # a scalar delta gives numpy scalars, which have no buffer
        return np.multiply(amp, np.exp(np.multiply(-1j, phi)))
    h = _unit_phasor(np.negative(phi, out=phi))
    return np.multiply(amp, h, out=h)


def propagate_spectrum(s_in: Spectrum, ch: Channel) -> Spectrum:
    """Bin-wise product of the input spectrum with the channel response,
    written into the response's buffer."""
    h = field_response(ch, s_in.detunings())
    return _handover(Spectrum, s_in.grid, np.multiply(s_in.samples, h, out=h))


def propagate(w: Waveform, ch: Channel) -> tuple[Spectrum, Spectrum, Waveform]:
    """Input spectrum, output spectrum and output waveform of w through ch.

    The output waveform may be complex.  Raises NumericError when the input
    waveform, the input spectrum, the output spectrum or the output
    waveform, checked in that order, holds no energy, overflows or has more
    than 1e-6 of its energy in its outer 5%: at the window edge the pulse is
    cut by its window or a delayed pulse has wrapped around circularly, and
    at the Nyquist edge the grid undersamples the pulse's band.
    """
    # an overflow inside the transforms makes the next guard's energy sum
    # non-finite, so numpy's warnings would only repeat that guard's error
    with np.errstate(over="ignore", invalid="ignore"):
        require_inside("input waveform", w.samples, WINDOW_EDGE)
        s_in = dft(w)
        require_inside("input spectrum", s_in.samples, NYQUIST_EDGE)
        s_out = propagate_spectrum(s_in, ch)
        require_inside("output spectrum", s_out.samples, NYQUIST_EDGE)
        output = idft(s_out)
        require_inside("output waveform", output.samples, WINDOW_EDGE)
    return s_in, s_out, output


def warn_if_wrapped(w: Waveform) -> None:
    """propagate's output-waveform guard; kept for the benchmark, see EdgeEnergyWarning."""
    require_inside("output waveform", w.samples, WINDOW_EDGE)
