"""Apply the EIT channel to a pulse in the spectral domain.

A channel multiplies the field spectrum bin-wise by A(delta) exp(-i Phi(delta)).
The phase always comes from the analytic medium.  The amplitude comes from
the medium too (the analytic channel), or from a measured transmission table
(the hybrid channel), whose values are intensity transmission, so field
filtering uses their square root.  propagate is the one dft -> multiply ->
idft path.  It raises NumericError when energy sits at an edge of the input
spectrum or the output spectrum (a grid whose Nyquist frequency cuts into
the pulse's band) or of the output waveform (circular wrap-around of a
delayed pulse); edge_energy_fraction is the one measure of all three.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import NumericError, ValidationError
from .medium import (
    EitMedium,
    MeasuredTransmission,
    amplitude_response,
    phase_response,
    transmission_lookup,
)
from .signal import Waveform, _handover
from .spectral import Spectrum, dft, idft


class EdgeEnergyWarning(UserWarning):
    """Never emitted: the edge-energy guards raise NumericError.  Kept only
    because the benchmark in perfbench/ still names it; it goes with the
    benchmark's next change, as does warn_if_wrapped."""


# fraction of energy tolerated in the outer 5% of the samples
_EDGE_ENERGY_LIMIT = 1e-6
_NYQUIST_EDGE = "bins, at the Nyquist frequency; the grid undersamples the pulse"
_WINDOW_EDGE = "window; the result may be wrapped circularly"


def edge_energy_fraction(samples) -> float:
    """Share of sum |x|^2 in the outer 5% of the samples, 2.5% at each end;
    0 for all-zero samples.  Serves waveforms and spectra alike."""
    x = np.asarray(samples)
    total = np.vdot(x, x).real
    if total == 0.0:
        return 0.0
    m = max(1, math.ceil(0.025 * x.size))
    head, tail = x[:m], x[-m:]
    return float((np.vdot(head, head).real + np.vdot(tail, tail).real) / total)


def _require_inside(label: str, samples, edge: str) -> None:
    """Raise NumericError naming `label` when more than _EDGE_ENERGY_LIMIT
    of the energy of samples lies at their edges, or when that fraction is
    not finite (an energy sum that overflowed)."""
    fraction = edge_energy_fraction(samples)
    if not fraction <= _EDGE_ENERGY_LIMIT:
        raise NumericError(
            f"{fraction:.2e} of the {label} energy lies in the outer 5% of the {edge}"
        )


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
    """Complex field response A(delta) exp(-i Phi(delta)) at delta (Hz)."""
    if ch.table is None:
        amp = amplitude_response(ch.medium, delta)
    else:
        amp = np.sqrt(transmission_lookup(ch.table, delta))
    return amp * np.exp(-1j * phase_response(ch.medium, delta))


def propagate_spectrum(s_in: Spectrum, ch: Channel) -> Spectrum:
    """Bin-wise product of the input spectrum with the channel response."""
    return _handover(Spectrum, s_in.grid, s_in.samples * field_response(ch, s_in.detunings()))


def propagate(w: Waveform, ch: Channel) -> tuple[Spectrum, Spectrum, Waveform]:
    """Input spectrum, output spectrum and output waveform of w through ch.

    The output waveform may be complex.  Raises NumericError when more than
    1e-6 of the energy of the input spectrum, the output spectrum or the
    output waveform, checked in that order, sits in its outer 5%: at the
    Nyquist edge the grid undersamples the pulse's band, and at the window
    edge a delayed pulse has wrapped around circularly.
    """
    s_in = dft(w)
    _require_inside("input spectrum", s_in.samples, _NYQUIST_EDGE)
    s_out = propagate_spectrum(s_in, ch)
    _require_inside("output spectrum", s_out.samples, _NYQUIST_EDGE)
    output = idft(s_out)
    _require_inside("output waveform", output.samples, _WINDOW_EDGE)
    return s_in, s_out, output


def warn_if_wrapped(w: Waveform) -> None:
    """propagate's output-waveform guard; kept for the benchmark, see EdgeEnergyWarning."""
    _require_inside("output waveform", w.samples, _WINDOW_EDGE)
