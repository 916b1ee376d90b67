"""Apply the EIT channel to a pulse in the spectral domain.

A channel multiplies the field spectrum bin-wise by A(delta) exp(-i Phi(delta)).
The phase always comes from the analytic medium.  The amplitude comes from
the medium too (the analytic channel), or from a measured transmission table
(the hybrid channel), whose values are intensity transmission, so field
filtering uses their square root.  propagate is the one dft -> multiply ->
idft path, with the wrap-around guard on its output.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .errors import ValidationError
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
    """Output energy near the window edges; circular wrap-around is suspect."""


# fraction of output energy tolerated in the outer 5% of the window
_EDGE_ENERGY_LIMIT = 1e-6


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

    The output waveform may be complex.  Warns with EdgeEnergyWarning when
    more than 1e-6 of its energy sits in the outer 5% of the window, the
    signature of circular wrap-around of a delayed pulse.
    """
    s_in = dft(w)
    s_out = propagate_spectrum(s_in, ch)
    output = idft(s_out)
    warn_if_wrapped(output)
    return s_in, s_out, output


def warn_if_wrapped(w: Waveform) -> None:
    """Emit EdgeEnergyWarning when a waveform's energy leaks to the window edges."""
    intensity = np.abs(w.samples) ** 2
    total = float(np.sum(intensity))
    if total == 0.0:
        return
    m = max(1, int(np.ceil(0.025 * w.grid.n)))
    edge = float(np.sum(intensity[:m]) + np.sum(intensity[-m:]))
    fraction = edge / total
    if fraction > _EDGE_ENERGY_LIMIT:
        warnings.warn(
            f"{fraction:.2e} of the output energy lies in the outer 5% of the "
            f"window; the result may be wrapped circularly",
            EdgeEnergyWarning,
            stacklevel=3,
        )
