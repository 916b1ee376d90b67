"""Apply a linear channel to a pulse in the spectral domain.

A channel multiplies the field spectrum bin-wise by A(delta) exp(-i Phi(delta)).
The amplitude may come from the analytic medium or from a measured
transmission table (whose values are intensity transmission, so field
filtering uses their square root); the phase always comes from the analytic
medium, or is zero for amplitude-only filtering.
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
from .signal import Waveform
from .spectral import Spectrum, dft, idft


class EdgeEnergyWarning(UserWarning):
    """Output energy near the window edges; circular wrap-around is suspect."""


# fraction of output energy tolerated in the outer 5% of the window
_EDGE_ENERGY_LIMIT = 1e-6


@dataclass(frozen=True)
class Channel:
    """Linear channel: an amplitude source plus an optional phase source.

    phase_source None gives amplitude-only filtering, useful for
    compensation studies rather than physical propagation.
    """

    amplitude_source: EitMedium | MeasuredTransmission
    phase_source: EitMedium | None

    def __post_init__(self) -> None:
        if not isinstance(self.amplitude_source, (EitMedium, MeasuredTransmission)):
            raise ValidationError(
                "amplitude_source must be an EitMedium or a MeasuredTransmission"
            )
        if self.phase_source is not None and not isinstance(self.phase_source, EitMedium):
            raise ValidationError("phase_source must be an EitMedium or None")

    @classmethod
    def analytic(cls, medium: EitMedium) -> "Channel":
        """Fully analytic channel: amplitude and phase from the same medium."""
        return cls(amplitude_source=medium, phase_source=medium)

    @classmethod
    def hybrid(cls, table: MeasuredTransmission, medium: EitMedium) -> "Channel":
        """Measured amplitude with the analytic dispersion of `medium`."""
        return cls(amplitude_source=table, phase_source=medium)

    @classmethod
    def amplitude_only(cls, source: EitMedium | MeasuredTransmission) -> "Channel":
        return cls(amplitude_source=source, phase_source=None)


def field_response(ch: Channel, delta) -> np.ndarray:
    """Complex field response A(delta) exp(-i Phi(delta)) at delta (Hz)."""
    if isinstance(ch.amplitude_source, EitMedium):
        amp = amplitude_response(ch.amplitude_source, delta)
    else:
        amp = np.sqrt(transmission_lookup(ch.amplitude_source, delta))
    if ch.phase_source is None:
        return np.asarray(amp, dtype=np.complex128)
    return amp * np.exp(-1j * phase_response(ch.phase_source, delta))


def propagate_spectrum(s_in: Spectrum, ch: Channel) -> Spectrum:
    """Bin-wise product of the input spectrum with the channel response."""
    return Spectrum(s_in.grid, s_in.samples * field_response(ch, s_in.detunings()))


def propagate_waveform(w: Waveform, ch: Channel) -> Waveform:
    """dft -> multiply -> idft pipeline; output may be complex.

    Warns when more than 1e-6 of the output energy sits in the outer 5% of
    the window, the signature of circular wrap-around of a delayed pulse.
    """
    out = idft(propagate_spectrum(dft(w), ch))
    warn_if_wrapped(out)
    return out


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
