"""Spectral-domain simulator and compensation toolkit for slow light.

Models a narrow transparency window as a linear frequency-domain channel,
propagates Gaussian and amplitude-modulated Gaussian pulses through it,
calibrates the channel from a measured transmission spectrum, recovers
distorted output pulses by dividing out the transmission, and decomposes a
modulated pulse into simultaneously slowed and advanced spectral components.
"""

from .analysis import (
    CompensationConfig,
    ComponentDecomposition,
    PulseMetrics,
    compensate_intensity_spectrum,
    decompose_components,
    export_gain_spectrum,
    measure_metrics,
    recover_waveform,
)
from .errors import NumericError, SlowlightError, ValidationError
from .medium import (
    EitMedium,
    MeasuredTransmission,
    amplitude_response,
    calibrate_from_transmission,
    group_delay,
    intensity_transmission,
    phase_response,
    transmission_lookup,
)
from .propagation import (
    Channel,
    EdgeEnergyWarning,
    field_response,
    propagate,
    propagate_spectrum,
)
from .scenario import Scenario, load_scenario, run_scenario
from .signal import (
    AMG,
    GAUSSIAN,
    IntensityTrace,
    PulseSpec,
    SamplingGrid,
    Waveform,
    amplitude_from_intensity,
    default_grid,
    gaussian_spectral_fwhm,
    intensity_of,
    synth,
)
from .spectral import (
    Spectrum,
    amg_spectrum_closed_form,
    band_extract,
    dft,
    fwhm,
    idft,
    intensity_spectrum,
    peak_location,
)

__version__ = "0.1.0"

__all__ = [
    "AMG",
    "GAUSSIAN",
    "Channel",
    "CompensationConfig",
    "ComponentDecomposition",
    "EdgeEnergyWarning",
    "EitMedium",
    "IntensityTrace",
    "MeasuredTransmission",
    "NumericError",
    "PulseMetrics",
    "PulseSpec",
    "SamplingGrid",
    "Scenario",
    "SlowlightError",
    "Spectrum",
    "ValidationError",
    "Waveform",
    "amg_spectrum_closed_form",
    "amplitude_from_intensity",
    "amplitude_response",
    "band_extract",
    "calibrate_from_transmission",
    "compensate_intensity_spectrum",
    "decompose_components",
    "default_grid",
    "dft",
    "export_gain_spectrum",
    "field_response",
    "fwhm",
    "gaussian_spectral_fwhm",
    "group_delay",
    "idft",
    "intensity_of",
    "intensity_spectrum",
    "intensity_transmission",
    "load_scenario",
    "measure_metrics",
    "peak_location",
    "phase_response",
    "propagate",
    "propagate_spectrum",
    "recover_waveform",
    "run_scenario",
    "synth",
    "transmission_lookup",
]
