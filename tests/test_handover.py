"""Library results are handed to Spectrum and Waveform without a copy; the
public constructors still copy, and every result stays read-only and
unshared."""

import tracemalloc

import numpy as np
import pytest

from slowlight import (
    Channel,
    CompensationConfig,
    SamplingGrid,
    Spectrum,
    Waveform,
    band_extract,
    decompose_components,
    dft,
    idft,
    intensity_transmission,
    measure_metrics,
    propagate_spectrum,
    recover_waveform,
    synth,
)
from slowlight.spectral import _ramps

from conftest import MOD_FREQ


@pytest.mark.parametrize("cls", [Waveform, Spectrum])
def test_public_constructors_copy(cls, rng):
    grid = SamplingGrid(64, 1e-7)
    a = rng.standard_normal(64) + 1j * rng.standard_normal(64)
    kept = a.copy()
    obj = cls(grid, a)
    a[:] = 0.0
    assert obj.samples.tobytes() == kept.tobytes()
    assert a.flags.writeable
    assert not obj.samples.flags.writeable


def _pipeline(amg_spec, grid, calibrated):
    pulse = synth(amg_spec, grid)
    s_in = dft(pulse)
    s_out = propagate_spectrum(s_in, Channel.analytic(calibrated))
    transmission = intensity_transmission(calibrated, s_out.detunings())
    return pulse, s_in, s_out, transmission


def test_results_are_read_only_and_unshared(amg_spec, amg_grid, calibrated):
    pulse, s_in, s_out, transmission = _pipeline(amg_spec, amg_grid, calibrated)
    parts = decompose_components(s_out, s_in, MOD_FREQ)
    results = [
        (dft(pulse), [pulse.samples]),
        (idft(s_out), [s_out.samples]),
        (band_extract(s_out, -MOD_FREQ / 2, MOD_FREQ / 2), [s_out.samples]),
        (propagate_spectrum(s_in, Channel.analytic(calibrated)), [s_in.samples]),
        (recover_waveform(s_out, transmission, CompensationConfig()),
         [s_out.samples, transmission]),
    ]
    results += [(getattr(parts, label), [s_out.samples, s_in.samples])
                for label in ("carrier", "left", "right", "reference")]
    ramps = list(_ramps(amg_grid))
    for result, inputs in results:
        assert not result.samples.flags.writeable
        for other in inputs + ramps:
            assert not np.shares_memory(result.samples, other)


def test_components_are_rows_of_one_read_only_buffer(amg_spec, amg_grid, calibrated):
    _, s_in, s_out, _ = _pipeline(amg_spec, amg_grid, calibrated)
    parts = decompose_components(s_out, s_in, MOD_FREQ)
    base = parts.reference.samples.base
    assert base.shape == (4, amg_grid.n) and not base.flags.writeable
    for label in ("reference", "carrier", "left", "right"):
        samples = getattr(parts, label).samples
        assert samples.base is base and not samples.flags.writeable
        with pytest.raises(ValueError):
            samples[0] = 0.0
    with pytest.raises(ValueError):
        base[0, 0] = 0.0


# Python objects and index arrays: under 1% of one array at n = 65536, while
# one more float array would add 0.5
_OBJECT_SLACK = 0.01


def _peak_units(fn, *args):
    """Peak memory fn allocates, in complex arrays of the grid's size, less
    the slack for Python objects."""
    fn(*args)  # the ramp memo is filled before the count starts
    tracemalloc.start()
    try:
        fn(*args)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak / (16 * args[0].grid.n) - _OBJECT_SLACK


def test_transform_and_analysis_peaks_at_large_n(amg_spec, amg_grid, calibrated):
    n = 65536
    grid = SamplingGrid(n, amg_grid.window / n, amg_grid.t_start)
    pulse, s_in, s_out, _ = _pipeline(amg_spec, grid, calibrated)
    output = idft(s_out)
    assert _peak_units(dft, pulse) <= 2
    assert _peak_units(idft, s_out) <= 1
    assert _peak_units(decompose_components, s_out, s_in, MOD_FREQ) <= 6
    assert _peak_units(measure_metrics, output, pulse) <= 5
