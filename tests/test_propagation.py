"""Channel application: spectral filtering, delays, energy, wrap guard."""

import math

import numpy as np
import pytest

from slowlight import (
    AMG,
    Channel,
    EdgeEnergyWarning,
    EitMedium,
    MeasuredTransmission,
    PulseSpec,
    SamplingGrid,
    Spectrum,
    ValidationError,
    Waveform,
    band_extract,
    default_grid,
    dft,
    field_response,
    group_delay,
    idft,
    intensity_spectrum,
    peak_location,
    propagate_spectrum,
    propagate_waveform,
    synth,
    transmission_lookup,
)

from conftest import MOD_FREQ


def test_identity_channel_is_binwise_identity(gauss_spec, gauss_grid):
    channel = Channel.analytic(EitMedium(gamma_eit=1e5, z=0.0, scale=1.0))
    s = dft(synth(gauss_spec, gauss_grid))
    out = propagate_spectrum(s, channel)
    np.testing.assert_allclose(out.samples, s.samples, rtol=1e-15, atol=0)


def test_identity_channel_waveform(gauss_spec, gauss_grid):
    channel = Channel.analytic(EitMedium(gamma_eit=1e5, z=0.0, scale=1.0))
    w = synth(gauss_spec, gauss_grid)
    out = propagate_waveform(w, channel)
    np.testing.assert_allclose(out.samples, w.samples, rtol=0, atol=1e-12)


def test_amplitude_only_channel_keeps_symmetry(gauss_spec, gauss_grid, calibrated):
    channel = Channel.amplitude_only(calibrated)
    w = synth(gauss_spec, gauss_grid)
    s_out = propagate_spectrum(dft(w), channel)
    # intensity spectrum scaled exactly by the transmission
    expected = intensity_spectrum(dft(w)) * np.asarray(
        field_response(channel, s_out.detunings())
    ).real ** 2
    np.testing.assert_allclose(intensity_spectrum(s_out), expected, rtol=1e-12, atol=0)
    # zero phase: no delay, output symmetric about the same center
    out = idft(s_out)
    t = gauss_grid.times()
    shift = peak_location(t, np.abs(out.samples) ** 2) - peak_location(
        t, np.abs(w.samples) ** 2
    )
    assert abs(shift) < gauss_grid.dt / 10.0
    intensity = np.abs(out.samples) ** 2
    k = np.arange(1, gauss_grid.n // 2)
    np.testing.assert_allclose(
        intensity[gauss_grid.n // 2 - k],
        intensity[gauss_grid.n // 2 + k],
        rtol=1e-9,
        atol=1e-12 * intensity.max(),
    )


def test_pure_delay_response_shifts_peak(gauss_spec, gauss_grid):
    # A == 1, Phi = 2 pi delta tau: the canonical pure-delay filter
    tau = 0.5e-6
    w = synth(gauss_spec, gauss_grid)
    s = dft(w)
    response = np.exp(-2j * math.pi * s.detunings() * tau)
    out = idft(Spectrum(gauss_grid, s.samples * response))
    t = gauss_grid.times()
    moved = peak_location(t, np.abs(out.samples) ** 2) - peak_location(
        t, np.abs(w.samples) ** 2
    )
    assert abs(moved - tau) < gauss_grid.dt / 10.0


def test_narrowband_gaussian_delay_matches_group_delay(gauss_spec, gauss_grid, calibrated):
    medium = EitMedium(gamma_eit=calibrated.gamma_eit, z=calibrated.z, scale=1.0)
    w = synth(gauss_spec, gauss_grid)
    out = propagate_waveform(w, Channel.analytic(medium))
    t = gauss_grid.times()
    delay = peak_location(t, np.abs(out.samples) ** 2) - peak_location(
        t, np.abs(w.samples) ** 2
    )
    tau0 = float(group_delay(medium, 0.0))
    assert delay == pytest.approx(tau0, rel=0.02)


def test_amg_peak_delay_below_gaussian_delay(gauss_spec, amg_spec, calibrated):
    # interference with the advanced sidebands retimes the modulated pulse
    medium = EitMedium(gamma_eit=calibrated.gamma_eit, z=calibrated.z, scale=1.0)
    channel = Channel.analytic(medium)
    delays = {}
    for spec in (gauss_spec, amg_spec):
        grid = default_grid(spec)
        w = synth(spec, grid)
        out = propagate_waveform(w, channel)
        t = grid.times()
        delays[spec.kind] = peak_location(t, np.abs(out.samples) ** 2) - peak_location(
            t, np.abs(w.samples) ** 2
        )
    assert 0 < delays[AMG] < delays["gaussian"]


def test_energy_never_increases(rng, calibrated):
    channel = Channel.analytic(calibrated)
    for _ in range(10):
        grid = SamplingGrid(n=512, dt=0.4e-6, t_start=-102.4e-6)
        w = Waveform(grid, rng.standard_normal(512) + 1j * rng.standard_normal(512))
        out_energy = idft(propagate_spectrum(dft(w), channel)).energy()
        assert out_energy <= w.energy() * (1 + 1e-12)


@pytest.mark.filterwarnings("ignore::slowlight.EdgeEnergyWarning")
def test_pipeline_linearity(gauss_spec, gauss_grid, calibrated):
    # the broadband noise term legitimately reaches the window edges
    channel = Channel.analytic(calibrated)
    w1 = synth(gauss_spec, gauss_grid)
    rng = np.random.default_rng(3)
    w2 = Waveform(gauss_grid, rng.standard_normal(gauss_grid.n))
    a, b = 0.3 + 1.1j, -2.5
    combined = propagate_waveform(
        Waveform(gauss_grid, a * w1.samples + b * w2.samples), channel
    )
    separate = (
        a * propagate_waveform(w1, channel).samples
        + b * propagate_waveform(w2, channel).samples
    )
    np.testing.assert_allclose(
        combined.samples, separate, rtol=0, atol=1e-12 * np.max(np.abs(separate))
    )


def test_measured_amplitude_uses_square_root(calibrated):
    deltas_tab = np.linspace(-2e6, 2e6, 101)
    table = MeasuredTransmission(
        deltas_tab,
        np.asarray(calibrated.scale * np.exp(-2 * deltas_tab**2 * calibrated.z
                                             / (deltas_tab**2 + calibrated.gamma_eit**2))),
        extrapolation_value=0.10,
    )
    channel = Channel.hybrid(table, calibrated)
    deltas = np.linspace(-1.5e6, 1.5e6, 333)
    response = np.asarray(field_response(channel, deltas))
    np.testing.assert_allclose(
        np.abs(response), np.sqrt(np.asarray(transmission_lookup(table, deltas))), rtol=1e-12
    )


def test_sideband_band_delays_match_group_delay(amg_spec, amg_grid, calibrated):
    # per-band peak delay against the band-extracted input reproduces the
    # analytic group delay at the band center to within one time bin
    channel = Channel.analytic(calibrated)
    s_in = dft(synth(amg_spec, amg_grid))
    s_out = propagate_spectrum(s_in, channel)
    t = amg_grid.times()
    half = MOD_FREQ / 2.0
    for center, (lo, hi) in {
        0.0: (-half, half),
        +MOD_FREQ: (MOD_FREQ - half, MOD_FREQ + half),
        -MOD_FREQ: (-MOD_FREQ - half, -MOD_FREQ + half),
    }.items():
        w_in = idft(band_extract(s_in, lo, hi))
        w_out = idft(band_extract(s_out, lo, hi))
        measured = peak_location(t, np.abs(w_out.samples) ** 2) - peak_location(
            t, np.abs(w_in.samples) ** 2
        )
        assert abs(measured - float(group_delay(calibrated, center))) < amg_grid.dt


def test_wrap_warning_on_edge_energy(calibrated):
    # park the pulse near the window edge so the filtered output leaks around
    spec = PulseSpec(AMG, 2e-6, mod_depth=1.0, mod_freq=MOD_FREQ)
    grid = default_grid(spec)
    late = PulseSpec(AMG, 2e-6, mod_depth=1.0, mod_freq=MOD_FREQ,
                     center=grid.t_start + grid.window - 2.5e-6)
    w = synth(late, grid)
    with pytest.warns(EdgeEnergyWarning):
        propagate_waveform(w, Channel.analytic(calibrated))


def test_channel_type_validation(calibrated):
    with pytest.raises(ValidationError):
        Channel(amplitude_source="not a medium", phase_source=None)
    with pytest.raises(ValidationError):
        Channel(amplitude_source=calibrated, phase_source=3.14)
