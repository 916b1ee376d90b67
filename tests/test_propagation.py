"""Channel application: spectral filtering, delays, energy, wrap guard."""

import dataclasses
import math

import numpy as np
import pytest

from slowlight import (
    AMG,
    GAUSSIAN,
    Channel,
    EitMedium,
    MeasuredTransmission,
    NumericError,
    PulseSpec,
    SamplingGrid,
    Spectrum,
    ValidationError,
    Waveform,
    amplitude_response,
    band_extract,
    default_grid,
    dft,
    field_response,
    group_delay,
    idft,
    peak_location,
    phase_response,
    propagate,
    propagate_spectrum,
    synth,
    transmission_lookup,
)

from slowlight.errors import edge_energy_fraction
from slowlight.io import read_transmission_csv, write_transmission_csv
from slowlight.scenario import load_scenario

from conftest import MOD_FREQ


def test_identity_channel_is_binwise_identity(gauss_spec, gauss_grid):
    channel = Channel.analytic(EitMedium(gamma_eit=1e5, z=0.0, scale=1.0))
    s = dft(synth(gauss_spec, gauss_grid))
    out = propagate_spectrum(s, channel)
    np.testing.assert_allclose(out.samples, s.samples, rtol=1e-15, atol=0)


def test_identity_channel_waveform(gauss_spec, gauss_grid):
    channel = Channel.analytic(EitMedium(gamma_eit=1e5, z=0.0, scale=1.0))
    w = synth(gauss_spec, gauss_grid)
    out = propagate(w, channel)[2]
    np.testing.assert_allclose(out.samples, w.samples, rtol=0, atol=1e-12)


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
    out = propagate(w, Channel.analytic(medium))[2]
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
        out = propagate(w, channel)[2]
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


def test_pipeline_linearity(gauss_spec, gauss_grid, calibrated):
    # the broadband noise term fills the band up to the Nyquist edges, which
    # propagate's guard rejects, so the linear map is taken without it
    channel = Channel.analytic(calibrated)

    def apply(w):
        return idft(propagate_spectrum(dft(w), channel))

    w1 = synth(gauss_spec, gauss_grid)
    rng = np.random.default_rng(3)
    w2 = Waveform(gauss_grid, rng.standard_normal(gauss_grid.n))
    a, b = 0.3 + 1.1j, -2.5
    combined = apply(Waveform(gauss_grid, a * w1.samples + b * w2.samples))
    separate = a * apply(w1).samples + b * apply(w2).samples
    np.testing.assert_allclose(
        combined.samples, separate, rtol=0, atol=1e-12 * np.max(np.abs(separate))
    )


def test_measured_amplitude_uses_square_root(calibrated):
    deltas_tab = np.linspace(-2e6, 2e6, 101)
    table = MeasuredTransmission(
        deltas_tab,
        np.asarray(calibrated.scale * np.exp(-2 * deltas_tab**2 * calibrated.z
                                             / (deltas_tab**2 + calibrated.gamma_eit**2))),
    )
    channel = Channel(calibrated, table)
    deltas = np.linspace(-1.5e6, 1.5e6, 333)
    response = np.asarray(field_response(channel, deltas))
    np.testing.assert_allclose(
        np.abs(response), np.sqrt(np.asarray(transmission_lookup(table, deltas))), rtol=1e-12
    )


def _bytes(x) -> bytes:
    return np.asarray(x).tobytes()


def test_channel_response_bits(calibrated, tmp_path):
    # the analytic and the hybrid (table) channel, pinned bit for bit to the
    # medium's and the table's own functions, inside and outside the table
    m = calibrated
    d = SamplingGrid(n=512, dt=0.2e-6, t_start=-51.2e-6).detunings()
    expected = amplitude_response(m, d) * np.exp(-1j * phase_response(m, d))
    assert _bytes(field_response(Channel(m), d)) == _bytes(expected)

    built = MeasuredTransmission(
        np.linspace(-1e6, 1e6, 41), np.linspace(0.15, 0.55, 41) ** 2
    )
    table_csv = tmp_path / "t.csv"
    write_transmission_csv(table_csv, built)
    for table in (built, read_transmission_csv(table_csv)):
        expected = np.sqrt(transmission_lookup(table, d)) * np.exp(-1j * phase_response(m, d))
        assert _bytes(field_response(Channel(m, table), d)) == _bytes(expected)
        t = table.transmissions
        outside = np.abs(d) > 1e6
        assert outside.sum() > 100
        assert np.all(transmission_lookup(table, d[outside]) == 0.5 * float(t[0] + t[-1]))


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


def test_wrap_guard_on_edge_energy(calibrated):
    # a pulse parked near the window edge: synth rejects its spec, and the
    # same field built directly is rejected by propagate's first guard
    spec = PulseSpec(AMG, 2e-6, mod_depth=1.0, mod_freq=MOD_FREQ)
    grid = default_grid(spec)
    center = grid.t_start + grid.window - 2.5e-6
    with pytest.raises(ValidationError, match="does not fit .* of the pulse energy lies in "
                                              "the outer 5% of the window"):
        synth(dataclasses.replace(spec, center=center), grid)
    tau = grid.times() - center
    field = (np.exp(-math.log(2.0) * tau**2 / (2 * (2e-6) ** 2))
             * (1.0 + np.cos(2 * math.pi * MOD_FREQ * tau)))
    with pytest.raises(NumericError, match="of the input waveform energy lies in the outer 5% "
                                           "of the window"):
        propagate(Waveform(grid, field), Channel.analytic(calibrated))


def test_pulse_cut_by_its_window_is_blamed_on_the_window(calibrated):
    # synth rejects this spec; built directly, the field is cut by its window
    # edge, and propagate says so before its spectrum is taken
    grid = SamplingGrid(n=256, dt=0.5e-6, t_start=-64e-6)
    field = np.exp(-math.log(2.0) * (grid.times() - 60e-6) ** 2 / (2 * 6.5e-6**2))
    with pytest.raises(NumericError, match=r"^3.11e-01 of the input waveform energy lies in the "
                                           "outer 5% of the window"):
        propagate(Waveform(grid, field), Channel(calibrated))


def test_edge_energy_fraction():
    assert edge_energy_fraction("x", np.zeros(64)) == 0.0
    assert edge_energy_fraction("x", np.zeros(64, dtype=complex)) == 0.0
    # 64 samples: the outer 5% is ceil(1.6) = 2 samples at each end
    x = np.zeros(64, dtype=complex)
    x[[0, 1, 62, 63]] = 1j
    x[2:62] = 1.0
    assert edge_energy_fraction("x", x) == pytest.approx(4 / 64, rel=1e-15)
    assert edge_energy_fraction("x", np.ones(8)) == 0.25  # one sample at each end
    # an energy sum that overflows has no share: the measure names the array
    with pytest.raises(NumericError, match="the x energy sum overflowed float64"):
        edge_energy_fraction("x", np.full(64, 1e200))


def test_delayed_pulse_wrapped_in_time_only():
    # the pulse sits 36 us before the window's end, and the medium delays it
    # by 11.9 us: both spectra are clean, only the output waveform wraps
    spec = PulseSpec(GAUSSIAN, 6.5e-6)
    grid = default_grid(spec)
    late = PulseSpec(GAUSSIAN, 6.5e-6, center=grid.t_start + grid.window - 36e-6)
    w = synth(late, grid)
    medium = EitMedium(268.2e3, 20.0)
    assert float(group_delay(medium, 0.0)) == pytest.approx(11.9e-6, rel=0.01)
    s_in = dft(w)
    s_out = propagate_spectrum(s_in, Channel(medium))
    assert edge_energy_fraction("input spectrum", s_in.samples) < 1e-6
    assert edge_energy_fraction("output spectrum", s_out.samples) < 1e-6
    assert edge_energy_fraction("output waveform", idft(s_out).samples) > 1e-3
    with pytest.raises(NumericError, match="of the output waveform energy lies in the outer 5% "
                                           "of the window"):
        propagate(w, Channel(medium))


def test_output_spectrum_at_the_nyquist_edge(gauss_spec, gauss_grid, calibrated):
    # a table that blocks the pulse's band and passes only the lattice edges
    d = gauss_grid.detunings()
    half = d[-1] / 2.0
    table = MeasuredTransmission([d[0], -half, half, d[-1]], [1.0, 0.0, 0.0, 1.0])
    with pytest.raises(NumericError, match="of the output spectrum energy lies in the outer 5% "
                                           "of the bins, at the Nyquist frequency"):
        propagate(synth(gauss_spec, gauss_grid), Channel(calibrated, table))



def test_channel_type_validation(calibrated):
    with pytest.raises(ValidationError, match="medium"):
        Channel("not a medium")
    with pytest.raises(ValidationError, match="table"):
        Channel(calibrated, 3.14)


def _fig2a():
    sc = load_scenario("fig2a")
    return synth(sc.pulse, sc.grid), sc.channel


def test_a_nan_sample_never_reaches_propagate():
    w, channel = _fig2a()
    samples = w.samples.copy()
    i = w.grid.n // 2
    samples[i] = math.nan
    with pytest.raises(ValidationError, match=f"sample must be finite, got .* at index {i}"):
        propagate(Waveform(w.grid, samples), channel)


def test_overflowing_spectrum_is_numeric_error():
    # finite samples whose energy overflows: the first guard, on the input
    # waveform, names the overflow, and numpy's fft and multiply warnings
    # stay silent
    w, channel = _fig2a()
    huge = Waveform(w.grid, w.samples * 1e308)
    with pytest.raises(NumericError, match="the input waveform energy sum overflowed"):
        propagate(huge, channel)


@pytest.mark.parametrize(
    "scale,label", [(1e155, "input waveform"), (1e153, "input spectrum")]
)
def test_energy_sum_overflow_with_finite_edges_is_numeric_error(scale, label):
    # finite samples whose sum |x|^2 overflows while the edge sums do not:
    # their edge fraction, finite / inf, would read 0 and pass the edge test.
    # By Parseval the spectrum's sum is n dt^2 = 512 times the waveform's
    # on this grid, so at 1e153 only the spectrum's overflows.  With |H| <= 1
    # neither output sum exceeds its input's, so they cannot overflow first.
    grid = SamplingGrid(n=512, dt=1.0, t_start=-256.0)
    field = np.exp(-math.log(2.0) * grid.times() ** 2 / (2 * 16.0**2))  # t0 = 16 s
    with pytest.raises(NumericError, match=f"the {label} energy sum overflowed"):
        propagate(Waveform(grid, field * scale), _fig2a()[1])
