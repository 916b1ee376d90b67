"""Compensation, recovery, decomposition, and pulse metrics."""

import math
import re

import numpy as np
import pytest

from slowlight import (
    AMG,
    Channel,
    CompensationConfig,
    EitMedium,
    NumericError,
    PulseSpec,
    SamplingGrid,
    Spectrum,
    ValidationError,
    Waveform,
    band_extract,
    compensate_spectrum,
    decompose_components,
    default_grid,
    dft,
    group_delay,
    idft,
    intensity_spectrum,
    intensity_transmission,
    measure_metrics,
    peak_location,
    propagate_spectrum,
    recover_waveform,
    synth,
)

from slowlight.analysis import _shift_waveform, check_band_plan

from conftest import MOD_FREQ, T0


def _propagated(spec, medium):
    grid = default_grid(spec)
    w = synth(spec, grid)
    s_in = dft(w)
    s_out = propagate_spectrum(s_in, Channel.analytic(medium))
    transmission = np.asarray(intensity_transmission(medium, grid.detunings()))
    return grid, w, s_in, s_out, transmission


def _unit_spectrum(n=8):
    return Spectrum(SamplingGrid(n=n, dt=1e-6), np.ones(n))


def test_compensation_unit_transmission_is_identity(rng):
    cfg = CompensationConfig(floor=1e-3)
    s = Spectrum(SamplingGrid(n=128, dt=1e-6), rng.normal(size=128) + 1j * rng.normal(size=128))
    compensated, _, gain = compensate_spectrum(s, np.ones(128), cfg)
    np.testing.assert_array_equal(compensated, intensity_spectrum(s))
    np.testing.assert_array_equal(gain, 1.0)


def test_compensation_clamps_at_floor():
    cfg = CompensationConfig(floor=0.01)
    transmission = np.array([0.5, 0.01, 1e-9, 1.0, 1.0, 1.0, 1.0, 1.0])
    compensated, _, gain = compensate_spectrum(_unit_spectrum(), transmission, cfg)
    np.testing.assert_allclose(compensated[:3], [2.0, 100.0, 100.0], rtol=1e-15)
    np.testing.assert_array_equal(compensated, gain)


def test_compensation_rejects_bad_transmission():
    cfg = CompensationConfig()
    bad = np.array([0.5, 1.2, 0.3, 0.1, 0.5, 0.5, 0.5, 0.5])
    with pytest.raises(ValidationError, match="transmission must lie in .*, got 1.2 at index 1"):
        compensate_spectrum(_unit_spectrum(), bad, cfg)
    with pytest.raises(ValidationError, match=r"shape \(3,\), expected \(8,\)"):
        compensate_spectrum(_unit_spectrum(), np.array([0.5, 0.3, 0.1]), cfg)


def _parent_compensation(s_out, transmission, floor):
    """The three arrays as compensate_intensity_spectrum, recover_waveform and
    export_gain_spectrum computed them, each from its own clamp."""
    compensated = np.abs(s_out.samples) ** 2 / np.maximum(transmission, floor)
    divisor = np.sqrt(np.maximum(transmission, floor))
    recovered = idft(Spectrum(s_out.grid, s_out.samples / divisor))
    return compensated, recovered.samples, 1.0 / np.maximum(transmission, floor)


@pytest.mark.parametrize("floor_factor", [0.5, 4.0])
def test_compensate_spectrum_has_the_bits_of_the_three_functions(calibrated, amg_spec,
                                                                  floor_factor):
    # floors below and above the least transmission: no bin clamped, some clamped
    grid, w, s_in, s_out, transmission = _propagated(amg_spec, calibrated)
    cfg = CompensationConfig(floor=float(transmission.min()) * floor_factor)
    compensated, recovered, gain = compensate_spectrum(s_out, transmission, cfg)
    expected = _parent_compensation(s_out, transmission, cfg.floor)
    got = compensated, recovered.samples, gain
    for a, b in zip(got, expected):
        assert a.tobytes() == b.tobytes()
    assert recover_waveform(s_out, transmission, cfg).samples.tobytes() == expected[1].tobytes()


def test_compensated_spectrum_equals_input_spectrum(calibrated, amg_spec):
    # the algebraic identity |E_out|^2 / |A|^2 = |E_in|^2 when nothing clips
    grid, w, s_in, s_out, transmission = _propagated(amg_spec, calibrated)
    cfg = CompensationConfig(floor=float(transmission.min()) / 2.0)
    compensated = compensate_spectrum(s_out, transmission, cfg)[0]
    reference = intensity_spectrum(s_in)
    np.testing.assert_allclose(compensated, reference, rtol=1e-9, atol=0)


def test_recover_unit_transmission_returns_idft(calibrated, amg_spec):
    grid, w, s_in, s_out, _ = _propagated(amg_spec, calibrated)
    cfg = CompensationConfig(floor=1e-3)
    recovered = recover_waveform(s_out, np.ones(grid.n), cfg)
    np.testing.assert_array_equal(recovered.samples, idft(s_out).samples)


def test_recover_intensity_spectrum_consistency(calibrated, amg_spec):
    grid, w, s_in, s_out, transmission = _propagated(amg_spec, calibrated)
    cfg = CompensationConfig(floor=1e-3)
    recovered = recover_waveform(s_out, transmission, cfg)
    lhs = intensity_spectrum(dft(recovered))
    rhs = compensate_spectrum(s_out, transmission, cfg)[0]
    np.testing.assert_allclose(lhs, rhs, rtol=1e-9, atol=1e-9 * rhs.max())


def test_recover_preserves_gaussian_delay(calibrated, gauss_spec):
    grid, w, s_in, s_out, transmission = _propagated(gauss_spec, calibrated)
    cfg = CompensationConfig(floor=1e-3)
    out = idft(s_out)
    recovered = recover_waveform(s_out, transmission, cfg)
    m_out = measure_metrics(out, w)
    m_rec = measure_metrics(recovered, w)
    assert abs(m_rec.delay - m_out.delay) < 0.05 * m_out.delay


def test_recover_reduces_amg_delay(calibrated, amg_spec):
    grid, w, s_in, s_out, transmission = _propagated(amg_spec, calibrated)
    cfg = CompensationConfig(floor=1e-3)
    out_delay = measure_metrics(idft(s_out), w).delay
    rec_delay = measure_metrics(recover_waveform(s_out, transmission, cfg), w).delay
    assert rec_delay < out_delay


def test_recovery_restores_energy(calibrated, amg_spec):
    grid, w, s_in, s_out, transmission = _propagated(amg_spec, calibrated)
    cfg = CompensationConfig(floor=float(transmission.min()) / 2.0)
    recovered = recover_waveform(s_out, transmission, cfg)
    assert measure_metrics(recovered, w).loss == pytest.approx(0.0, abs=1e-9)


def test_recovery_preserves_propagated_phase(calibrated, amg_spec):
    # with the exact model and an unclipped floor, recovery returns the input
    # spectrum re-phased by the channel dispersion: idft(E_in exp(-i Phi))
    from slowlight import phase_response

    grid, w, s_in, s_out, transmission = _propagated(amg_spec, calibrated)
    cfg = CompensationConfig(floor=float(transmission.min()) / 2.0)
    recovered = recover_waveform(s_out, transmission, cfg)
    rephased = idft(
        Spectrum(
            grid,
            s_in.samples
            * np.exp(-1j * np.asarray(phase_response(calibrated, grid.detunings()))),
        )
    )
    np.testing.assert_allclose(
        recovered.samples,
        rephased.samples,
        rtol=0,
        atol=1e-9 * np.max(np.abs(rephased.samples)),
    )
    # the dispersion is nonlinear, so the recovered pulse is not the input
    assert measure_metrics(recovered, w).nrmse > 1e-4


def test_decompose_identity_channel(amg_spec):
    identity = EitMedium(gamma_eit=1e5, z=0.0, scale=1.0)
    grid, w, s_in, s_out, _ = _propagated(amg_spec, identity)
    parts = decompose_components(s_out, s_in, MOD_FREQ)
    for delay in (parts.carrier_delay, parts.left_delay, parts.right_delay):
        assert abs(delay) < grid.dt / 10.0


def test_decompose_signs_and_magnitudes(calibrated, amg_spec):
    grid, w, s_in, s_out, _ = _propagated(amg_spec, calibrated)
    parts = decompose_components(s_out, s_in, MOD_FREQ)
    tau0 = float(group_delay(calibrated, 0.0))
    tau_side = float(group_delay(calibrated, MOD_FREQ))
    assert parts.carrier_delay == pytest.approx(tau0, rel=0.03)
    assert parts.left_delay < 0 and parts.right_delay < 0
    assert parts.left_delay == pytest.approx(tau_side, rel=0.05)
    assert parts.right_delay == pytest.approx(tau_side, rel=0.05)


def test_decompose_symmetric_sidebands(calibrated, amg_spec):
    grid, w, s_in, s_out, _ = _propagated(amg_spec, calibrated)
    parts = decompose_components(s_out, s_in, MOD_FREQ)
    assert abs(parts.left_delay - parts.right_delay) < 1e-6


def test_decompose_reference_is_input_carrier(calibrated, amg_spec):
    grid, w, s_in, s_out, _ = _propagated(amg_spec, calibrated)
    parts = decompose_components(s_out, s_in, MOD_FREQ)
    # the reference peaks where the input pulse does
    t = grid.times()
    ref_peak = peak_location(t, np.abs(parts.reference.samples) ** 2)
    in_peak = peak_location(t, np.abs(w.samples) ** 2)
    assert abs(ref_peak - in_peak) < grid.dt / 10.0


def test_decompose_rejects_plain_gaussian(calibrated, gauss_spec):
    grid, w, s_in, s_out, _ = _propagated(gauss_spec, calibrated)
    with pytest.raises(ValidationError):
        decompose_components(s_out, s_in, MOD_FREQ)


@pytest.mark.parametrize("factor,error,message", [
    (0.0, ValidationError, "left sideband of the input spectrum carries only 0.00e+00 of the "
                           "total energy"),
    (1e200, NumericError, "the input spectrum energy sum overflowed float64"),
], ids=["zero", "overflowing"])
def test_decompose_rejects_a_zero_or_overflowing_spectrum(calibrated, amg_spec, factor, error,
                                                          message):
    # an all-zero spectrum has no sideband share; an overflowing one has no
    # share at all, and its energy measure names the spectrum
    grid, w, s_in, s_out, _ = _propagated(amg_spec, calibrated)
    with pytest.raises(error, match=re.escape(message)):
        decompose_components(s_out, Spectrum(grid, s_in.samples * factor), MOD_FREQ)


def test_decompose_rejects_mismatched_grids(calibrated, amg_spec):
    grid, w, s_in, s_out, _ = _propagated(amg_spec, calibrated)
    other = SamplingGrid(n=grid.n, dt=grid.dt, t_start=grid.t_start + grid.dt)
    with pytest.raises(ValidationError):
        decompose_components(s_out, Spectrum(other, s_in.samples), MOD_FREQ)


@pytest.mark.parametrize("n", [256, 4096, 65536])
def test_decompose_components_are_idft_of_band_extract_bitwise(calibrated, n):
    rng = np.random.default_rng(n)
    t0 = rng.uniform(2e-6, 10e-6)
    spec = PulseSpec(AMG, t0, mod_depth=rng.uniform(0.5, 1.0),
                     mod_freq=rng.uniform(0.8, 1.6) / t0)
    window = default_grid(spec).window
    grid = SamplingGrid(n, window / n, -window / 2)
    s_in = dft(synth(spec, grid))
    s_out = propagate_spectrum(s_in, Channel(calibrated))
    bands = check_band_plan(grid, spec.mod_freq)
    # the carrier band holds bins on both sides of bin n//2, where idft
    # swaps the halves of the spectrum
    lo, hi = bands["carrier"]
    assert lo <= grid.detunings()[n // 2 - 1] and grid.detunings()[n // 2 + 1] < hi
    parts = decompose_components(s_out, s_in, spec.mod_freq)
    sources = {"reference": (s_in, "carrier"), "carrier": (s_out, "carrier"),
               "left": (s_out, "left"), "right": (s_out, "right")}
    for label, (s, band) in sources.items():
        expected = idft(band_extract(s, *bands[band])).samples
        assert getattr(parts, label).samples.tobytes() == expected.tobytes(), label


@pytest.mark.parametrize("shift", [0.0, -0.0, 0.37e-6, -1.3e-6])
def test_shift_keeps_the_bits_of_the_complex_exp(calibrated, amg_spec, shift):
    # the real input pulse and the complex output, shifted as measure_metrics
    # shifted them with np.exp(-2j pi delta shift)
    grid, w, s_in, s_out, _ = _propagated(amg_spec, calibrated)
    for wave in (w, idft(s_out)):
        s = dft(wave)
        phasor = np.multiply(-1j * 2.0 * math.pi, s.detunings())
        phasor *= shift
        np.exp(phasor, out=phasor)
        expected = idft(Spectrum(grid, np.multiply(s.samples, phasor, out=phasor)))
        assert _shift_waveform(wave, shift).samples.tobytes() == expected.samples.tobytes()


def test_metrics_identity(gauss_spec, gauss_grid):
    w = synth(gauss_spec, gauss_grid)
    m = measure_metrics(w, w)
    assert m.delay == 0.0
    assert m.loss == pytest.approx(0.0, abs=1e-15)
    assert m.nrmse == pytest.approx(0.0, abs=1e-12)
    assert m.fwhm_time == pytest.approx(2 * T0, abs=gauss_grid.dt)


def test_metrics_pure_delay_and_attenuation(gauss_spec, gauss_grid):
    tau = 0.5e-6
    w = synth(gauss_spec, gauss_grid)
    s = dft(w)
    delayed = idft(
        Spectrum(gauss_grid, 0.5 * s.samples * np.exp(-2j * math.pi * s.detunings() * tau))
    )
    m = measure_metrics(delayed, w)
    assert m.delay == pytest.approx(tau, abs=gauss_grid.dt / 50.0)
    assert m.loss == pytest.approx(0.75, rel=1e-9)
    assert m.nrmse < 1e-4


def test_metrics_distortion_ordering(calibrated, gauss_spec, amg_spec):
    g_grid, g_w, _, g_out, _ = _propagated(gauss_spec, calibrated)
    a_grid, a_w, _, a_out, _ = _propagated(amg_spec, calibrated)
    nrmse_gauss = measure_metrics(idft(g_out), g_w).nrmse
    nrmse_amg = measure_metrics(idft(a_out), a_w).nrmse
    assert nrmse_amg > 4.0 * nrmse_gauss


def test_metrics_grid_mismatch(gauss_spec, gauss_grid):
    w = synth(gauss_spec, gauss_grid)
    other = SamplingGrid(n=gauss_grid.n, dt=gauss_grid.dt, t_start=0.0)
    with pytest.raises(ValidationError):
        measure_metrics(w, Waveform(other, w.samples))


def test_metrics_reject_a_reference_with_no_energy_support():
    # one sample holds all the energy: no sample lies within 0.5%-99.5% of it
    samples = np.zeros(64)
    samples[32] = 1.0
    spike = Waveform(SamplingGrid(n=64, dt=1e-7), samples)
    with pytest.raises(NumericError, match="one sample holds 100.00% of the reference energy"):
        measure_metrics(spike, spike)


def _gain(transmission, cfg):
    return compensate_spectrum(_unit_spectrum(), np.resize(transmission, 8), cfg)[2]


def test_gain_trivial_values():
    cfg = CompensationConfig(floor=1e-3)
    np.testing.assert_array_equal(_gain(np.ones(8), cfg), 1.0)
    assert _gain(np.array([0.25]), cfg)[0] == pytest.approx(4.0, rel=1e-15)
    # below the floor the gain saturates at 1/floor
    assert _gain(np.array([1e-9]), cfg)[0] == pytest.approx(1e3, rel=1e-15)


def test_gain_at_sidebands_of_calibrated_window():
    # direct evaluation: 1 / (scale * exp(-2 Z x)), x = d^2/(d^2 + gamma^2)
    medium = EitMedium(gamma_eit=268.2e3, z=0.9083, scale=0.615)
    x = MOD_FREQ**2 / (MOD_FREQ**2 + medium.gamma_eit**2)
    expected = 1.0 / (medium.scale * math.exp(-2.0 * medium.z * x))
    cfg = CompensationConfig(floor=1e-3)
    transmission = np.asarray(intensity_transmission(medium, np.array([-MOD_FREQ, MOD_FREQ])))
    gain = _gain(transmission, cfg)
    np.testing.assert_allclose(gain, expected, rtol=1e-12)
    np.testing.assert_allclose(gain, 7.9264, rtol=1e-4)


def test_recovered_delay_weakly_decreasing_in_depth(calibrated):
    # deeper modulation boosts the advanced sidebands more on recovery;
    # nrmse is compared only against the unmodulated baseline (see notes)
    delays = []
    nrmses = []
    for depth in (0.0, 0.25, 0.5, 0.75, 1.0):
        spec = PulseSpec(AMG, T0, mod_depth=depth, mod_freq=MOD_FREQ)
        grid, w, s_in, s_out, transmission = _propagated(spec, calibrated)
        cfg = CompensationConfig(floor=1e-3)
        m = measure_metrics(recover_waveform(s_out, transmission, cfg), w)
        delays.append(m.delay)
        nrmses.append(m.nrmse)
    slack = 2e-9
    assert all(d2 <= d1 + slack for d1, d2 in zip(delays, delays[1:]))
    assert all(n > nrmses[0] for n in nrmses[1:])


def test_compensation_config_validation():
    with pytest.raises(ValidationError):
        CompensationConfig(floor=0.0)
    with pytest.raises(ValidationError):
        CompensationConfig(floor=1.0)


def test_compensation_rejects_nan_transmission():
    # a NaN fails both (t < 0) and (t > 1), so the range check must test the complement
    cfg = CompensationConfig()
    message = r"per-bin transmission must be finite, got nan at index 0"
    with pytest.raises(ValidationError, match=message):
        compensate_spectrum(_unit_spectrum(), np.array([np.nan] + [0.5] * 7), cfg)
    with pytest.raises(ValidationError, match=message):
        recover_waveform(_unit_spectrum(), np.full(8, np.nan), cfg)


def test_compensation_names_an_overflowing_spectrum():
    # |E|^2 of 1e200 overflows float64: a NumericError, and no numpy warning
    s = Spectrum(SamplingGrid(n=8, dt=1e-6), np.full(8, 1e200))
    with pytest.raises(NumericError, match="output spectrum energy sum overflowed"):
        compensate_spectrum(s, np.ones(8), CompensationConfig())


def test_recovery_names_an_overflowing_waveform(gauss_spec):
    # E / sqrt(1e-300) overflows float64 and the inverse transform turns it
    # into nan: a NumericError, and no numpy warning
    s = dft(synth(gauss_spec))
    s = Spectrum(s.grid, s.samples * 1e300)
    with pytest.raises(NumericError, match="recovered waveform energy sum overflowed"):
        recover_waveform(s, np.zeros(s.grid.n), CompensationConfig(floor=1e-300))


@pytest.mark.parametrize("out_factor,ref_factor,label", [
    (1e200, 1e200, "reference"), (1.0, 1e200, "reference"), (1e200, 1.0, "output"),
])
def test_metrics_name_the_waveform_whose_energy_overflows(gauss_spec, out_factor, ref_factor,
                                                          label):
    # numpy's overflow warnings, errors under Tier-1, stay silent: the
    # NumericError is the only report
    w = synth(gauss_spec)
    message = (f"the {label} waveform energy sum overflowed float64; "
               "the pulse amplitude is too large")
    with pytest.raises(NumericError, match=re.escape(message)):
        measure_metrics(Waveform(w.grid, w.samples * out_factor),
                        Waveform(w.grid, w.samples * ref_factor))
