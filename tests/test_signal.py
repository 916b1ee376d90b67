"""Pulse synthesis, grids, and intensity/amplitude conversion."""

import math
import tracemalloc

import numpy as np
import pytest
from scipy.integrate import quad

from slowlight import (
    AMG,
    GAUSSIAN,
    IntensityTrace,
    PulseSpec,
    SamplingGrid,
    ValidationError,
    Waveform,
    amplitude_from_intensity,
    default_grid,
    dft,
    fwhm,
    gaussian_spectral_fwhm,
    intensity_of,
    intensity_spectrum,
    peak_location,
    synth,
)
from slowlight.scenario import pulse_grid
from slowlight.signal import MAX_GRID_N

LN2 = math.log(2.0)

from conftest import MOD_FREQ, T0


@pytest.mark.parametrize("n", [7, 12, 100, 0, -8])
def test_grid_rejects_bad_sizes(n):
    with pytest.raises(ValidationError):
        SamplingGrid(n=n, dt=1e-6)


def test_grid_size_cap():
    assert SamplingGrid(n=MAX_GRID_N, dt=1e-9).n == 2**22
    with pytest.raises(ValidationError, match=f"grid size {2 * MAX_GRID_N} exceeds the cap of {MAX_GRID_N}"):
        SamplingGrid(n=2 * MAX_GRID_N, dt=1e-9)


@pytest.mark.parametrize("make, n", [
    (lambda: default_grid(PulseSpec(AMG, 1e-3, 1.0, 1e9)), 2**30),
    (lambda: pulse_grid(PulseSpec(GAUSSIAN, 1e-6), 2**40, 1e-3), 2**40),
], ids=["default_grid", "pulse_grid"])
def test_oversized_grid_is_rejected_before_allocating(make, n):
    tracemalloc.start()
    try:
        with pytest.raises(ValidationError, match=f"grid size {n} exceeds the cap of {MAX_GRID_N}"):
            make()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_default_grid_non_finite_sample_count_is_validation_error():
    # 2*8*f_top*window overflows to inf before math.ceil could see it
    spec = PulseSpec(AMG, 1e300, 1.0, 1e297)
    with pytest.raises(ValidationError, match=f"grid sample count inf is not finite; the cap is {MAX_GRID_N}"):
        default_grid(spec)


def test_grid_rejects_bad_spacing():
    with pytest.raises(ValidationError):
        SamplingGrid(n=16, dt=0.0)


@pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan])
@pytest.mark.parametrize("name", ["dt", "t_start"])
def test_grid_rejects_non_finite(name, value):
    with pytest.raises(ValidationError, match=f"{name} must be finite"):
        SamplingGrid(**{"n": 16, "dt": 1e-6, "t_start": 0.0, name: value})


def test_grid_conjugate_lattice():
    grid = SamplingGrid(n=64, dt=1e-6, t_start=-32e-6)
    assert grid.df == pytest.approx(1.0 / (64 * 1e-6), rel=1e-15)
    deltas = grid.detunings()
    assert deltas[32] == 0.0
    assert deltas[0] == -grid.nyquist
    np.testing.assert_allclose(np.diff(deltas), grid.df, rtol=1e-12)


def test_default_grid_satisfies_design_rules(gauss_spec, amg_spec):
    for spec in (gauss_spec, amg_spec):
        grid = default_grid(spec)
        spectral = gaussian_spectral_fwhm(spec.t0)
        top = spectral + (spec.mod_freq if spec.kind == AMG else 0.0)
        assert grid.window >= 16 * spec.t0
        assert grid.df <= spectral / 8.0 * (1 + 1e-12)
        assert grid.nyquist >= 8.0 * top
        assert grid.n & (grid.n - 1) == 0


def test_gaussian_peak_and_half_points():
    # grid chosen so that center and center +- t0 are exact samples
    spec = PulseSpec(GAUSSIAN, T0, center=0.0)
    grid = SamplingGrid(n=256, dt=T0 / 8.0, t_start=-16.0 * T0)
    w = synth(spec, grid)
    intensity = intensity_of(w).samples
    assert intensity[128] == 1.0
    assert intensity[128 + 8] == pytest.approx(0.5, rel=1e-12)
    assert intensity[128 - 8] == pytest.approx(0.5, rel=1e-12)
    assert np.all(w.samples.real >= 0)
    assert np.all(w.samples.imag == 0)


def test_gaussian_matches_printed_intensity_formula():
    spec = PulseSpec(GAUSSIAN, T0, center=1.7e-6)
    grid = default_grid(spec)
    w = synth(spec, grid)
    tau = grid.times() - spec.center
    np.testing.assert_allclose(
        intensity_of(w).samples, np.exp(-LN2 * tau**2 / T0**2), rtol=1e-12, atol=0
    )


def test_gaussian_spectral_fwhm_numeric(gauss_spec, gauss_grid):
    # oracle: numeric DFT of the sampled pulse, measured with the fwhm utility
    w = synth(gauss_spec, gauss_grid)
    s = dft(w)
    measured = fwhm(s.detunings(), intensity_spectrum(s))
    expected = gaussian_spectral_fwhm(T0)
    assert expected == pytest.approx(33.94e3, abs=10.0)
    assert abs(measured - expected) < gauss_grid.df


def test_amg_center_value_and_grid_formula(amg_spec):
    grid = default_grid(amg_spec)
    w = synth(amg_spec, grid)
    intensity = intensity_of(w).samples
    # cos = 1 at the center sample: I = (1 + A)^2
    assert intensity[grid.n // 2] == pytest.approx(4.0, rel=1e-12)
    # oracle: the printed formula evaluated on the grid
    tau = grid.times()
    expected = np.exp(-LN2 * tau**2 / T0**2) * (
        1.0 + amg_spec.mod_depth * np.cos(2 * math.pi * MOD_FREQ * tau)
    ) ** 2
    np.testing.assert_allclose(intensity, expected, rtol=1e-9, atol=1e-15)


def test_amg_intensity_zeros_at_half_modulation_periods(amg_spec):
    # zeros of 1 + cos at center +- (2k+1)/(2 mod_freq); put them on the grid
    dt = 1.0 / (32.0 * MOD_FREQ)
    grid = SamplingGrid(n=2048, dt=dt, t_start=-1024 * dt)
    w = synth(amg_spec, grid)
    intensity = intensity_of(w).samples
    for k in (1, 3, 5):
        idx = 1024 + k * 16  # k/(2 mod_freq) in samples
        assert intensity[idx] < 1e-25
        assert intensity[1024 - k * 16] < 1e-25


def test_amg_zero_depth_reduces_to_gaussian():
    spec_amg = PulseSpec(AMG, T0, mod_depth=0.0, mod_freq=MOD_FREQ)
    spec_gauss = PulseSpec(GAUSSIAN, T0)
    grid = default_grid(spec_amg)
    np.testing.assert_array_equal(
        synth(spec_amg, grid).samples, synth(spec_gauss, grid).samples
    )


def test_overmodulation_rejected():
    with pytest.raises(ValidationError):
        PulseSpec(AMG, T0, mod_depth=1.5, mod_freq=MOD_FREQ)
    with pytest.raises(ValidationError):
        PulseSpec(AMG, T0, mod_depth=-0.1, mod_freq=MOD_FREQ)


def test_amg_needs_positive_mod_freq():
    with pytest.raises(ValidationError):
        PulseSpec(AMG, T0, mod_depth=0.5, mod_freq=0.0)


@pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan])
@pytest.mark.parametrize("name", ["t0", "mod_depth", "mod_freq", "center"])
def test_pulse_spec_rejects_non_finite(name, value):
    fields = {"t0": T0, "mod_depth": 0.5, "mod_freq": MOD_FREQ, "center": 0.0, name: value}
    with pytest.raises(ValidationError, match=f"{name} must be finite"):
        PulseSpec(AMG, **fields)


def test_synth_rejects_short_window(gauss_spec, amg_spec):
    grid = SamplingGrid(n=64, dt=T0 / 10, t_start=-3.2 * T0)  # window 6.4 t0
    with pytest.raises(ValidationError):
        synth(gauss_spec, grid)
    with pytest.raises(ValidationError):
        synth(amg_spec, grid)


@pytest.mark.parametrize("depth,mod_freq", [(1.0, 120e3), (0.8, 90e3), (1.0, MOD_FREQ)])
def test_amg_energy_ratio(depth, mod_freq):
    # energy of the AMG pulse relative to the plain Gaussian:
    # 1 + A^2/2 plus overlap terms 2A r(f) + (A^2/2) r(2f), r(f) = exp(-pi^2 f^2 / alpha)
    alpha = LN2 / T0**2
    overlap = lambda f: math.exp(-math.pi**2 * f**2 / alpha)
    expected_ratio = (
        1.0 + depth**2 / 2.0 + 2.0 * depth * overlap(mod_freq)
        + depth**2 / 2.0 * overlap(2.0 * mod_freq)
    )

    spec = PulseSpec(AMG, T0, mod_depth=depth, mod_freq=mod_freq)
    grid = default_grid(spec)
    gauss_energy = synth(PulseSpec(GAUSSIAN, T0), grid).energy()
    amg_energy = synth(spec, grid).energy()
    assert amg_energy / gauss_energy == pytest.approx(expected_ratio, rel=1e-9)

    # independent quadrature oracle for the closed form itself
    numeric, _ = quad(
        lambda t: math.exp(-alpha * t**2)
        * (1.0 + depth * math.cos(2 * math.pi * mod_freq * t)) ** 2,
        grid.t_start,
        grid.t_start + grid.window,
        limit=5000,
        epsabs=0.0,
        epsrel=1e-12,
    )
    assert numeric / gauss_energy == pytest.approx(expected_ratio, rel=1e-9)


def test_synth_even_about_center(gauss_spec, amg_spec):
    for spec in (gauss_spec, amg_spec):
        grid = default_grid(spec)
        samples = synth(spec, grid).samples
        k = np.arange(1, grid.n // 2)
        np.testing.assert_allclose(
            samples[grid.n // 2 - k], samples[grid.n // 2 + k], rtol=1e-9, atol=1e-300
        )


def test_doubling_resolution_keeps_physical_metrics(amg_spec, calibrated):
    from slowlight import Channel, measure_metrics, propagate

    base = default_grid(amg_spec)
    fine = SamplingGrid(n=2 * base.n, dt=base.dt / 2.0, t_start=base.t_start)
    w1, w2 = synth(amg_spec, base), synth(amg_spec, fine)
    assert w1.energy() == pytest.approx(w2.energy(), rel=1e-9)
    i1, i2 = intensity_of(w1).samples, intensity_of(w2).samples
    f1 = fwhm(base.times(), i1)
    f2 = fwhm(fine.times(), i2)
    assert abs(f1 - f2) < base.dt
    p1 = peak_location(base.times(), i1)
    p2 = peak_location(fine.times(), i2)
    assert abs(p1 - p2) < base.dt / 10.0
    channel = Channel.analytic(calibrated)
    d1 = measure_metrics(propagate(w1, channel)[2], w1).delay
    d2 = measure_metrics(propagate(w2, channel)[2], w2).delay
    assert abs(d1 - d2) < base.dt


def test_intensity_amplitude_round_trip(rng):
    grid = SamplingGrid(n=64, dt=1e-6, t_start=0.0)
    field = rng.uniform(0.0, 2.0, 64)
    w = Waveform(grid, field)
    back = amplitude_from_intensity(intensity_of(w))
    np.testing.assert_allclose(back.samples.real, field, rtol=1e-12, atol=0)
    # and the other direction
    trace = IntensityTrace(grid, field**2)
    np.testing.assert_allclose(
        intensity_of(amplitude_from_intensity(trace)).samples, field**2, rtol=1e-12
    )


def test_intensity_trace_rejects_negative():
    grid = SamplingGrid(n=8, dt=1e-6)
    with pytest.raises(ValidationError):
        IntensityTrace(grid, np.array([1.0, -0.1, 0, 0, 0, 0, 0, 0]))


def test_amplitude_from_intensity_keeps_zeros():
    grid = SamplingGrid(n=8, dt=1e-6)
    trace = IntensityTrace(grid, np.array([0.0, 1.0, 4.0, 0.0, 9.0, 0.0, 1.0, 0.0]))
    w = amplitude_from_intensity(trace)
    np.testing.assert_array_equal(
        w.samples.real, [0.0, 1.0, 2.0, 0.0, 3.0, 0.0, 1.0, 0.0]
    )


def test_waveform_length_mismatch():
    grid = SamplingGrid(n=16, dt=1e-6)
    with pytest.raises(ValidationError):
        Waveform(grid, np.zeros(8))
