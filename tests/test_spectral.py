"""DFT conventions, closed-form spectra, band extraction, curve utilities."""

import math

import numpy as np
import pytest

from slowlight import (
    AMG,
    GAUSSIAN,
    NumericError,
    PulseSpec,
    SamplingGrid,
    Spectrum,
    ValidationError,
    Waveform,
    amg_spectrum_closed_form,
    band_extract,
    dft,
    fwhm,
    idft,
    intensity_spectrum,
    peak_location,
    synth,
)

from slowlight.spectral import _idft_bands, _memo_ramps, _ramps, _unit_phasor

from conftest import MOD_DEPTH, MOD_FREQ, T0

LN2 = math.log(2.0)


def _random_waveform(rng, n=256, dt=0.5e-6, t_start=-64e-6, complex_=True):
    grid = SamplingGrid(n=n, dt=dt, t_start=t_start)
    samples = rng.standard_normal(n)
    if complex_:
        samples = samples + 1j * rng.standard_normal(n)
    return Waveform(grid, samples)


def test_dft_zero_waveform():
    grid = SamplingGrid(n=32, dt=1e-6)
    s = dft(Waveform(grid, np.zeros(32)))
    np.testing.assert_array_equal(s.samples, 0.0)


def test_dft_constant_waveform_is_carrier_only():
    grid = SamplingGrid(n=64, dt=1e-6, t_start=-32e-6)
    s = dft(Waveform(grid, np.ones(64)))
    carrier = abs(s.samples[32])
    others = np.abs(np.delete(s.samples, 32))
    assert carrier == pytest.approx(grid.window, rel=1e-12)
    assert np.all(others < 1e-12 * carrier)


def test_round_trip_identity(rng):
    w = _random_waveform(rng)
    back = idft(dft(w))
    np.testing.assert_allclose(back.samples, w.samples, rtol=0, atol=1e-12 * np.max(np.abs(w.samples)))


def test_parseval(rng):
    for _ in range(20):
        w = _random_waveform(rng)
        assert dft(w).energy() == pytest.approx(w.energy(), rel=1e-12)


def test_linearity(rng):
    w1 = _random_waveform(rng)
    w2 = Waveform(w1.grid, rng.standard_normal(w1.grid.n))
    a, b = 1.7 - 0.3j, -0.625
    combined = dft(Waveform(w1.grid, a * w1.samples + b * w2.samples))
    separate = a * dft(w1).samples + b * dft(w2).samples
    np.testing.assert_allclose(combined.samples, separate, rtol=0,
                               atol=1e-12 * np.max(np.abs(separate)))


def test_real_waveform_hermitian_spectrum(rng):
    w = _random_waveform(rng, complex_=False)
    s = dft(w).samples
    n = w.grid.n
    j = np.arange(1, n // 2)
    np.testing.assert_allclose(
        s[n // 2 + j], np.conj(s[n // 2 - j]), rtol=0, atol=1e-12 * np.max(np.abs(s))
    )


def test_single_bin_is_complex_exponential():
    grid = SamplingGrid(n=64, dt=1e-6, t_start=-32e-6)
    k = 40  # detuning bin at (40 - 32) * df
    samples = np.zeros(64, dtype=complex)
    samples[k] = 1.0
    w = idft(Spectrum(grid, samples))
    delta = grid.detunings()[k]
    expected = grid.df * np.exp(2j * math.pi * delta * grid.times())
    np.testing.assert_allclose(w.samples, expected, rtol=0, atol=1e-12 * grid.df)


def test_shift_theorem_integer_bins(rng):
    w = _random_waveform(rng, complex_=False)
    grid = w.grid
    m = 9
    s = dft(w)
    shifted = idft(
        Spectrum(grid, s.samples * np.exp(-2j * math.pi * s.detunings() * m * grid.dt))
    )
    np.testing.assert_allclose(
        shifted.samples, np.roll(w.samples, m), rtol=0, atol=1e-12
    )


def test_shift_theorem_subbin_peak(gauss_spec, gauss_grid):
    tau = 0.5e-6  # not an integer number of samples
    w = synth(gauss_spec, gauss_grid)
    s = dft(w)
    shifted = idft(
        Spectrum(gauss_grid, s.samples * np.exp(-2j * math.pi * s.detunings() * tau))
    )
    t = gauss_grid.times()
    moved = peak_location(t, np.abs(shifted.samples) ** 2) - peak_location(
        t, np.abs(w.samples) ** 2
    )
    assert abs(moved - tau) < gauss_grid.dt / 10.0


def test_gaussian_spectrum_matches_analytic_pair(gauss_spec, gauss_grid):
    w = synth(gauss_spec, gauss_grid)
    s = dft(w)
    numeric = intensity_spectrum(s)
    numeric = numeric / numeric[gauss_grid.n // 2]
    half_width = LN2 / (2.0 * math.pi * T0)
    analytic = np.exp(-LN2 * s.detunings() ** 2 / half_width**2)
    assert np.max(np.abs(numeric - analytic)) < 1e-6


def test_amg_closed_form_matches_numeric_dft(amg_spec, amg_grid):
    w = synth(amg_spec, amg_grid)
    s = dft(w)
    numeric = intensity_spectrum(s)
    numeric = numeric / numeric[amg_grid.n // 2]
    closed = amg_spectrum_closed_form(T0, MOD_DEPTH, MOD_FREQ, s.detunings())
    assert np.max(np.abs(closed - numeric)) < 1e-6


@pytest.mark.parametrize("depth", [1.0, 0.5])
def test_amg_sideband_carrier_ratio(depth):
    # closed form at +-mod_freq is exactly A^2/4 up to far Gaussian tails
    ratio = amg_spectrum_closed_form(T0, depth, MOD_FREQ, np.array([-MOD_FREQ, MOD_FREQ]))
    np.testing.assert_allclose(ratio, depth**2 / 4.0, rtol=1e-9)

    # numeric check on a grid whose lattice contains +-mod_freq
    window = 168.0 / MOD_FREQ
    grid = SamplingGrid(n=4096, dt=window / 4096, t_start=-window / 2)
    spec = PulseSpec(AMG, T0, mod_depth=depth, mod_freq=MOD_FREQ)
    s = dft(synth(spec, grid))
    intensity = intensity_spectrum(s)
    carrier = intensity[grid.n // 2]
    k_side = grid.n // 2 + 168
    assert grid.detunings()[k_side] == pytest.approx(MOD_FREQ, rel=1e-12)
    assert intensity[k_side] / carrier == pytest.approx(depth**2 / 4.0, abs=1e-6)
    assert intensity[grid.n // 2 - 168] / carrier == pytest.approx(depth**2 / 4.0, abs=1e-6)


def test_band_extract_full_range_is_identity(rng):
    w = _random_waveform(rng)
    s = dft(w)
    full = band_extract(s, -2 * s.grid.nyquist, 2 * s.grid.nyquist)
    np.testing.assert_array_equal(full.samples, s.samples)


def test_band_extract_empty_band(rng):
    s = dft(_random_waveform(rng))
    df = s.grid.df
    empty = band_extract(s, 0.25 * df, 0.75 * df)  # between two bins
    np.testing.assert_array_equal(empty.samples, 0.0)


def test_band_extract_bad_bounds(rng):
    s = dft(_random_waveform(rng))
    with pytest.raises(ValidationError):
        band_extract(s, 1e5, 1e5)


def test_band_partition_is_exact(amg_spec, amg_grid):
    s = dft(synth(amg_spec, amg_grid))
    half = MOD_FREQ / 2.0
    nyq = amg_grid.nyquist
    pieces = [
        band_extract(s, -half, half),
        band_extract(s, half, 3 * half),
        band_extract(s, -3 * half, -half),
        band_extract(s, 3 * half, nyq + amg_grid.df),
        band_extract(s, -nyq - amg_grid.df, -3 * half),
    ]
    total = np.sum([p.samples for p in pieces], axis=0)
    np.testing.assert_array_equal(total, s.samples)


def test_carrier_band_of_amg_is_gaussian(amg_spec, amg_grid):
    s = dft(synth(amg_spec, amg_grid))
    carrier = idft(band_extract(s, -MOD_FREQ / 2, MOD_FREQ / 2))
    gauss = synth(PulseSpec(GAUSSIAN, T0), amg_grid)
    a = np.abs(carrier.samples) ** 2
    b = np.abs(gauss.samples) ** 2
    a, b = a / a.max(), b / b.max()
    nrmse = math.sqrt(float(np.mean((a - b) ** 2)))
    assert nrmse < 1e-3


def test_fwhm_triangle_exact():
    x = np.linspace(-2.0, 2.0, 401)
    h = 1.3
    y = np.maximum(0.0, 1.0 - np.abs(x) / h)
    assert fwhm(x, y) == pytest.approx(h, rel=1e-12)


def test_fwhm_sampled_gaussian_intensity(gauss_spec, gauss_grid):
    w = synth(gauss_spec, gauss_grid)
    measured = fwhm(gauss_grid.times(), np.abs(w.samples) ** 2)
    assert abs(measured - 2.0 * T0) < gauss_grid.dt


def test_fwhm_truncated_curve_raises():
    x = np.linspace(0.0, 1.0, 64)
    y = np.exp(-x)  # maximum at the left edge, no left crossing
    with pytest.raises(NumericError):
        fwhm(x, y)


def test_peak_location_spike():
    x = np.linspace(0.0, 10.0, 101)
    y = np.zeros(101)
    y[37] = 5.0
    assert peak_location(x, y) == pytest.approx(x[37], abs=0.0)


def test_peak_location_offset_gaussian(gauss_grid):
    # oracle: the analytic center, placed between samples
    t = gauss_grid.times()
    for frac in (0.0, 0.17, 0.33, 0.45):
        center = frac * gauss_grid.dt
        y = np.exp(-LN2 * (t - center) ** 2 / T0**2)
        assert abs(peak_location(t, y) - center) < gauss_grid.dt / 100.0


def test_peak_location_amg_highest_lobe(amg_spec, amg_grid):
    w = synth(amg_spec, amg_grid)
    loc = peak_location(amg_grid.times(), np.abs(w.samples) ** 2)
    assert abs(loc) < amg_grid.dt / 10.0  # center lobe has intensity 4x envelope


def test_spectrum_length_mismatch():
    grid = SamplingGrid(n=16, dt=1e-6)
    with pytest.raises(ValidationError):
        Spectrum(grid, np.zeros(8, dtype=complex))


def _parent_ramp(grid, sign):
    """The phase ramp of the two-entry memo, one complex exp per direction."""
    if sign < 0:
        return grid.dt * np.exp(-1j * 2.0 * math.pi * grid.detunings() * grid.t_start)
    return np.exp(1j * 2.0 * math.pi * grid.detunings() * grid.t_start)


# The ramps are held in locals, as the memo held them: numpy may compute a
# product with a temporary operand in the other operand order at large n.
def _parent_dft(w):
    """dft before it wrote into one buffer: the shifted FFT held in a local."""
    ramp = _parent_ramp(w.grid, -1)
    raw = np.fft.fftshift(np.fft.fft(w.samples))
    return ramp * raw


def _parent_idft(s):
    """idft before it wrote into one buffer."""
    ramp = _parent_ramp(s.grid, +1)
    return np.fft.ifft(np.fft.ifftshift(s.samples * ramp)) / s.grid.dt


def _memo_grids(rng, n):
    dt = 1e-7
    return [
        SamplingGrid(n, dt, -n * dt / 2),  # centred
        SamplingGrid(n, dt, rng.uniform(-n, n) * dt),  # off-centre
        SamplingGrid(n, dt, 0.0),
        SamplingGrid(n, dt, -0.0),  # equal to the 0.0 grid, but not its ramp
    ]


@pytest.mark.parametrize("n", [2**k for k in range(3, 17)])
def test_memoised_transforms_match_the_inline_ramp_bitwise(rng, n):
    _memo_ramps.cache_clear()
    for grid in _memo_grids(rng, n):  # 0.0 then -0.0: equal grids, a memo miss
        # all -0.0: idft tells the ramps of t_start 0.0 and -0.0 apart on it
        for samples in (rng.standard_normal(n) + 1j * rng.standard_normal(n),
                        -np.zeros(n, dtype=complex)):
            w = Waveform(grid, samples)
            assert dft(w).samples.tobytes() == _parent_dft(w).tobytes()
            s = Spectrum(grid, samples)
            assert idft(s).samples.tobytes() == _parent_idft(s).tobytes()
        for ramp, sign in zip(_ramps(grid), (-1, +1)):
            assert ramp.tobytes() == _parent_ramp(grid, sign).tobytes()


@pytest.mark.parametrize("n", [16384, 65536])
def test_memo_hit_equals_miss_at_large_n(rng, n):
    grid = SamplingGrid(n, 1e-7, -0.37 * n * 1e-7)
    w = Waveform(grid, rng.standard_normal(n) + 1j * rng.standard_normal(n))
    s = Spectrum(grid, rng.standard_normal(n) + 1j * rng.standard_normal(n))
    _memo_ramps.cache_clear()
    misses = dft(w).samples.tobytes(), idft(s).samples.tobytes()
    hits = dft(w).samples.tobytes(), idft(s).samples.tobytes()
    # one entry holds both ramps: the first dft misses, the other three hit
    assert tuple(_memo_ramps.cache_info())[:2] == (3, 1)
    assert misses == hits
    assert misses == (_parent_dft(w).tobytes(), _parent_idft(s).tobytes())


def test_ramp_is_read_only():
    grid = SamplingGrid(64, 1e-7, -3.2e-6)
    for ramp in _ramps(grid):
        assert not ramp.flags.writeable
        with pytest.raises(ValueError):
            ramp[0] = 0.0


def test_one_grid_builds_two_ramps(rng):
    w = _random_waveform(rng)
    _memo_ramps.cache_clear()
    for _ in range(3):
        idft(dft(w))
    # one memo entry, built once, holds the forward and the inverse ramp
    assert tuple(_memo_ramps.cache_info())[:3] == (5, 1, 1)


@pytest.mark.parametrize("measure", [peak_location, fwhm])
def test_peak_measures_reject_non_finite_values(measure):
    with pytest.raises(ValidationError, match="value must be finite, got nan at index 2"):
        measure(np.arange(5.0), [0.0, 1.0, math.nan, 1.0, 0.0])


@pytest.mark.parametrize("measure", [peak_location, fwhm])
def test_peak_measures_reject_non_finite_axis(measure):
    axis = np.arange(5.0)
    axis[3] = math.nan
    with pytest.raises(ValidationError, match="axis must be finite, got nan at index 3"):
        measure(axis, [0.0, 1.0, 2.0, 1.0, 0.0])


@pytest.mark.parametrize("name", ["t0", "mod_freq"])
def test_amg_closed_form_rejects_infinite_parameters(name):
    args = {"t0": T0, "mod_depth": MOD_DEPTH, "mod_freq": MOD_FREQ, name: math.inf}
    with pytest.raises(ValidationError, match=f"{name} must be finite, got inf"):
        amg_spectrum_closed_form(delta=0.0, **args)


def test_amg_closed_form_rejects_a_t0_below_the_scale():
    # half_width**2 would overflow a Python float
    with pytest.raises(ValidationError, match=r"t0 must lie in \[1e-18, 1e\+18\], got 1e-300"):
        amg_spectrum_closed_form(1e-300, 1.0, 1e3, [0.0])


@pytest.mark.parametrize("delta, message", [
    ([1e200], r"detuning must lie in \[-1e\+18, 1e\+18\], got 1e\+200 at index 0"),
    ([0.0, math.nan], "detuning must be finite, got nan at index 1"),
])
def test_amg_closed_form_rejects_detunings_by_the_channel_rule(delta, message):
    with pytest.raises(ValidationError, match=message):
        amg_spectrum_closed_form(1.0, 1.0, 1e3, delta)


def test_unit_phasor_equals_the_complex_exp_bitwise(rng):
    # a platform check: np.cos and np.sin written into one buffer give the
    # bits np.exp gives on the phase -i theta, whose real part is +0
    magnitudes = 10.0 ** rng.uniform(math.log10(5e-324), 6.0, 200_000)
    theta = np.concatenate([magnitudes, -magnitudes, [0.0, -0.0, 5e-324, -5e-324, 1e6, -1e6]])
    assert np.exp(np.multiply(-1j, theta)).tobytes() == _unit_phasor(-theta).tobytes()


@pytest.mark.parametrize("n", [2**k for k in range(3, 17)])
def test_batched_ifft_rows_equal_the_one_dimensional_ifft_bitwise(rng, n):
    # a platform check: one inverse FFT over the rows of a 2-d buffer, in
    # place, computes each row as the 1-d transform of that row does
    rows = rng.standard_normal((4, n)) + 1j * rng.standard_normal((4, n))
    rows[1, n // 8:] = 0.0  # mostly zero rows: a narrow band, one bin, none
    rows[2, 1:] = 0.0
    rows[3] = 0.0
    batched = rows.copy()
    np.fft.ifft(batched, axis=-1, out=batched)
    for row, out in zip(rows, batched):
        assert out.tobytes() == np.fft.ifft(row).tobytes()


def _band_slices(n):
    """All bins, a band across bin n//2, the bins below it, the bins from it
    up, and the first and the last bin alone."""
    h = n // 2
    return [slice(0, n), slice(h - 3, h + 2), slice(1, h), slice(h, n),
            slice(0, 1), slice(n - 1, n)]


@pytest.mark.parametrize("n", [8, 256, 4096, 65536])
def test_batched_band_transform_is_idft_of_band_extract_bitwise(rng, n):
    grid = SamplingGrid(n, 1e-7, -0.37 * n * 1e-7)
    deltas = grid.detunings()
    edges = np.append(deltas, deltas[-1] + grid.df)  # bin k's band starts at edges[k]
    spectra = [Spectrum(grid, rng.standard_normal(n) + 1j * rng.standard_normal(n))
               for _ in range(2)]
    pairs = [(spectra[i % 2], band) for i, band in enumerate(_band_slices(n))]
    for (s, band), w in zip(pairs, _idft_bands(grid, pairs)):
        expected = _parent_idft(band_extract(s, edges[band.start], edges[band.stop]))
        assert w.samples.tobytes() == expected.tobytes()
