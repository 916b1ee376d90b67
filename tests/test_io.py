"""CSV round trips, header enforcement, axis validation."""

import numpy as np
import pytest

from slowlight import (
    AMG,
    GAUSSIAN,
    MeasuredTransmission,
    NumericError,
    PulseSpec,
    SamplingGrid,
    Spectrum,
    ValidationError,
    Waveform,
    dft,
    load_scenario,
    run_scenario,
    synth,
    transmission_lookup,
)
from slowlight.io import (
    INTENSITY_HEADER,
    read_detuning_series_csv,
    read_spectrum_csv,
    read_timeseries_csv,
    read_transmission_csv,
    write_gain_csv,
    write_intensity_csv,
    write_intensity_spectrum_csv,
    write_metrics_csv,
    write_spectrum_csv,
    write_transmission_csv,
    write_waveform_csv,
)
from slowlight.scenario import BUNDLED_SCENARIOS
from slowlight.signal import _handover


def test_waveform_round_trip_is_byte_identical(tmp_path, amg_spec):
    w = synth(amg_spec)
    p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
    write_waveform_csv(p1, w)
    loaded = read_timeseries_csv(p1)
    assert isinstance(loaded, Waveform)
    write_waveform_csv(p2, loaded)
    assert p1.read_bytes() == p2.read_bytes()
    np.testing.assert_array_equal(loaded.samples, w.samples)
    assert loaded.grid == w.grid


def test_intensity_round_trip_is_byte_identical(tmp_path, gauss_spec):
    w = synth(gauss_spec)
    p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
    write_intensity_csv(p1, w)
    loaded = read_timeseries_csv(p1)
    assert isinstance(loaded, Waveform)
    np.testing.assert_array_equal(loaded.samples, np.sqrt(np.abs(w.samples) ** 2))
    write_intensity_csv(p2, loaded)
    assert p1.read_bytes() == p2.read_bytes()


def test_bundled_intensity_artifacts_round_trip_byte_identically(tmp_path):
    checked = 0
    for name in BUNDLED_SCENARIOS:
        run_scenario(load_scenario(name, out_dir=tmp_path / name))
        for path in sorted((tmp_path / name).iterdir()):
            if path.read_text().split("\n", 1)[0] != INTENSITY_HEADER:
                continue
            again = tmp_path / "again.csv"
            write_intensity_csv(again, read_timeseries_csv(path))
            assert again.read_bytes() == path.read_bytes(), path
            checked += 1
    assert checked == 11


def test_intensity_reads_back_as_the_field(tmp_path, rng):
    grid = SamplingGrid(n=64, dt=1e-6, t_start=0.0)
    field = rng.uniform(0.0, 2.0, 64)
    path = tmp_path / "i.csv"
    write_intensity_csv(path, Waveform(grid, field))
    np.testing.assert_array_equal(read_timeseries_csv(path).samples, field)


def test_intensity_zeros_read_back_as_a_zero_field(tmp_path):
    grid = SamplingGrid(n=8, dt=1e-6)
    path = tmp_path / "i.csv"
    write_intensity_csv(path, Waveform(grid, [0.0, 1.0, 2.0, 0.0, 3.0, 0.0, 1.0, 0.0]))
    assert path.read_text().splitlines()[1:3] == ["0.0,0.0", "1e-06,1.0"]
    np.testing.assert_array_equal(
        read_timeseries_csv(path).samples, [0.0, 1.0, 2.0, 0.0, 3.0, 0.0, 1.0, 0.0]
    )


def test_spectrum_round_trip_is_byte_identical(tmp_path, amg_spec):
    s = dft(synth(amg_spec))
    p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
    write_spectrum_csv(p1, s)
    loaded = read_spectrum_csv(p1, grid=s.grid)
    write_spectrum_csv(p2, loaded)
    assert p1.read_bytes() == p2.read_bytes()
    np.testing.assert_array_equal(loaded.samples, s.samples)
    assert loaded.grid.n == s.grid.n
    assert loaded.grid.df == pytest.approx(s.grid.df, rel=1e-12)


@pytest.mark.parametrize("n, dt_scale", [(2, 1.0), (1, 1.0 + 1e-6)])
def test_spectrum_pinned_to_grid_checks_lattice(tmp_path, amg_spec, n, dt_scale):
    s = dft(synth(amg_spec))
    path = tmp_path / "s.csv"
    write_spectrum_csv(path, s)
    assert read_spectrum_csv(path, grid=s.grid).grid is s.grid
    other = SamplingGrid(n=s.grid.n * n, dt=s.grid.dt * dt_scale, t_start=s.grid.t_start)
    with pytest.raises(ValidationError, match="does not match the reference grid"):
        read_spectrum_csv(path, grid=other)


def test_spectrum_default_time_origin(tmp_path, amg_spec):
    s = dft(synth(amg_spec))  # default grid is centered on t = 0
    path = tmp_path / "s.csv"
    write_spectrum_csv(path, s)
    loaded = read_spectrum_csv(path)
    assert loaded.grid == s.grid


@pytest.mark.parametrize(
    "kind, t0_us",
    [(GAUSSIAN, t0) for t0 in (0.5, 2.0, 6.5, 13.0, 26.0, 52.0, 100.0)]
    + [(AMG, t0) for t0 in (1.0, 2.5, 6.5, 9.0)],
)
def test_default_grids_round_trip_exactly(tmp_path, kind, t0_us):
    # every file reads back to the grid and the bits it was written from, and
    # rewrites its bytes; a default grid is centred on t = 0, so a spectrum
    # read without its grid gets that grid back too
    w = synth(PulseSpec(kind, t0_us * 1e-6, mod_depth=1.0, mod_freq=700e3))
    p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
    field, magnitude = w.samples, np.abs(w.samples).astype(complex)
    for write, expected in ((write_waveform_csv, field), (write_intensity_csv, magnitude)):
        write(p1, w)
        loaded = read_timeseries_csv(p1)
        assert loaded.grid == w.grid
        assert loaded.samples.tobytes() == expected.tobytes()
        write(p2, loaded)
        assert p2.read_bytes() == p1.read_bytes()

    samples = dft(w).samples.copy()
    samples[0] = complex(-0.0, 0.0)
    s = Spectrum(w.grid, samples)
    write_spectrum_csv(p1, s)
    for grid in (None, s.grid):
        loaded = read_spectrum_csv(p1, grid)
        assert loaded.grid == s.grid
        assert loaded.samples.tobytes() == s.samples.tobytes()
        write_spectrum_csv(p2, loaded)
        assert p2.read_bytes() == p1.read_bytes()


@pytest.mark.parametrize("n, dt", [(8, 1e-18), (4096, 1e18)])
def test_grid_at_a_dt_bound_reads_back(tmp_path, n, dt):
    # a float beside the mean spacing that lies outside dt's domain is skipped
    grid = SamplingGrid(n, dt)
    path = tmp_path / "w.csv"
    write_waveform_csv(path, Waveform(grid, np.hanning(n + 2)[1:-1]))
    assert read_timeseries_csv(path).grid == grid


def test_detuning_series_round_trips(tmp_path):
    deltas = (np.arange(64) - 32) * 1953.125
    values = np.exp(-((deltas / 5e4) ** 2))
    p1, p2 = tmp_path / "i.csv", tmp_path / "i2.csv"
    write_intensity_spectrum_csv(p1, deltas, values)
    d, v = read_detuning_series_csv(p1)
    write_intensity_spectrum_csv(p2, d, v)
    assert p1.read_bytes() == p2.read_bytes()

    g1, g2 = tmp_path / "g.csv", tmp_path / "g2.csv"
    write_gain_csv(g1, deltas, 1.0 / np.maximum(values, 1e-3))
    d, v = read_detuning_series_csv(g1)
    write_gain_csv(g2, d, v)
    assert g1.read_bytes() == g2.read_bytes()


def test_transmission_round_trip_and_default_extrapolation(tmp_path):
    table = MeasuredTransmission(
        np.array([-3e5, -1e5, 1e5, 3e5]), np.array([0.12, 0.4, 0.5, 0.08])
    )
    p1, p2 = tmp_path / "t.csv", tmp_path / "t2.csv"
    write_transmission_csv(p1, table)
    loaded = read_transmission_csv(p1)
    write_transmission_csv(p2, loaded)
    assert p1.read_bytes() == p2.read_bytes()
    # outside the table both extrapolate to the mean of the endpoints
    far = np.array([-1e6, 1e6])
    for t in (table, loaded):
        np.testing.assert_allclose(transmission_lookup(t, far), 0.5 * (0.12 + 0.08), rtol=1e-12)


def test_rejects_wrong_header(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("time_s,voltage\n0.0,1.0\n1e-6,2.0\n")
    with pytest.raises(ValidationError):
        read_timeseries_csv(path)


def test_rejects_malformed_rows(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("time_s,field\n0.0,1.0\n1e-6,oops\n")
    with pytest.raises(ValidationError):
        read_timeseries_csv(path)


def test_rejects_nonuniform_spacing(tmp_path):
    times = np.linspace(0, 15e-6, 16)
    times[7] += 0.2e-6  # 1.3% local distortion, far over the 1e-6 tolerance
    lines = ["time_s,field"] + [f"{float(t)!r},{1.0!r}" for t in times]
    path = tmp_path / "bad.csv"
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ValidationError):
        read_timeseries_csv(path)


def test_rejects_non_power_of_two(tmp_path):
    times = np.arange(12) * 1e-6
    lines = ["time_s,field"] + [f"{float(t)!r},{0.5!r}" for t in times]
    path = tmp_path / "bad.csv"
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ValidationError):
        read_timeseries_csv(path)


def test_rejects_negative_intensity_on_load(tmp_path):
    grid = SamplingGrid(n=8, dt=1e-6)
    lines = ["time_s,intensity"] + [
        f"{float(t)!r},{float(v)!r}" for t, v in zip(grid.times(), [1, 2, -1, 0, 0, 0, 0, 0])
    ]
    path = tmp_path / "bad.csv"
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ValidationError, match="intensity samples must be nonnegative") as info:
        read_timeseries_csv(path)
    assert str(info.value) == f"{path}: intensity samples must be nonnegative"


def test_rejects_uncentered_spectrum(tmp_path):
    deltas = np.arange(16) * 100.0  # all nonnegative: carrier bin misplaced
    lines = ["detuning_hz,re,im"] + [f"{float(d)!r},{1.0!r},{0.0!r}" for d in deltas]
    path = tmp_path / "bad.csv"
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ValidationError):
        read_spectrum_csv(path)


def test_complex_waveform_refuses_two_column_format(tmp_path):
    grid = SamplingGrid(n=8, dt=1e-6)
    w = Waveform(grid, (1.0 + 0.5j) * np.ones(8))
    with pytest.raises(ValidationError):
        write_waveform_csv(tmp_path / "c.csv", w)


@pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
def test_writer_rejects_non_finite_before_opening(tmp_path, bad):
    # written as "inf", the cell would make the file unreadable by every reader
    path = tmp_path / "gain.csv"
    gain = np.array([1.0, 2.0, bad, 4.0])
    with pytest.raises(ValidationError) as info:
        write_gain_csv(path, np.array([-100.0, 0.0, 100.0, 200.0]), gain)
    assert f"{path}: non-finite value {bad} in data row 3, column 2" in str(info.value)
    assert not path.exists()


def test_intensity_writer_names_an_overflow(tmp_path, gauss_spec):
    # |e|^2 of a 1e200 sample overflows float64: a NumericError, and no numpy warning
    w = synth(gauss_spec)
    path = tmp_path / "i.csv"
    with pytest.raises(NumericError, match="the waveform energy sum overflowed float64"):
        write_intensity_csv(path, Waveform(w.grid, w.samples * 1e200))
    assert not path.exists()


def test_metrics_writer_rejects_non_finite_before_opening(tmp_path):
    path = tmp_path / "metrics.csv"
    with pytest.raises(ValidationError) as info:
        write_metrics_csv(path, [("delay_s", 1e-6), ("nrmse", np.nan)])
    assert f"{path}: non-finite value nan in data row 2, column 2" in str(info.value)
    assert not path.exists()


def test_writer_names_first_non_finite_cell_in_row_order(tmp_path):
    samples = np.ones(8, dtype=complex)
    samples[1] = complex(1.0, np.nan)  # row 2, column 3 (im)
    samples[3] = complex(np.inf, 0.0)  # row 4, column 2 (re)
    # the public constructor rejects these samples; a library result can
    # still overflow, and reaches the writer through _handover
    s = _handover(Spectrum, SamplingGrid(n=8, dt=1e-6), samples)
    with pytest.raises(ValidationError, match="nan in data row 2, column 3"):
        write_spectrum_csv(tmp_path / "s.csv", s)
