"""CSV round trips, header enforcement, axis validation."""

import numpy as np
import pytest

from slowlight import (
    IntensityTrace,
    MeasuredTransmission,
    SamplingGrid,
    Spectrum,
    ValidationError,
    Waveform,
    dft,
    synth,
    transmission_lookup,
)
from slowlight.io import (
    read_detuning_series_csv,
    read_spectrum_csv,
    read_timeseries_csv,
    read_transmission_csv,
    write_gain_csv,
    write_intensity_csv,
    write_intensity_spectrum_csv,
    write_spectrum_csv,
    write_transmission_csv,
    write_waveform_csv,
)


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
    trace = IntensityTrace(w.grid, np.abs(w.samples) ** 2)
    p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
    write_intensity_csv(p1, trace)
    loaded = read_timeseries_csv(p1)
    assert isinstance(loaded, IntensityTrace)
    write_intensity_csv(p2, loaded)
    assert p1.read_bytes() == p2.read_bytes()


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
    assert loaded.grid.t_start == pytest.approx(s.grid.t_start, rel=1e-9)


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


def test_generic_value_header_reads_as_field(tmp_path):
    grid = SamplingGrid(n=8, dt=1e-6)
    lines = ["time_s,value"] + [
        f"{float(t)!r},{float(v)!r}" for t, v in zip(grid.times(), [0, 1, 2, 3, 2, 1, 0, 0])
    ]
    path = tmp_path / "generic.csv"
    path.write_text("\n".join(lines) + "\n")
    loaded = read_timeseries_csv(path)
    assert isinstance(loaded, Waveform)
    np.testing.assert_array_equal(loaded.samples.real, [0, 1, 2, 3, 2, 1, 0, 0])


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
    with pytest.raises(ValidationError):
        read_timeseries_csv(path)


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


def test_writer_names_first_non_finite_cell_in_row_order(tmp_path):
    samples = np.ones(8, dtype=complex)
    samples[1] = complex(1.0, np.nan)  # row 2, column 3 (im)
    samples[3] = complex(np.inf, 0.0)  # row 4, column 2 (re)
    with pytest.raises(ValidationError, match="nan in data row 2, column 3"):
        write_spectrum_csv(tmp_path / "s.csv", Spectrum(SamplingGrid(n=8, dt=1e-6), samples))
