"""CSV serialization for waveforms, spectra, transmission tables, gains and metrics.

All writers emit a header row and shortest round-trip float formatting
(`repr` of the float64 value), so write -> read -> write is byte-identical
for files this package produced.  Writers reject non-finite values before
opening the file, since the readers reject them too.  Rows are formatted and
written in blocks of BLOCK_ROWS, one column at a time.  The first column of
every file is a time or detuning axis; its formatted text is memoised for the
last two distinct axes, so the artifacts of one pipeline format each axis
once.  Readers take ASCII text only and parse it in one np.loadtxt pass
that hands each cell to Python's float, so spaces, tabs and 1_0 are
accepted and a '#' is a malformed cell, not a comment.  They reject
non-finite cells, validate uniform axis spacing to 1e-6 relative and snap
the spacing to the exact float the writer used when one reproduces every
axis value.

A waveform is written as its field (time_s,field) or as the intensity
|e|^2 a detector records (time_s,intensity), and either file reads back as
a Waveform: an intensity I as the field sqrt(I).  Every intensity this
package writes is fl(a*a) for a float a, and sqrt(fl(a*a)) == a unless a*a
underflows, so write -> read -> write of an intensity file stays
byte-identical too.
"""

from __future__ import annotations

import functools
import math
from pathlib import Path

import numpy as np

from .errors import ValidationError
from .medium import MeasuredTransmission
from .signal import SamplingGrid, Waveform
from .spectral import Spectrum

FIELD_HEADER = "time_s,field"
INTENSITY_HEADER = "time_s,intensity"
SPECTRUM_HEADER = "detuning_hz,re,im"
INTENSITY_SPECTRUM_HEADER = "detuning_hz,intensity"
TRANSMISSION_HEADER = "detuning_hz,transmission"
GAIN_HEADER = "detuning_hz,intensity_gain"
METRICS_HEADER = "metric,value"

# rows formatted and written per step; bounds the transient text the writer holds
BLOCK_ROWS = 1024


@functools.lru_cache(maxsize=2)
def _axis_blocks(raw: bytes) -> tuple[str, ...]:
    """Formatted axis values, newline-joined per block of BLOCK_ROWS."""
    axis = np.frombuffer(raw, dtype=np.float64)
    return tuple(
        "\n".join(map(repr, axis[lo:lo + BLOCK_ROWS].tolist()))
        for lo in range(0, axis.size, BLOCK_ROWS)
    )


def _reject_non_finite(path, data: np.ndarray) -> None:
    """Raise on the first non-finite cell, in row order, of a rows x columns array."""
    finite = np.isfinite(data)
    if not finite.all():
        row, col = divmod(int(np.argmin(finite)), data.shape[1])
        raise ValidationError(
            f"{path}: non-finite value {float(data[row, col])} "
            f"in data row {row + 1}, column {col + 1}"
        )


def _write_csv(path, header: str, columns) -> None:
    axis, *data = (np.asarray(c, dtype=np.float64) for c in columns)
    if axis.ndim != 1 or any(c.shape != axis.shape for c in data):
        raise ValidationError(
            f"{path}: columns must be 1-D and of one length, got shapes "
            f"{[axis.shape] + [c.shape for c in data]}"
        )
    _reject_non_finite(path, np.column_stack((axis, *data)))
    with open(path, "w", encoding="ascii") as f:
        f.write(header + "\n")
        for lo, axis_text in zip(range(0, axis.size, BLOCK_ROWS), _axis_blocks(axis.tobytes())):
            cells = [axis_text.split("\n")]
            cells += [map(repr, c[lo:lo + BLOCK_ROWS].tolist()) for c in data]
            f.write("\n".join(map(",".join, zip(*cells))) + "\n")


def write_metrics_csv(path, rows) -> None:
    """Write (name, value) pairs as metric,value rows."""
    rows = [(key, float(value)) for key, value in rows]
    # 0.0 stands in for each name, so a value keeps its file column number
    _reject_non_finite(path, np.array([(0.0, value) for _, value in rows]).reshape(-1, 2))
    lines = [METRICS_HEADER]
    lines.extend(f"{key},{value!r}" for key, value in rows)
    Path(path).write_text("\n".join(lines) + "\n", encoding="ascii")


def read_ascii_text(path) -> str:
    """The text of an ASCII file; any other byte is a ValidationError naming the file."""
    try:
        return Path(path).read_text(encoding="ascii")
    except UnicodeDecodeError as exc:
        raise ValidationError(f"{path}: not ASCII text: byte {exc.object[exc.start]:#04x}") from None


def _read_csv(path, expected_headers) -> tuple[str, np.ndarray]:
    lines = read_ascii_text(path).splitlines()
    if not lines:
        raise ValidationError(f"{path}: empty file")
    header = lines[0].strip()
    if header not in expected_headers:
        raise ValidationError(
            f"{path}: header {header!r} not one of {sorted(expected_headers)}"
        )
    n_cols = header.count(",") + 1
    rows = list(filter(None, lines[1:]))
    if len(rows) < 2:
        raise ValidationError(f"{path}: need at least 2 data rows")
    try:
        data = np.loadtxt(rows, delimiter=",", comments=None, ndmin=2, converters=float)
    except ValueError as exc:
        # float's own error names a bad cell; numpy's would count rows from 0
        raise ValidationError(f"{path}: malformed numeric row ({exc.__cause__ or exc})") from exc
    if data.shape[1] != n_cols:
        raise ValidationError(f"{path}: expected {n_cols} columns, got {data.shape[1]}")
    _reject_non_finite(path, data)
    return header, data


def _recover_spacing(axis: np.ndarray, what: str) -> float:
    """Spacing of a uniform axis, snapped to the writer's exact float.

    The mean spacing is only accurate to rounding, so axis regeneration as
    axis[0] + k*spacing would drift by ulps; probing a few neighboring floats
    finds the exact spacing whenever the axis was generated that way.
    """
    n = axis.size
    base = (axis[-1] - axis[0]) / (n - 1)
    if not base > 0:
        raise ValidationError(f"{what}: axis must be strictly increasing")
    k = np.arange(n)
    for candidate in (base, np.nextafter(base, 0.0), np.nextafter(base, math.inf),
                      np.nextafter(np.nextafter(base, 0.0), 0.0),
                      np.nextafter(np.nextafter(base, math.inf), math.inf)):
        if np.array_equal(axis[0] + k * candidate, axis):
            return float(candidate)
    deviation = np.max(np.abs(np.diff(axis) - base))
    if deviation > 1e-6 * base:
        raise ValidationError(
            f"{what}: axis spacing varies by {deviation:.3e} (> 1e-6 relative)"
        )
    return float(base)


def _grid_from_times(times: np.ndarray, path) -> SamplingGrid:
    dt = _recover_spacing(times, f"{path}: time axis")
    try:
        return SamplingGrid(n=times.size, dt=dt, t_start=float(times[0]))
    except ValidationError as exc:
        raise ValidationError(f"{path}: {exc}") from exc


def write_waveform_csv(path, w: Waveform) -> None:
    """Write a real waveform as time_s,field rows."""
    if np.max(np.abs(w.samples.imag)) > 1e-9 * max(np.max(np.abs(w.samples)), 1e-300):
        raise ValidationError(
            "waveform has a significant imaginary part; write its intensity instead"
        )
    _write_csv(path, FIELD_HEADER, (w.grid.times(), w.samples.real))


def write_intensity_csv(path, w: Waveform) -> None:
    """Write the intensity |e|^2 of a waveform as time_s,intensity rows."""
    _write_csv(path, INTENSITY_HEADER, (w.grid.times(), np.abs(w.samples) ** 2))


def read_timeseries_csv(path) -> Waveform:
    """Read a time_s,field file, or a time_s,intensity file as the field sqrt(I)."""
    header, data = _read_csv(path, {FIELD_HEADER, INTENSITY_HEADER})
    grid = _grid_from_times(data[:, 0], path)
    samples = data[:, 1]
    if header == INTENSITY_HEADER:
        if np.any(samples < 0):
            raise ValidationError(f"{path}: intensity samples must be nonnegative")
        samples = np.sqrt(samples)
    return Waveform(grid, samples)


def write_spectrum_csv(path, s: Spectrum) -> None:
    _write_csv(path, SPECTRUM_HEADER, (s.detunings(), s.samples.real, s.samples.imag))


def read_spectrum_csv(path, grid: SamplingGrid | None = None) -> Spectrum:
    """Read a complex spectrum; the time origin is not stored in the file.

    Given the originating waveform's grid, check the file's n and df (1e-9
    relative) against it and use it verbatim, since a dt rebuilt from the
    detunings can drift by an ulp; without one, centre the window on t = 0.
    """
    _, data = _read_csv(path, {SPECTRUM_HEADER})
    deltas = data[:, 0]
    n = deltas.size
    df = _recover_spacing(deltas, f"{path}: detuning axis")
    if abs(deltas[0] + (n // 2) * df) > 1e-6 * df * n:
        raise ValidationError(f"{path}: detuning axis is not centered on 0 Hz")
    if grid is None:
        dt = 1.0 / (n * df)
        try:
            grid = SamplingGrid(n=n, dt=dt, t_start=-0.5 * n * dt)
        except ValidationError as exc:
            raise ValidationError(f"{path}: {exc}") from exc
    elif n != grid.n or not math.isclose(df, grid.df, rel_tol=1e-9):
        raise ValidationError(
            f"{path}: spectrum lattice (n={n}, df={df:.6g} Hz) does not match "
            f"the reference grid (n={grid.n}, df={grid.df:.6g} Hz)"
        )
    return Spectrum(grid, data[:, 1] + 1j * data[:, 2])


def write_intensity_spectrum_csv(path, detunings: np.ndarray, values: np.ndarray) -> None:
    _write_csv(path, INTENSITY_SPECTRUM_HEADER, (detunings, values))


def write_gain_csv(path, detunings: np.ndarray, gain: np.ndarray) -> None:
    _write_csv(path, GAIN_HEADER, (detunings, gain))


def read_detuning_series_csv(path) -> tuple[np.ndarray, np.ndarray]:
    """Read any two-column detuning-indexed series (intensity or gain)."""
    _, data = _read_csv(path, {INTENSITY_SPECTRUM_HEADER, GAIN_HEADER})
    return data[:, 0], data[:, 1]


def write_transmission_csv(path, table: MeasuredTransmission) -> None:
    _write_csv(path, TRANSMISSION_HEADER, (table.detunings, table.transmissions))


def read_transmission_csv(path) -> MeasuredTransmission:
    """Load a tabulated transmission spectrum."""
    _, data = _read_csv(path, {TRANSMISSION_HEADER})
    try:
        return MeasuredTransmission(data[:, 0], data[:, 1])
    except ValidationError as exc:
        raise ValidationError(f"{path}: {exc}") from exc
