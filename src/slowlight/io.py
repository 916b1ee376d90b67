"""CSV serialization for waveforms, spectra, transmission tables, gains and metrics.

All writers emit a header row and shortest round-trip float formatting: the
bytes of `repr` of each float64 value, so write -> read -> write is
byte-identical for files this package produced.  Writers reject non-finite
values and tables of fewer than 2 rows before opening the file, since the
readers reject them too (and the formatter would write nan as null).  Rows
are formatted and written in blocks of BLOCK_ROWS.  One orjson call prints a
block's data cells, flattened in row order, as one 1-D array of shortest
digits (orjson pays a large cost per row of a 2-D array).  A few C-level
string passes rewrite the text into repr's exponent and small-number forms;
each runs only on a block holding a cell whose |x| lies in the band it
rewrites, which is exact because the exponent of the shortest digits changes
at fl(10**k).  The first column of every file is a time or detuning axis,
formatted the same way; its text is memoised, newline-joined per block, for
the last two distinct axes, so the artifacts of one pipeline format each
axis once.  A block's axis text, each line end turned into the row's data
slots, is the row template, and one % fill puts the data cells in.  Readers
take ASCII text only, and a cell follows Python's float grammar, so spaces,
tabs and 1_0 are accepted and a '#' is a malformed cell, not a comment.  A
file of rows of JSON numbers, as every file this package writes is, is
parsed by orjson in blocks of READ_BLOCK_BYTES into one preallocated array.
A block holding any other byte, a row of another width, a number orjson
rejects or an integer -0 (which orjson reads as +0) sends the whole file to
one np.loadtxt pass that hands each cell to float, so both paths give the
same values and every error comes from the second.  Readers reject
non-finite cells and read the axis back as the SamplingGrid whose own
times() or detunings() equal it, so the grid a writer used is the grid read
back; an axis that no grid reproduces must be uniform to 1e-6 relative.

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
import re
from pathlib import Path

import numpy as np

from .errors import ValidationError, overflowed
from .medium import MeasuredTransmission
from .signal import SamplingGrid, Waveform, _intensity
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
# bytes a reader parses per orjson call, up to the next line end
READ_BLOCK_BYTES = 1 << 14


# orjson prints the shortest round-trip digits, as repr does, in other text:
# it writes 1e16 and 1.5e-7 where repr writes 1e+16 and 1.5e-07 (its positive
# exponents are all 16 or more), and 0.000015 where repr writes 1.5e-05, for
# 1e-5 <= |x| < 1e-4.  The exponent passes replace with literal strings, which
# stay in C (a template with group references runs Python code per match);
# only the band pass, for cells not preceded by a digit or '.', calls _e05.
_UNSIGNED_EXPONENT = re.compile(r"e(?=\d)")
_ONE_DIGIT_EXPONENT = re.compile(r"e-(?=\d(?!\d))")
_FIXED_E05 = re.compile(r"0\.0000(?<![\d.]0\.0000)([1-9])(\d*)")


# the bytes of JSON numbers and the blanks around them, all of which float()
# reads too; a reader's block goes to orjson only when deleting these leaves
# n_cols - 1 commas per row
_JSON_NUMBER_BYTES = b"0123456789eE+-. \t"
# orjson reads the integer token -0 as the int 0, where float gives -0.0; this
# also matches the exponent e-0, whose block is then parsed as lines
_INTEGER_MINUS_ZERO = re.compile(rb"-0(?![\d.eE])")


def _e05(m: re.Match) -> str:
    return f"{m[1]}.{m[2]}e-05" if m[2] else f"{m[1]}e-05"


def _format_cells(values: np.ndarray) -> str:
    """The cells of a C-contiguous 1-D float64 array joined by commas, each
    the text repr gives it; every cell must be finite."""
    import orjson  # loaded on the first write, so processes that never write skip it

    # one flat array: orjson pays a large cost per row of a 2-D one
    text = orjson.dumps(values, option=orjson.OPT_SERIALIZE_NUMPY).decode("ascii")[1:-1]
    # each pass runs only on a block holding a cell in the band it rewrites;
    # exact, since the shortest digits change exponent at fl(10**k)
    magnitude = np.abs(values)
    if (magnitude >= 1e16).any():
        text = _UNSIGNED_EXPONENT.sub("e+", text)
    if ((magnitude >= 1e-9) & (magnitude < 1e-5)).any():
        text = _ONE_DIGIT_EXPONENT.sub("e-0", text)
    if ((magnitude >= 1e-5) & (magnitude < 1e-4)).any():
        text = _FIXED_E05.sub(_e05, text)
    return text


@functools.lru_cache(maxsize=2)
def _axis_blocks(raw: bytes) -> tuple[str, ...]:
    """Formatted axis values, newline-joined per block of BLOCK_ROWS."""
    axis = np.frombuffer(raw, dtype=np.float64)
    return tuple(_format_cells(axis[lo:lo + BLOCK_ROWS]).replace(",", "\n")
                 for lo in range(0, axis.size, BLOCK_ROWS))


def _reject_non_finite(path, columns) -> None:
    """Raise on the first non-finite cell, in row order, of equal-length columns."""
    bad = []
    for col, values in enumerate(columns):
        finite = np.isfinite(values)
        if not finite.all():
            bad.append((int(np.argmin(finite)), col))
    if bad:
        row, col = min(bad)
        raise ValidationError(
            f"{path}: non-finite value {float(columns[col][row])} "
            f"in data row {row + 1}, column {col + 1}"
        )


def _write_csv(path, header: str, columns) -> None:
    axis, *data = (np.asarray(c, dtype=np.float64) for c in columns)
    if axis.ndim != 1 or any(c.shape != axis.shape for c in data):
        raise ValidationError(
            f"{path}: columns must be 1-D and of one length, got shapes "
            f"{[axis.shape] + [c.shape for c in data]}"
        )
    if axis.size < 2:
        raise ValidationError(f"{path}: need at least 2 data rows, got {axis.size}")
    _reject_non_finite(path, (axis, *data))
    slots = ",%s" * len(data) + "\n"
    with open(path, "w", encoding="ascii") as f:
        f.write(header + "\n")
        for lo, axis_text in zip(range(0, axis.size, BLOCK_ROWS), _axis_blocks(axis.tobytes())):
            # the axis text is the row template; the data cells, in row order, fill it
            cells = _format_cells(np.column_stack([c[lo:lo + BLOCK_ROWS] for c in data]).ravel())
            f.write((axis_text.replace("\n", slots) + slots) % tuple(cells.split(",")))


def write_metrics_csv(path, rows) -> None:
    """Write (name, value) pairs as metric,value rows."""
    rows = [(key, float(value)) for key, value in rows]
    # zeros stand in for the names, so a value keeps its file column number
    _reject_non_finite(path, (np.zeros(len(rows)), np.array([value for _, value in rows])))
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
    raw = Path(path).read_bytes()
    start = raw.find(b"\n") + 1
    header = raw[:start - 1].decode("latin-1")  # any byte decodes; only an expected header matches
    data = None
    if start and header in expected_headers:
        data = _parse_blocks(raw, start, header.count(",") + 1)
    if data is None:
        header, data = _parse_lines(path, read_ascii_text(path), expected_headers)
    _reject_non_finite(path, data.T)
    return header, data


def _parse_blocks(raw: bytes, start: int, n_cols: int) -> np.ndarray | None:
    """The newline-separated rows of raw[start:] as a rows x n_cols float64
    array, parsed by orjson in blocks of about READ_BLOCK_BYTES; None when a
    block is not rows of n_cols JSON numbers that float reads alike, or there
    are fewer than 2 rows, so the caller parses the file as lines."""
    import orjson  # loaded on the first read or write, so processes without files skip it

    stop = len(raw) - raw.endswith(b"\n")
    n_rows = raw.count(b"\n", start, stop) + 1
    if n_rows < 2:
        return None
    data = np.empty((n_rows, n_cols))
    flat = data.reshape(-1)
    row_seps = b"," * (n_cols - 1) + b"\n"
    lo = 0
    while start < stop:
        end = raw.find(b"\n", start + READ_BLOCK_BYTES, stop)
        block = raw[start:stop if end < 0 else end]
        # what the deletion leaves is the block's separators, or a byte no cell may hold
        seps = block.translate(None, _JSON_NUMBER_BYTES) + b"\n"
        if seps != row_seps * (len(seps) // n_cols):
            return None
        try:
            values = orjson.loads(b"[" + block.replace(b"\n", b",") + b"]")
        except orjson.JSONDecodeError:
            return None
        hi = lo + len(values)
        flat[lo:hi] = values
        if not flat[lo:hi].all() and _INTEGER_MINUS_ZERO.search(block):  # -0 read as 0
            return None
        lo, start = hi, stop if end < 0 else end + 1
    return data if lo == flat.size else None  # a blank last line is a row never filled


def _parse_lines(path, text: str, expected_headers) -> tuple[str, np.ndarray]:
    """Python's float grammar, one cell at a time, for any text the block parse refuses."""
    lines = text.splitlines()
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
    return header, data


def _read_grid(path, axis: np.ndarray, what: str, grid_at, axis_of) -> SamplingGrid:
    """The grid_at(spacing) whose own axis_of equals the file's axis, for the
    mean spacing (exact only to rounding) or a float up to two steps from it;
    else, for an axis uniform to 1e-6 relative, the grid at the mean spacing."""
    spacing = (axis[-1] - axis[0]) / (axis.size - 1)
    try:
        if not spacing > 0:
            raise ValidationError(f"{what}: axis must be strictly increasing")
        lo, hi = np.nextafter(spacing, 0.0), np.nextafter(spacing, math.inf)
        for candidate in (spacing, lo, hi, np.nextafter(lo, 0.0), np.nextafter(hi, math.inf)):
            try:
                grid = grid_at(float(candidate))
            except ValidationError:  # not a grid, so not the writer's
                continue
            if np.array_equal(axis_of(grid), axis):
                return grid
        deviation = np.max(np.abs(np.diff(axis) - spacing))
        if deviation > 1e-6 * spacing:
            raise ValidationError(
                f"{what}: axis spacing varies by {deviation:.3e} (> 1e-6 relative)"
            )
        return grid_at(float(spacing))
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
    """Write the intensity |e|^2 of a waveform as time_s,intensity rows;
    NumericError when it overflows float64."""
    with np.errstate(over="ignore"):  # the check below names the overflow
        intensity = _intensity(w.samples)
    if not intensity.max() < math.inf:
        raise overflowed("waveform")
    _write_csv(path, INTENSITY_HEADER, (w.grid.times(), intensity))


def read_timeseries_csv(path) -> Waveform:
    """Read a time_s,field file, or a time_s,intensity file as the field sqrt(I)."""
    header, data = _read_csv(path, {FIELD_HEADER, INTENSITY_HEADER})
    grid = _read_grid(path, data[:, 0], "time axis",
                      lambda dt: SamplingGrid(len(data), dt, data[0, 0]), SamplingGrid.times)
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

    Its grid is the one whose own detunings are the file's.  Given the
    originating waveform's grid, check the file's n and df (1e-9 relative)
    against it and use it verbatim; without one, centre the window on t = 0.
    """
    _, data = _read_csv(path, {SPECTRUM_HEADER})
    deltas = data[:, 0]
    n = deltas.size

    def lattice(df: float) -> SamplingGrid:
        dt = 1.0 / (n * df)
        # detunings do not depend on t_start; 0 admits a reference window over 2*SCALE
        return SamplingGrid(n, dt, -0.5 * n * dt if grid is None else 0.0)

    found = _read_grid(path, deltas, "detuning axis", lattice, SamplingGrid.detunings)
    if abs(deltas[0] + (n // 2) * found.df) > 1e-6 * found.df * n:
        raise ValidationError(f"{path}: detuning axis is not centered on 0 Hz")
    if grid is None:
        grid = found
    elif n != grid.n or not math.isclose(found.df, grid.df, rel_tol=1e-9):
        raise ValidationError(
            f"{path}: spectrum lattice (n={n}, df={found.df:.6g} Hz) does not match "
            f"the reference grid (n={grid.n}, df={grid.df:.6g} Hz)"
        )
    # the (re, im) pairs viewed as complex, so a -0.0 part keeps its sign
    return Spectrum(grid, np.ascontiguousarray(data[:, 1:]).view(np.complex128)[:, 0])


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
