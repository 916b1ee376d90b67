"""Block-wise CSV writer and reader against a per-cell reference.

The reference functions below are the straightforward forms of the writer
(repr of each cell, row by row) and the reader (float() of each cell in a
nested list): the io functions must produce the same bytes and the same
arrays, and fail on the same inputs.
"""

import math
import os
import re
import subprocess
import sys
import tracemalloc
from itertools import combinations
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

import slowlight
import slowlight.io as sio
from slowlight import ValidationError
from slowlight.io import (
    BLOCK_ROWS,
    READ_BLOCK_BYTES,
    _axis_blocks,
    _read_csv,
    _write_csv,
    read_detuning_series_csv,
    read_spectrum_csv,
    read_timeseries_csv,
    read_transmission_csv,
    write_gain_csv,
    write_intensity_spectrum_csv,
    write_spectrum_csv,
    write_waveform_csv,
)
from slowlight.signal import SamplingGrid, Waveform
from slowlight.spectral import Spectrum

from conftest import assert_same_text

HEADERS = {2: "time_s,field", 3: "detuning_hz,re,im"}
EDGE_LENGTHS = (1, 2, BLOCK_ROWS - 1, BLOCK_ROWS, BLOCK_ROWS + 1, 2 * BLOCK_ROWS + 1)
SPECIAL = (0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308 / 3, 1e16, -1e16,
           1e-7, 123456789.0, 0.1, np.finfo(np.float64).max, -np.finfo(np.float64).max,
           # the formatter's rewrites: the 1e-5 <= |x| < 1e-4 band and its edges, one-digit
           # and signed exponents, the last float repr writes without one, and "0.0000"
           # inside a number outside the band
           1e-05, -1e-05, 1.5e-05, 9.999999999999999e-05, 1e-04, 1e-09, 1.5e-07,
           9999999999999998.0, 1e+100, 1e-100, 10.00001, 100.00001,
           # the float below each rewrite's lower threshold
           9.999999999999999e-10, 9.999999999999999e-06)

# each threshold of the formatter's rewrites, the float below it, and the pass
# each needs: repr writes 1e+16, 1e-09, 1e-05 and 9.999999999999999e-06 where
# orjson writes 1e16, 1e-9, 0.00001 and 9.999999999999999e-6
GUARD_EDGES = {
    1e16: "e+", 9999999999999998.0: None,
    1e-09: "e-0", 9.999999999999999e-10: None,
    1e-05: "e05", 9.999999999999999e-06: "e-0",
    1e-04: None, 9.999999999999999e-05: "e05",
}
SIGNED_GUARD_EDGES = tuple(sign * v for v in GUARD_EDGES for sign in (1.0, -1.0))


def reference_text(header, columns) -> str:
    lines = [header]
    lines.extend(",".join(repr(float(v)) for v in row) for row in zip(*columns))
    return "\n".join(lines) + "\n"


def reference_read(path, expected_headers):
    lines = path.read_text(encoding="ascii").splitlines()
    header = lines[0].strip()
    if header not in expected_headers:
        raise ValidationError(f"{path}: bad header")
    n_cols = header.count(",") + 1
    try:
        data = np.array(
            [[float(v) for v in line.split(",")] for line in lines[1:] if line],
            dtype=np.float64,
        )
    except ValueError as exc:
        raise ValidationError(f"{path}: malformed ({exc})") from exc
    if data.ndim != 2 or data.shape[1] != n_cols or data.shape[0] < 2:
        raise ValidationError(f"{path}: bad shape")
    return header, data


def _columns_with_specials(n_cols: int, n: int) -> list[np.ndarray]:
    rng = np.random.default_rng(n)
    axis = (np.arange(n) - n // 2) * 1953.125
    cols = [axis]
    # first and last row of every block, where a cell starts or ends the formatter's text
    edges = np.unique(np.r_[0:n:BLOCK_ROWS, BLOCK_ROWS - 1:n:BLOCK_ROWS, n - 1])
    for j in range(1, n_cols):
        col = rng.standard_normal(n) * 10.0 ** rng.integers(-300, 300, n)
        picks = rng.integers(0, n, len(SPECIAL))
        col[picks] = SPECIAL
        col[edges] = np.resize(np.roll(SPECIAL, 5 * j + n), edges.size)
        cols.append(col)
    return cols


@pytest.fixture(scope="module")
def csv_file(tmp_path_factory):
    return tmp_path_factory.mktemp("csv") / "f.csv"


finite = st.floats(allow_nan=False, allow_infinity=False) | st.sampled_from(SPECIAL)


@settings(max_examples=60, deadline=None)
@given(
    n=st.sampled_from(EDGE_LENGTHS) | st.integers(1, 40),
    n_cols=st.sampled_from(sorted(HEADERS)),
    data=st.data(),
)
def test_writer_bytes_match_reference_and_parse_back_exactly(csv_file, n, n_cols, data):
    table = data.draw(hnp.arrays(np.float64, (n_cols, n), elements=finite))
    header = HEADERS[n_cols]
    csv_file.unlink(missing_ok=True)
    if n < 2:  # a file the readers would refuse is never created
        with pytest.raises(ValidationError, match=re.escape(f"{csv_file}: need at least 2 data rows")):
            _write_csv(csv_file, header, list(table))
        assert not csv_file.exists()
        return
    _write_csv(csv_file, header, list(table))
    assert_same_text(csv_file.read_bytes(), reference_text(header, table).encode("ascii"))
    got_header, parsed = _read_csv(csv_file, {header})
    assert got_header == header
    assert parsed.tobytes() == np.ascontiguousarray(table.T).tobytes()


@pytest.mark.parametrize("n", EDGE_LENGTHS)
@pytest.mark.parametrize("n_cols", sorted(HEADERS))
def test_block_edges_and_axis_memo(tmp_path, n, n_cols):
    header = HEADERS[n_cols]
    cols = _columns_with_specials(n_cols, n)
    first, again = tmp_path / "a.csv", tmp_path / "b.csv"
    _axis_blocks.cache_clear()
    if n < 2:  # rejected before the file is opened or the axis formatted
        with pytest.raises(ValidationError, match="need at least 2 data rows"):
            _write_csv(first, header, cols)
        assert not first.exists()
        assert _axis_blocks.cache_info().misses == 0
        return
    _write_csv(first, header, cols)
    # second write reuses the formatted axis; the data must still be formatted afresh
    other = [cols[0]] + [c[::-1].copy() for c in cols[1:]]
    _write_csv(again, header, other)
    memo = _axis_blocks.cache_info()
    assert (memo.hits, memo.misses, memo.maxsize) == (1, 1, 2)  # only the axis is memoised
    assert_same_text(first.read_text(), reference_text(header, cols))
    assert_same_text(again.read_text(), reference_text(header, other))


def _passes_run(monkeypatch) -> list[str]:
    """The names of the formatter's rewrite passes, appended as each runs."""
    log = []
    for name, attr in (("e+", "_UNSIGNED_EXPONENT"), ("e-0", "_ONE_DIGIT_EXPONENT"),
                       ("e05", "_FIXED_E05")):
        def sub(repl, text, pattern=getattr(sio, attr), name=name):
            log.append(name)
            return pattern.sub(repl, text)
        monkeypatch.setattr(sio, attr, SimpleNamespace(sub=sub))
    return log


def _neutral_columns(n: int, n_cols: int = 2) -> list[np.ndarray]:
    """An axis and data columns of distinct cells no rewrite pass touches."""
    return [np.arange(n) * 0.25] + [np.full(n, 0.25 * j + 0.25) for j in range(1, n_cols)]


@pytest.mark.parametrize("layout", ["edges", "whole"])
@pytest.mark.parametrize("n_cols, col", [(2, 0), (2, 1), (3, 0), (3, 1), (3, 2)],
                         ids=["axis", "data", "spectrum-axis", "spectrum-re", "spectrum-im"])
@pytest.mark.parametrize("value", SIGNED_GUARD_EDGES, ids=repr)
def test_rewrite_runs_on_exactly_the_blocks_that_need_it(tmp_path, monkeypatch, value, n_cols,
                                                         col, layout):
    # the value fills the second block's first and last rows, or all of it; in the
    # 3-column layout its place in the text pins the row order of the data cells
    n = 2 * BLOCK_ROWS
    cols = _neutral_columns(n, n_cols)
    cols[col][[BLOCK_ROWS, n - 1] if layout == "edges" else slice(BLOCK_ROWS, n)] = value
    _axis_blocks.cache_clear()
    log = _passes_run(monkeypatch)
    path = tmp_path / "edge.csv"
    _write_csv(path, HEADERS[n_cols], cols)
    assert_same_text(path.read_text(), reference_text(HEADERS[n_cols], cols))
    need = GUARD_EDGES[abs(value)]
    assert log == ([need] if need else [])


def test_rewrites_of_mixed_threshold_cells(tmp_path, monkeypatch):
    # each pair in the first and last rows of a full block and of a two-row last block
    n = BLOCK_ROWS + 2
    log = _passes_run(monkeypatch)
    path = tmp_path / "mixed.csv"
    for a, b in combinations(SIGNED_GUARD_EDGES, 2):
        cols = _neutral_columns(n)
        cols[1][[0, BLOCK_ROWS - 1, BLOCK_ROWS, BLOCK_ROWS + 1]] = (a, b, b, a)
        log.clear()
        _write_csv(path, HEADERS[2], cols)
        assert_same_text(path.read_text(), reference_text(HEADERS[2], cols), (a, b))
        needs = {GUARD_EDGES[abs(a)], GUARD_EDGES[abs(b)]} - {None}
        assert sorted(log) == sorted(2 * list(needs)), (a, b)


def test_axis_memo_holds_text_not_cells():
    n = 1 << 16
    raw = ((np.arange(n) - n // 2) * 1.2e-9).tobytes()
    _axis_blocks(raw[:16])  # orjson and numpy's lazy parts load before the count starts
    _axis_blocks.cache_clear()
    tracemalloc.start()
    try:
        blocks = _axis_blocks(raw)  # the key is raw itself, allocated before the count
        retained, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # one str per block: 1.005x its text measured.  One str per cell costs
    # about 60 bytes of header beside its 12 or so characters, over 5x.
    assert retained < 1.5 * sum(map(len, blocks))


def test_bulk_writer_bytes_match_reference(tmp_path):
    # hypothesis draws a few hundred values a run; this guards the formatter on 2**16 rows
    n = 1 << 16
    rng = np.random.default_rng(20091)
    bits = rng.integers(0, 1 << 64, n, dtype=np.uint64).view(np.float64)
    non_finite = ~np.isfinite(bits)
    bits[non_finite] = rng.standard_normal(int(non_finite.sum()))
    magnitudes = 10.0 ** rng.uniform(-12.0, 20.0, n) * rng.choice((-1.0, 1.0), n)
    axis = (np.arange(n) - n // 2) * (1e-9 * rng.uniform(0.5, 2.0))
    path = tmp_path / "bulk.csv"
    _write_csv(path, HEADERS[3], (axis, bits, magnitudes))
    expected = reference_text(HEADERS[3], (axis.tolist(), bits.tolist(), magnitudes.tolist()))
    assert_same_text(path.read_bytes(), expected.encode("ascii"))


def test_writer_peak_memory_is_one_table_copy_plus_a_block(tmp_path):
    n = 1 << 16
    rng = np.random.default_rng(3)
    cols = [(np.arange(n) - n // 2) * 1.2e-9, rng.standard_normal(n), rng.standard_normal(n) * 1e-6]
    path = tmp_path / "big.csv"
    _write_csv(path, HEADERS[3], cols)  # the axis memo is filled before the count starts
    tracemalloc.start()
    try:
        _write_csv(path, HEADERS[3], cols)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # the axis bytes the memo is keyed on (512 KiB), freed before the first
    # block, whose arrays and text take about 285 KiB: 517 KiB measured.  A
    # copy of the table (1536 KiB) or the file's whole text (about 3.4 MiB)
    # would break the bound.
    assert peak < 640 * 1024
    assert path.stat().st_size > 2 * peak


def _package_file(tmp_path, n, n_cols):
    """A spectrum (3 columns) or field (2 columns) file of n rows, as the package writes it."""
    rng = np.random.default_rng(n)
    grid = SamplingGrid(n, 1e-9, -0.5 * n * 1e-9)
    path = tmp_path / f"{n_cols}.csv"
    if n_cols == 3:
        write_spectrum_csv(path, Spectrum(grid, rng.standard_normal(n) + 1j * rng.standard_normal(n)))
    else:
        write_waveform_csv(path, Waveform(grid, rng.standard_normal(n)))
    return path


@pytest.mark.parametrize("reader,n_cols", [(read_spectrum_csv, 3), (read_timeseries_csv, 2)],
                         ids=["spectrum", "timeseries"])
def test_reader_peak_memory_is_the_file_and_two_tables(tmp_path, reader, n_cols):
    n = 1 << 16
    path = _package_file(tmp_path, n, n_cols)
    reader(path)  # orjson and numpy's lazy parts load before the count starts
    tracemalloc.start()
    try:
        reader(path)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # the file's bytes, the float64 table parsed into (1536 KiB for a spectrum,
    # 1024 KiB for a field) and one block's text and values: 5.61 MB and
    # 3.68 MB measured.  The file decoded to str as well, a list of the lines or
    # one Python float per cell (the line-wise parse: 11.4 MB and 8.7 MB) breaks it.
    table = n * n_cols * 8
    assert peak < path.stat().st_size + 2 * table


def test_orjson_is_loaded_by_the_first_write_only(tmp_path):
    script = (
        "import sys; import slowlight, slowlight.cli, slowlight.io as sio; "
        "assert 'orjson' not in sys.modules, 'imported with slowlight'; "
        "sio.write_gain_csv(sys.argv[1], [0.0, 1.0], [1.0, 0.5]); "
        "assert 'orjson' in sys.modules, 'not imported by the writer'"
    )
    src = str(Path(slowlight.__file__).resolve().parent.parent)
    subprocess.run([sys.executable, "-c", script, str(tmp_path / "g.csv")], check=True,
                   timeout=60, env={**os.environ, "PYTHONPATH": src})
    assert (tmp_path / "g.csv").read_text() == "detuning_hz,intensity_gain\n0.0,1.0\n1.0,0.5\n"


def test_orjson_is_loaded_by_the_first_read_only(tmp_path):
    script = (
        "import sys; import slowlight, slowlight.cli, slowlight.io as sio; "
        "slowlight.load_scenario('fig2a'); "
        "assert slowlight.cli.main(['calibrate', '--peak', '0.615', '--background', '0.10', "
        "'--fwhm-khz', '350']) == 0; "
        "assert 'orjson' not in sys.modules, 'imported before any file'; "
        "d, g = sio.read_detuning_series_csv(sys.argv[1]); "
        "assert 'orjson' in sys.modules, 'not imported by the reader'; "
        "assert d.tolist() == [0.0, 1.0] and g.tolist() == [1.0, 0.5]"
    )
    path = tmp_path / "g.csv"
    path.write_text("detuning_hz,intensity_gain\n0.0,1.0\n1.0,0.5\n")
    src = str(Path(slowlight.__file__).resolve().parent.parent)
    subprocess.run([sys.executable, "-c", script, str(path)], check=True, capture_output=True,
                   timeout=60, env={**os.environ, "PYTHONPATH": src})


def test_writer_rejects_columns_of_different_lengths(tmp_path):
    with pytest.raises(ValidationError, match="one length"):
        _write_csv(tmp_path / "x.csv", "time_s,field", [np.arange(4.0), np.arange(3.0)])


@pytest.mark.parametrize("n", [0, 1])
@pytest.mark.parametrize("writer", [write_gain_csv, write_intensity_spectrum_csv],
                         ids=["gain", "intensity-spectrum"])
def test_writers_reject_fewer_rows_than_the_readers_take(tmp_path, writer, n):
    path = tmp_path / "short.csv"
    with pytest.raises(ValidationError) as info:
        writer(path, np.zeros(n), np.ones(n))
    assert str(info.value) == f"{path}: need at least 2 data rows, got {n}"
    assert not path.exists()


@pytest.mark.parametrize(
    "text",
    [
        "time_s,field\r\n0.0,1.0\r\n1e-6,2.0\r\n",
        "time_s,field\n\n0.0,1.0\n\n1e-6,2.0\n\n",
        " time_s,field \n 0.0 , 1_0 \n1e-6,\t2.0\n",
        "time_s,field\n0.0,1.0\n1e-6,2.0",
        "time_s,field\n0.0,-0\n1e-6,2.0\n",
        "time_s,field\n0.0, -0 \n1e-6,2.0\n",
        "time_s,field\n0.0,-00\n1e-6,2.0\n",
        "time_s,field\n0.0,01\n1e-6,2.0\n",
        "time_s,field\n0.0,1e-0\n1e-6,2.0\n",
        "time_s,field\n0.0,-0e0\n1e-6,2.0\n",
        "time_s,field\n0.0,9007199254740993\n1e-6,2.0\n",
        "time_s,field\n0.0,18446744073709551616\n1e-6,2.0\n",
        "time_s,field\n0.0,-9223372036854775809\n1e-6,2.0\n",
        "time_s,field\n0.0,1.0\n\x0c1e-6,2.0\n",
        "time_s,field\n0.0,1.0\n1e-6,2.0\n\n",
    ],
    ids=["crlf", "blank-lines", "spaces-and-underscore", "no-final-newline", "minus-0",
         "padded-minus-0", "minus-00", "leading-zero", "exponent-minus-0", "minus-0-exponent",
         "2**53+1", "2**64", "-2**63-1", "form-feed-line", "blank-last-line"],
)
def test_reader_parses_like_reference(tmp_path, text):
    path = tmp_path / "r.csv"
    path.write_bytes(text.encode("ascii"))
    header, data = _read_csv(path, {"time_s,field"})
    ref_header, ref_data = reference_read(path, {"time_s,field"})
    assert header == ref_header
    assert data.tobytes() == ref_data.tobytes()


@pytest.mark.parametrize(
    "text",
    [
        "time_s,volts\n0.0,1.0\n1e-6,2.0\n",
        "time_s,field\n0.0,1.0\n1e-6\n2e-6,3.0\n",
        "time_s,field\n0.0,1.0\n1e-6,2.0,3.0\n",
        "time_s,field\n0.0,1.0,2.0\n1e-6\n",
        "time_s,field\n0.0,1.0,2.0\n1e-6,2.0,3.0\n",
        "time_s,field\n0.0,1.0\n1e-6,oops\n",
        "time_s,field\n0.0,1.0\n   \n",
        "time_s,field\n0.0,1.0\n",
        "time_s,field\n",
        "time_s,field\n0.0\n1e-6\n",
        "time_s,field\n0.0,true\n1e-6,2.0\n",
        "time_s,field\n0.0,false\n1e-6,2.0\n",
        "time_s,field\n0.0,null\n1e-6,2.0\n",
        "time_s,field\n0.0,[1.0]\n1e-6,2.0\n",
        "time_s,field\n0.0,1],[2,3.0\n1e-6,2.0\n",
        "time_s,field\n0.0,\x0c1.0\n1e-6,2.0\n",
    ],
    ids=["header", "short-row", "long-row", "long-then-short-row", "wide-rows", "malformed-cell",
         "blank-cells", "one-row", "no-rows", "narrow-rows", "true", "false", "null", "json-array",
         "bracketed-row-pair", "form-feed-cell"],
)
def test_reader_rejects_like_reference(tmp_path, text):
    path = tmp_path / "bad.csv"
    path.write_text(text)
    with pytest.raises(ValidationError):
        reference_read(path, {"time_s,field"})
    with pytest.raises(ValidationError, match=re.escape(str(path))):
        _read_csv(path, {"time_s,field"})


@pytest.mark.parametrize("token", ["true", "false", "null", "[1.0]", '"1.0"'])
def test_json_values_are_malformed_cells(tmp_path, token):
    path = tmp_path / "json.csv"
    path.write_text(f"time_s,field\n0.0,{token}\n1e-6,2.0\n")
    with pytest.raises(ValidationError) as info:
        _read_csv(path, {"time_s,field"})
    assert str(info.value) == (
        f"{path}: malformed numeric row (could not convert string to float: {token!r})")


# cells that are not plain float reprs; Python's float accepts some of them
ODD_CELLS = ("", " ", "#", "#1.0", "1.0#", '"1.0"', "'1.0'", "1__0", "_1", "1_", "1.0e",
             "nan", "-nan", "NaN", "inf", "-inf", "+Infinity", "infinity", "0x10",
             # JSON's other tokens, and numbers JSON spells or reads otherwise than float
             "true", "false", "null", "[1.0]", "1],[2", "-0", " -0 ", "-00", "01", "1e-0", "-0e0",
             "9007199254740993", "18446744073709551616", "-9223372036854775809", "1e400",
             "\x0c1.0")


@st.composite
def csv_cells(draw):
    if draw(st.integers(0, 15)) == 15:
        return draw(st.sampled_from(ODD_CELLS))
    text = repr(float(draw(finite)))
    # an underscore between two digits is part of Python's float grammar
    i = draw(st.integers(0, len(text)))
    if 0 < i < len(text) and text[i - 1].isdigit() and text[i].isdigit():
        text = text[:i] + "_" + text[i:]
    pad = st.sampled_from(["", " ", "\t", " \t", "\t "])
    return draw(pad) + text + draw(pad)


@st.composite
def csv_texts(draw):
    n_cols = draw(st.sampled_from(sorted(HEADERS)))
    # now and then the header names the other column count
    header_cols = {2: 3, 3: 2}[n_cols] if draw(st.integers(0, 9)) == 9 else n_cols
    lines = [draw(st.sampled_from(["", " "])) + HEADERS[header_cols]]
    for _ in range(draw(st.integers(2, 6))):
        if draw(st.integers(0, 5)) == 5:
            lines.append("")
        ragged = draw(st.integers(0, 19)) == 19
        width = draw(st.integers(1, n_cols + 1)) if ragged else n_cols
        lines.append(",".join(draw(csv_cells()) for _ in range(width)))
    end = draw(st.sampled_from(["\n", "\r\n"]))
    return end.join(lines) + draw(st.sampled_from(["", end]))


@settings(max_examples=50, deadline=None)
@given(text=csv_texts())
def test_reader_grammar_matches_reference(csv_file, text):
    headers = set(HEADERS.values())
    csv_file.write_bytes(text.encode("ascii"))
    try:
        expected = reference_read(csv_file, headers)
    except ValidationError:
        expected = None
    if expected is not None and not np.isfinite(expected[1]).all():
        expected = None  # the reader also rejects non-finite cells
    if expected is None:
        with pytest.raises(ValidationError, match=re.escape(str(csv_file))):
            _read_csv(csv_file, headers)
    else:
        header, data = _read_csv(csv_file, headers)
        assert header == expected[0]
        assert data.tobytes() == expected[1].tobytes()


def test_ragged_row_past_first_block_is_rejected(tmp_path):
    rows = [f"{k * 1e-6!r},1.0" for k in range(BLOCK_ROWS + 8)]
    rows[BLOCK_ROWS + 3] += ",2.0"
    text = "\n".join(["time_s,field"] + rows) + "\n"
    # the first parse block ends at the first line end READ_BLOCK_BYTES or more past the header
    assert text.index(rows[BLOCK_ROWS + 3]) > len("time_s,field\n") + READ_BLOCK_BYTES
    path = tmp_path / "bad.csv"
    path.write_text(text)
    with pytest.raises(ValidationError, match="columns"):
        _read_csv(path, {"time_s,field"})


def test_blank_last_line_after_a_parse_block_is_not_a_row(tmp_path):
    # the last row's line end is the first at or past READ_BLOCK_BYTES, so the
    # first block ends there and the blank line is all that is left
    rows, size = [], 0
    while size <= READ_BLOCK_BYTES:
        rows.append(f"{len(rows) * 1e-6!r},1.0")
        size += len(rows[-1]) + 1
    path = tmp_path / "blank.csv"
    path.write_text("\n".join(["time_s,field"] + rows) + "\n\n")
    header, data = _read_csv(path, {"time_s,field"})
    assert data.tobytes() == reference_read(path, {header})[1].tobytes()


@pytest.mark.parametrize(
    "bad,message",
    [("oops", "malformed numeric row (could not convert string to float: 'oops')"),
     ("1e400", "non-finite value inf in data row 4096, column 3"),
     ("-0", None)],
    ids=["malformed", "overflow", "minus-0"],
)
def test_cell_in_the_last_parse_block_of_a_long_table(tmp_path, bad, message):
    n = 4096
    path = _package_file(tmp_path, n, 3)
    assert path.stat().st_size > 8 * READ_BLOCK_BYTES
    *rows, last, end = path.read_text().split("\n")
    path.write_text("\n".join([*rows, last.rsplit(",", 1)[0] + "," + bad, end]))
    if message is None:
        header, data = _read_csv(path, {"detuning_hz,re,im"})
        assert data.tobytes() == reference_read(path, {header})[1].tobytes()
        assert math.copysign(1.0, data[-1, 2]) == -1.0
    else:
        with pytest.raises(ValidationError) as info:
            read_spectrum_csv(path)
        assert str(info.value) == f"{path}: {message}"


def _table(header: str, bad: str) -> str:
    n_cols = header.count(",") + 1
    deltas = (np.arange(8) - 4) * 100.0
    rows = [",".join([repr(float(d))] + ["0.5"] * (n_cols - 1)) for d in deltas]
    rows[5] = rows[5].rsplit(",", 1)[0] + "," + bad
    return "\n".join([header] + rows) + "\n"


@pytest.mark.parametrize("bad", ["nan", "inf", "-inf", "NaN", "Infinity", "1e400", "-1e400"])
@pytest.mark.parametrize(
    "reader,header",
    [
        (read_timeseries_csv, "time_s,field"),
        (read_spectrum_csv, "detuning_hz,re,im"),
        (read_detuning_series_csv, "detuning_hz,intensity"),
        (read_detuning_series_csv, "detuning_hz,intensity_gain"),
        (read_transmission_csv, "detuning_hz,transmission"),
    ],
    ids=["timeseries", "spectrum", "intensity-spectrum", "gain", "transmission"],
)
def test_readers_reject_non_finite_cells(tmp_path, reader, header, bad):
    path = tmp_path / "nonfinite.csv"
    path.write_text(_table(header, bad))
    with pytest.raises(ValidationError, match="non-finite") as info:
        reader(path)
    assert str(path) in str(info.value)
    assert "row 6" in str(info.value)


def test_non_finite_axis_is_rejected(tmp_path):
    path = tmp_path / "axis.csv"
    path.write_text("detuning_hz,intensity\n-100.0,0.1\nnan,0.2\n100.0,0.3\n")
    with pytest.raises(ValidationError, match="non-finite value nan in data row 2, column 1"):
        read_detuning_series_csv(path)
