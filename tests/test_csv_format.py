"""Block-wise CSV writer and one-pass reader against a per-cell reference.

The reference functions below are the straightforward forms of the writer
(repr of each cell, row by row) and the reader (float() of each cell in a
nested list): the io functions must produce the same bytes and the same
arrays, and fail on the same inputs.
"""

import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from slowlight import ValidationError
from slowlight.io import (
    BLOCK_ROWS,
    _axis_blocks,
    _read_csv,
    _write_csv,
    read_detuning_series_csv,
    read_spectrum_csv,
    read_timeseries_csv,
    read_transmission_csv,
)

HEADERS = {2: "time_s,field", 3: "detuning_hz,re,im"}
EDGE_LENGTHS = (1, 2, BLOCK_ROWS - 1, BLOCK_ROWS, BLOCK_ROWS + 1, 2 * BLOCK_ROWS + 1)
SPECIAL = (0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308 / 3, 1e16, -1e16,
           1e-7, 123456789.0, 0.1, np.finfo(np.float64).max, -np.finfo(np.float64).max)


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
    for _ in range(1, n_cols):
        col = rng.standard_normal(n) * 10.0 ** rng.integers(-300, 300, n)
        picks = rng.integers(0, n, len(SPECIAL))
        col[picks] = SPECIAL
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
    _write_csv(csv_file, header, list(table))
    assert csv_file.read_bytes() == reference_text(header, table).encode("ascii")
    if n >= 2:
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
    _write_csv(first, header, cols)
    # second write reuses the formatted axis; the data must still be formatted afresh
    other = [cols[0]] + [c[::-1].copy() for c in cols[1:]]
    _write_csv(again, header, other)
    memo = _axis_blocks.cache_info()
    assert (memo.hits, memo.misses, memo.maxsize) == (1, 1, 2)  # only the axis is memoised
    assert first.read_text() == reference_text(header, cols)
    assert again.read_text() == reference_text(header, other)


def test_writer_rejects_columns_of_different_lengths(tmp_path):
    with pytest.raises(ValidationError, match="one length"):
        _write_csv(tmp_path / "x.csv", "time_s,field", [np.arange(4.0), np.arange(3.0)])


@pytest.mark.parametrize(
    "text",
    [
        "time_s,field\r\n0.0,1.0\r\n1e-6,2.0\r\n",
        "time_s,field\n\n0.0,1.0\n\n1e-6,2.0\n\n",
        " time_s,field \n 0.0 , 1_0 \n1e-6,\t2.0\n",
        "time_s,field\n0.0,1.0\n1e-6,2.0",
    ],
    ids=["crlf", "blank-lines", "spaces-and-underscore", "no-final-newline"],
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
    ],
    ids=["header", "short-row", "long-row", "long-then-short-row", "wide-rows", "malformed-cell",
         "blank-cells", "one-row", "no-rows"],
)
def test_reader_rejects_like_reference(tmp_path, text):
    path = tmp_path / "bad.csv"
    path.write_text(text)
    with pytest.raises(ValidationError):
        reference_read(path, {"time_s,field"})
    with pytest.raises(ValidationError, match=re.escape(str(path))):
        _read_csv(path, {"time_s,field"})


# cells that are not plain float reprs; Python's float accepts some of them
ODD_CELLS = ("", " ", "#", "#1.0", "1.0#", '"1.0"', "'1.0'", "1__0", "_1", "1_", "1.0e",
             "nan", "-nan", "NaN", "inf", "-inf", "+Infinity", "infinity", "0x10")


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
    path = tmp_path / "bad.csv"
    path.write_text("\n".join(["time_s,field"] + rows) + "\n")
    with pytest.raises(ValidationError, match="columns"):
        _read_csv(path, {"time_s,field"})


def _table(header: str, bad: str) -> str:
    n_cols = header.count(",") + 1
    deltas = (np.arange(8) - 4) * 100.0
    rows = [",".join([repr(float(d))] + ["0.5"] * (n_cols - 1)) for d in deltas]
    rows[5] = rows[5].rsplit(",", 1)[0] + "," + bad
    return "\n".join([header] + rows) + "\n"


@pytest.mark.parametrize("bad", ["nan", "inf", "-inf", "NaN", "Infinity"])
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
