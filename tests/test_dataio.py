import math
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import tsnmf.dataio as dataio
from tsnmf import ValidationError, time_vector
from tsnmf.dataio import (
    format_number,
    ingest_csv,
    read_matrix_csv,
    write_matrix_csv,
    write_trace_csv,
)


class TestIngest:
    def test_plain_grid_defaults_dt(self, tmp_path):
        path = tmp_path / "data.csv"
        path.write_text("1,2\n3,4\n5,6\n")
        ts = ingest_csv(path)
        assert np.array_equal(ts.values, [[1.0, 2.0], [3.0, 4.0], [5.0, 6.0]])
        assert ts.dt_source == "default"
        assert ts.grid.dt == 1.0

    def test_header_fixes_dt(self, tmp_path):
        path = tmp_path / "data.csv"
        path.write_text("t=0,t=5\n1,2\n")
        ts = ingest_csv(path)
        assert ts.dt_source == "header"
        assert ts.grid.dt == 5.0
        assert np.array_equal(ts.values, [[1.0, 2.0]])

    @pytest.mark.parametrize(
        "dt,message",
        [
            (-1.0, "time step must be positive, got dt = -1.0"),
            (0.0, "time step must be positive, got dt = 0.0"),
            (float("nan"), "time step must be finite, got dt = nan"),
        ],
    )
    @pytest.mark.parametrize("text", ["t=0,t=5\n1,2\n", "1,2\n"])
    def test_bad_dt_rejected_with_or_without_header(self, tmp_path, text, dt, message):
        path = tmp_path / "data.csv"
        path.write_text(text)
        with pytest.raises(ValidationError) as info:
            ingest_csv(path, dt=dt)
        assert str(info.value) == message

    def test_bad_dt_checked_before_reading(self, tmp_path):
        with pytest.raises(ValidationError, match="positive"):
            ingest_csv(tmp_path / "missing.csv", dt=-1.0)

    @pytest.mark.parametrize("grid", [None, time_vector(3, 2.5)])
    def test_byte_order_mark_ignored(self, tmp_path, grid):
        # Spreadsheet "CSV UTF-8" exports begin the file with one.
        plain, marked = tmp_path / "plain.csv", tmp_path / "marked.csv"
        write_matrix_csv(plain, [[0.1, 2.0, 3.5], [4.0, 0.0, 1e-3]], grid=grid)
        marked.write_bytes(b"\xef\xbb\xbf" + plain.read_bytes())
        expected, ts = ingest_csv(plain), ingest_csv(marked)
        assert ts.values.tobytes() == expected.values.tobytes()
        assert ts.grid.values.tobytes() == expected.grid.values.tobytes()
        assert ts.dt_source == expected.dt_source == ("default" if grid is None else "header")

    def test_flag_used_without_header(self, tmp_path):
        path = tmp_path / "data.csv"
        path.write_text("1,2\n")
        ts = ingest_csv(path, dt=2.5)
        assert ts.dt_source == "flag"
        assert ts.grid.dt == 2.5

    def test_round_trip_is_bit_identical(self, tmp_path):
        rng = np.random.default_rng(0)
        matrix = rng.random((540, 32)) * 800.0
        grid = time_vector(32, 5.0)
        path = tmp_path / "export.csv"
        write_matrix_csv(path, matrix, grid=grid)
        ts = ingest_csv(path)
        assert np.array_equal(ts.values, matrix)
        assert ts.grid.dt == 5.0

    def test_ragged_row_reports_line(self, tmp_path):
        path = tmp_path / "data.csv"
        path.write_text("1,2\n3,4,5\n")
        with pytest.raises(ValidationError, match="line 2"):
            ingest_csv(path)

    def test_negative_value_reports_coordinates(self, tmp_path):
        path = tmp_path / "data.csv"
        path.write_text("1,2\n3,-4\n")
        with pytest.raises(ValidationError, match="line 2, column 2"):
            ingest_csv(path)

    def test_non_numeric_cell_reports_coordinates(self, tmp_path):
        path = tmp_path / "data.csv"
        path.write_text("1,x\n")
        with pytest.raises(ValidationError, match="line 1, column 2"):
            ingest_csv(path)

    @pytest.mark.parametrize("cell", ["nan", "inf", "1e309"])
    def test_non_finite_cell_reports_coordinates(self, tmp_path, cell):
        path = tmp_path / "data.csv"
        path.write_text(f"1,2\n3,{cell}\n")
        with pytest.raises(
            ValidationError, match=f"non-finite cell '{cell}' at line 2, column 2"
        ):
            ingest_csv(path)

    @pytest.mark.parametrize(
        "text, message",
        [
            ("1,-2\n3,x\n", "negative value -2.0 at line 1, column 2"),
            ("1,x\n3,-4\n", "non-numeric cell 'x' at line 1, column 2"),
            ("-1,x\n", "negative value -1.0 at line 1, column 1"),
            ("1,nan\n2,3,4\n", "non-finite cell 'nan' at line 1, column 2"),
            ("1,2\n3,4,5\n-1,x\n", "ragged row at line 2"),
            ("1,2\n\n3,x\n-4,5\n", "non-numeric cell 'x' at line 3, column 2"),
        ],
    )
    def test_first_defect_in_file_order_is_reported(self, tmp_path, text, message):
        path = tmp_path / "data.csv"
        path.write_text(text)
        with pytest.raises(ValidationError, match=message):
            ingest_csv(path)

    def test_header_width_mismatch(self, tmp_path):
        path = tmp_path / "data.csv"
        path.write_text("t=0,t=5,t=10\n1,2\n")
        with pytest.raises(ValidationError, match="header"):
            ingest_csv(path)

    def test_non_uniform_header_rejected(self, tmp_path):
        path = tmp_path / "data.csv"
        path.write_text("t=0,t=5,t=11\n1,2,3\n")
        with pytest.raises(ValidationError, match="uniform"):
            ingest_csv(path)

    @pytest.mark.parametrize("unit", ["e-9", "", "e3"], ids=["ns", "s", "ks"])
    def test_header_check_is_scale_free(self, tmp_path, unit):
        # The same grids in nanoseconds, seconds and kiloseconds get the same answer.
        path = tmp_path / "data.csv"
        path.write_text(f"t=0,t=1{unit},t=3{unit}\n1,2,3\n")
        with pytest.raises(ValidationError, match="uniform"):
            ingest_csv(path)
        path.write_text(f"t=0,t=1{unit},t=2{unit}\n1,2,3\n")
        assert ingest_csv(path).grid.dt == float(f"1{unit}")

    def test_empty_file(self, tmp_path):
        path = tmp_path / "data.csv"
        path.write_text("\n\n")
        with pytest.raises(ValidationError, match="no data"):
            ingest_csv(path)

    def test_missing_file_raises_oserror(self, tmp_path):
        with pytest.raises(OSError):
            ingest_csv(tmp_path / "absent.csv")

    def test_cells_only_float_reads_are_accepted(self, tmp_path):
        # numpy's parser rejects these three cells; float reads them.
        path = tmp_path / "data.csv"
        path.write_text("1_0, \u0661 ,\t2.5\n3,4,5\n")
        ts = ingest_csv(path, dt=1.0)
        assert ts.values.tobytes() == np.array([[10.0, 1.0, 2.5], [3.0, 4.0, 5.0]]).tobytes()


class TestStreamedIngest:
    """A defect-free file is read in one pass; only a defect re-reads it."""

    def test_clean_file_is_not_read_line_by_line(self, tmp_path, monkeypatch):
        def no_rescan(path):
            raise AssertionError("a defect-free file was re-read")

        monkeypatch.setattr(dataio, "_numbered_lines", no_rescan)
        path = tmp_path / "data.csv"
        text = "\r\nt=0,t=2.5\r\n1,2\r\n\r\n3,4.5\r\n\r\n"
        path.write_bytes(b"\xef\xbb\xbf" + text.encode())
        ts = ingest_csv(path)
        assert ts.values.tobytes() == np.array([[1.0, 2.0], [3.0, 4.5]]).tobytes()
        assert (ts.dt_source, ts.grid.dt) == ("header", 2.5)
        path.write_bytes(b"\xef\xbb\xbf\r\n1,-2\r\n\r\n3,4.5\r\n")
        assert read_matrix_csv(path).tobytes() == np.array([[1.0, -2.0], [3.0, 4.5]]).tobytes()

    @pytest.mark.parametrize(
        "defect, message",
        [
            (None, None),
            ("1,2", "ragged row at line 4321: 2 cells, expected 3"),
            (
                "1,-2,3",
                "negative value -2.0 at line 4321, column 2; the data contract is non-negative",
            ),
        ],
        ids=["whitespace-only-line", "ragged-row", "negative-cell"],
    )
    def test_defect_deep_in_a_long_file_names_its_line(self, tmp_path, defect, message):
        # Line 1 is the header and line 2000 holds only spaces: both are counted.
        lines = ["t=0,t=1,t=2"] + ["1,2,3"] * 5000
        lines[1999] = "   "
        if defect is not None:
            lines[4320] = defect
        path = tmp_path / "data.csv"
        path.write_text("\n".join(lines) + "\n")
        if message is None:
            expected = np.tile([1.0, 2.0, 3.0], (4999, 1))
            assert ingest_csv(path).values.tobytes() == expected.tobytes()
        else:
            with pytest.raises(ValidationError) as info:
                ingest_csv(path)
            assert str(info.value) == message

    @pytest.mark.parametrize(
        "read, text, message",
        [
            (ingest_csv, "", "no data rows"),
            (ingest_csv, "\n  \r\n\n", "no data rows"),
            (ingest_csv, "\nt=0,t=5\n\n", "header but no data rows"),
            (read_matrix_csv, "", "empty matrix file"),
            (read_matrix_csv, " \n\n", "empty matrix file"),
        ],
    )
    def test_empty_files_keep_their_message_and_warn_nothing(self, tmp_path, read, text, message):
        path = tmp_path / "data.csv"
        path.write_text(text)
        with warnings.catch_warnings(record=True) as caught, pytest.raises(ValidationError) as info:
            warnings.simplefilter("always")
            read(path)
        assert str(info.value) == f"{path}: {message}"
        assert not caught


def reference_parse(text: str, nonnegative: bool):
    """The reader's contract, cell by cell with ``float``: the array, or the
    message that names the first defect in file order."""
    rows = [(no, line) for no, line in enumerate(text.splitlines(), start=1) if line.strip()]
    if not rows:
        return None
    width = rows[0][1].count(",") + 1
    table = []
    for line_no, line in rows:
        cells = line.split(",")
        if len(cells) != width:
            return f"ragged row at line {line_no}: {len(cells)} cells, expected {width}"
        table.append([])
        for col_no, cell in enumerate(cells, start=1):
            where = f"at line {line_no}, column {col_no}"
            try:
                value = float(cell)
            except ValueError:
                return f"non-numeric cell {cell.strip()!r} {where}"
            if not math.isfinite(value):
                return f"non-finite cell {cell.strip()!r} {where}"
            if nonnegative and value < 0.0:
                return f"negative value {value!r} {where}; the data contract is non-negative"
            table[-1].append(value)
    return np.array(table)


CELL = st.tuples(
    st.sampled_from(["", " ", "\t"]),
    st.one_of(
        st.floats(min_value=0.0, allow_nan=False, allow_infinity=False).map(repr),
        st.sampled_from(["+1", "1_0", "\u0661", "1e400", "nan", "-0.0", "-2", '"1"', "x", ""]),
    ),
    st.sampled_from(["", " "]),
).map("".join)


@st.composite
def csv_files(draw):
    """A dataset body: rows of one width, with ragged, blank and space-only lines
    mixed in; LF or CRLF line ends, with or without a byte-order mark."""
    width = draw(st.integers(1, 4))
    row = st.lists(CELL, min_size=width, max_size=width).map(",".join)
    ragged = st.lists(CELL, min_size=1, max_size=5).map(",".join)
    blank = st.sampled_from(["", "  "])
    lines = draw(st.lists(st.one_of(row, row, row, ragged, blank), min_size=1, max_size=6))
    newline = draw(st.sampled_from(["\n", "\r\n"]))
    return draw(st.sampled_from(["", "\ufeff"])), newline.join(lines) + newline


@settings(max_examples=150, deadline=None)
@given(csv_files())
@example(("\ufeff", "1_0,\u0661\r\n\r\n 3 ,-0.0\r\n"))
def test_readers_match_the_per_cell_reference(tmp_path_factory, bom_and_text):
    bom, text = bom_and_text
    path = tmp_path_factory.mktemp("differential") / "data.csv"
    path.write_bytes((bom + text).encode("utf-8"))
    for read, nonnegative, prefix in (
        (lambda p: ingest_csv(p, dt=1.0).values, True, ""),
        (read_matrix_csv, False, f"{path}: "),
    ):
        expected = reference_parse(text, nonnegative)
        if expected is None:
            with pytest.raises(ValidationError, match="no data rows|empty matrix file"):
                read(path)
        elif isinstance(expected, str):
            with pytest.raises(ValidationError) as info:
                read(path)
            assert str(info.value) == prefix + expected
        else:
            values = read(path)
            assert values.shape == expected.shape
            assert values.tobytes() == expected.tobytes()


def test_format_number_round_trips():
    rng = np.random.default_rng(1)
    for value in rng.random(200) * rng.choice([1e-8, 1.0, 1e8], size=200):
        assert float(format_number(value)) == value


def test_read_matrix_csv(tmp_path):
    path = tmp_path / "m.csv"
    matrix = np.random.default_rng(2).random((4, 3))
    write_matrix_csv(path, matrix)
    assert np.array_equal(read_matrix_csv(path), matrix)


def test_write_matrix_csv_rejects_more_than_two_dimensions(tmp_path):
    path = tmp_path / "m.csv"
    with pytest.raises(ValidationError) as exc:
        write_matrix_csv(path, np.zeros((2, 2, 2)))
    assert str(exc.value) == "cannot write an array of shape (2, 2, 2) as CSV"
    assert not path.exists()


def test_read_matrix_csv_ragged(tmp_path):
    path = tmp_path / "m.csv"
    path.write_text("1,2\n3\n")
    with pytest.raises(ValidationError, match="line 2"):
        read_matrix_csv(path)


def test_read_matrix_csv_names_file_line_after_blank_lines(tmp_path):
    path = tmp_path / "m.csv"
    path.write_text("\n1,2\n3\n")
    with pytest.raises(ValidationError, match="ragged row at line 3"):
        read_matrix_csv(path)


@settings(max_examples=60, deadline=None)
@given(
    matrix=arrays(
        np.float64,
        st.tuples(st.integers(1, 6), st.integers(1, 6)),
        elements=st.floats(min_value=0.0, allow_nan=False, allow_infinity=False),
    )
)
@example(matrix=np.array([[5e-324, 2.2250738585072014e-308, 1.7976931348623157e308]]))
def test_write_then_read_is_bit_identical(tmp_path_factory, matrix):
    path = tmp_path_factory.mktemp("round_trip") / "m.csv"
    write_matrix_csv(path, matrix)
    assert read_matrix_csv(path).tobytes() == matrix.tobytes()
    assert ingest_csv(path, dt=1.0).values.tobytes() == matrix.tobytes()


def test_trace_csv(tmp_path):
    path = tmp_path / "trace.csv"
    write_trace_csv(path, [4.0, 2.0, 1.5])
    lines = path.read_text().splitlines()
    assert lines[0] == "iteration,cost"
    assert lines[1] == "1,4.0"
    assert lines[3] == "3,1.5"


def test_one_label_header_warning_says_no_step_is_inferred(tmp_path, caplog):
    import logging

    path = tmp_path / "data.csv"
    path.write_text("t=0\n1\n2\n")
    with caplog.at_level(logging.WARNING, logger="tsnmf.dataio"):
        ts = ingest_csv(path)
    assert (ts.dt_source, ts.grid.dt) == ("default", 1.0)
    assert [r.getMessage() for r in caplog.records] == [
        f"{path}: one time label fixes no step, and no --dt; assuming dt = 1.0"
    ]


def reference_write_matrix_csv(path, matrix, grid=None):
    """The writer as it was before rows were formatted a slice at a time: one
    ``repr`` join per row."""
    if not isinstance(matrix, list):
        matrix = [np.atleast_2d(np.asarray(matrix, dtype=float))]
    with open(path, "w", encoding="utf-8") as fh:
        if grid is not None:
            fh.write(",".join(f"t={format_number(v)}" for v in grid.values) + "\n")
        for block in matrix:
            for row in block:
                fh.write(",".join(map(repr, row.tolist())) + "\n")


def reference_write_trace_csv(path, costs, names=("cost",)):
    table = np.asarray(costs, dtype=float).reshape(len(costs), len(names))
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(",".join(("iteration", *names)) + "\n")
        for i, row in enumerate(table, start=1):
            fh.write(f"{i}," + ",".join(map(repr, row.tolist())) + "\n")


EDGE_VALUES = [-0.0, 5e-324, 1e16, 1e-05, 1.7976931348623157e308]


@st.composite
def tables(draw, width):
    """An (n, ``width``) array whose n falls on either side of the writer's
    slice boundaries, filled from the edge values and a few drawn floats."""
    step = max(1, dataio._SLICE_CELLS // width)
    n = draw(st.sampled_from([0, 1, 2, step - 1, step, step + 1, 2 * step + 3]))
    pool = EDGE_VALUES + draw(
        st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=1, max_size=8)
    )
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    return rng.choice(np.array(pool), size=(n, width))


@st.composite
def matrix_inputs(draw):
    m = draw(st.integers(1, 40))
    table = draw(tables(m))
    cuts = sorted(draw(st.lists(st.integers(0, len(table)), max_size=4)))
    return table, cuts, draw(st.booleans())


@settings(max_examples=80, deadline=None)
@given(matrix_inputs())
@example((np.array([EDGE_VALUES] * 2057), [2049, 2050, 2057], True))
def test_write_matrix_csv_writes_the_reference_bytes(tmp_path_factory, case):
    table, cuts, with_grid = case
    grid = time_vector(table.shape[1], 2.5) if with_grid else None
    folder = tmp_path_factory.mktemp("writer")
    blocks = np.split(table, cuts)
    reference_write_matrix_csv(folder / "ref.csv", blocks, grid)
    expected = (folder / "ref.csv").read_bytes()
    write_matrix_csv(folder / "array.csv", table, grid)
    assert (folder / "array.csv").read_bytes() == expected
    write_matrix_csv(folder / "blocks.csv", iter(blocks), grid)
    assert (folder / "blocks.csv").read_bytes() == expected


@settings(max_examples=30, deadline=None)
@given(names=st.sampled_from([("cost",), ("a", "b", "c")]), data=st.data())
def test_write_trace_csv_writes_the_reference_bytes(tmp_path_factory, names, data):
    # The iteration column counts towards a slice's cells.
    table = data.draw(tables(len(names) + 1))[:, 1:]
    costs = table[:, 0] if len(names) == 1 else table
    folder = tmp_path_factory.mktemp("trace")
    reference_write_trace_csv(folder / "ref.csv", costs, names)
    write_trace_csv(folder / "trace.csv", costs, names)
    assert (folder / "trace.csv").read_bytes() == (folder / "ref.csv").read_bytes()


@pytest.mark.parametrize(
    "write,expected",
    [
        (lambda p: write_matrix_csv(p, []), "\n"),
        (lambda p: write_matrix_csv(p, np.zeros((0, 3))), ""),
        (lambda p: write_matrix_csv(p, np.zeros((0, 3)), time_vector(3, 5.0)), "t=0.0,t=5.0,t=10.0\n"),
        (lambda p: write_matrix_csv(p, 5.0), "5.0\n"),
        (lambda p: write_trace_csv(p, []), "iteration,cost\n"),
    ],
    ids=["empty-list", "no-rows", "no-rows-with-grid", "scalar", "empty-trace"],
)
def test_edge_shapes_keep_their_bytes(tmp_path, write, expected):
    path = tmp_path / "m.csv"
    write(path)
    assert path.read_bytes() == expected.encode()


@pytest.mark.parametrize("value", [float("nan"), float("inf"), -float("inf")])
def test_write_matrix_csv_rejects_a_non_finite_array_before_opening(tmp_path, value):
    path = tmp_path / "m.csv"
    matrix = np.ones((3, 4))
    matrix[1, 2] = value
    matrix[2, 0] = float("nan")
    with pytest.raises(ValidationError) as info:
        write_matrix_csv(path, matrix)
    assert str(info.value) == f"cannot write the non-finite value {value!r} at row 2, column 3 as CSV"
    assert not path.exists()


def test_write_matrix_csv_rejects_a_non_finite_block_before_writing_it(tmp_path):
    path = tmp_path / "m.csv"
    bad = np.ones((4, 2))
    bad[3, 1] = float("inf")
    with pytest.raises(ValidationError) as info:
        write_matrix_csv(path, iter([np.zeros((5, 2)), bad]), time_vector(2, 1.0))
    assert str(info.value) == "cannot write the non-finite value inf at row 9, column 2 as CSV"
    assert path.read_text() == "t=0.0,t=1.0\n" + "0.0,0.0\n" * 5


@pytest.mark.parametrize(
    "matrix,grid,message,written",
    [
        (
            np.ones((2, 3)),
            time_vector(5, 1.0),
            "cannot write rows of 3 cells at row 1 into a CSV table 5 cells wide",
            None,
        ),
        (
            iter([np.ones((2, 3)), np.ones((1, 4))]),
            None,
            "cannot write rows of 4 cells at row 3 into a CSV table 3 cells wide",
            "1.0,1.0,1.0\n" * 2,
        ),
        (
            iter([np.ones((1, 3))]),
            time_vector(2, 1.0),
            "cannot write rows of 3 cells at row 1 into a CSV table 2 cells wide",
            "t=0.0,t=1.0\n",
        ),
        (
            iter([np.ones((2, 3)), np.ones(3)]),
            None,
            "cannot write a 1-D block at row 3 as CSV",
            "1.0,1.0,1.0\n" * 2,
        ),
    ],
    ids=["array-narrower-than-grid", "block-wider-than-first", "block-wider-than-grid", "1d-block"],
)
def test_write_matrix_csv_rejects_a_table_that_would_not_reingest(
    tmp_path, matrix, grid, message, written
):
    # An array is rejected before the file is opened, a block before it is written.
    path = tmp_path / "m.csv"
    with pytest.raises(ValidationError) as info:
        write_matrix_csv(path, matrix, grid)
    assert str(info.value) == message
    assert (path.read_text() if path.exists() else None) == written


def test_write_trace_csv_rejects_a_table_that_does_not_fit_its_names(tmp_path):
    path = tmp_path / "trace.csv"
    with pytest.raises(ValidationError) as info:
        write_trace_csv(path, [[1.0, 2.0]], ("a",))
    assert str(info.value) == "cannot write a trace of shape (1, 2) for 1 name(s)"
    assert not path.exists()


@pytest.mark.parametrize("value", [float("nan"), float("inf"), -float("inf")])
def test_write_trace_csv_rejects_a_non_finite_cost_before_opening(tmp_path, value):
    path = tmp_path / "trace.csv"
    with pytest.raises(ValidationError) as info:
        write_trace_csv(path, [[1.0, 2.0], [3.0, value], [float("nan"), 4.0]], ("a", "b"))
    # The iteration column is the file's first, so cost b is column 3.
    expected = f"cannot write the non-finite value {value!r} at row 2, column 3 as CSV"
    assert str(info.value) == expected
    assert not path.exists()
