"""CSV ingestion and emission for datasets, factors, and traces.

The dataset format is N rows of M comma-separated non-negative decimals
with an optional single header row of time labels ``t=<seconds>`` fixing
the sampling step. Blank lines are skipped. numpy's parser streams the file
once; a ``float`` cell scan re-reads it only to name a defect's line (and column).
Numbers are written with Python's shortest round-trip representation so
exported files re-ingest bit-identically; rows are formatted a slice of
about ``_SLICE_CELLS`` cells at a time, through one ``%`` call per slice. Both
writers reject a non-finite value, and a table that would not re-ingest.
"""

from __future__ import annotations

import logging
from collections.abc import Iterator
from contextlib import contextmanager
from dataclasses import dataclass
from itertools import chain

import numpy as np

from .errors import ValidationError
from .initialization import TimeGrid, time_vector
from .linalg import first_bad

logger = logging.getLogger(__name__)

# Cells formatted by one ``%`` call. A slice's Python floats and text take a
# few hundred kB; test_memory's synth bound leaves little more than that.
_SLICE_CELLS = 8192


@dataclass
class TimeSeriesSet:
    """A data matrix (recordings x time points) with its sampling grid."""

    values: np.ndarray
    grid: TimeGrid
    dt_source: str  # "header" | "flag" | "default"


def _parse_cell(raw: str, line_no: int, col_no: int) -> float:
    try:
        value = float(raw)
    except ValueError:
        raise ValidationError(
            f"non-numeric cell {raw!r} at line {line_no}, column {col_no}"
        ) from None
    if not np.isfinite(value):
        raise ValidationError(f"non-finite cell {raw!r} at line {line_no}, column {col_no}")
    return value


@contextmanager
def open_text(path):
    """``path`` opened to read as UTF-8, a leading byte-order mark (which
    spreadsheet exports begin with) dropped; a byte that is not UTF-8 raises
    :class:`ValidationError` naming ``path``."""
    with open(path, "r", encoding="utf-8-sig") as fh:
        try:
            yield fh
        except UnicodeDecodeError as exc:
            raise ValidationError(f"{path}: {exc}") from None


def _numbered_lines(path) -> list[tuple[int, str]]:
    with open(path, "r", encoding="utf-8-sig") as fh:
        return [(no, line.rstrip("\n")) for no, line in enumerate(fh, 1) if line.strip()]


def _first_line(fh) -> tuple[int, str] | None:
    """The next non-blank line of ``fh`` and its number, or None at the end."""
    return next(((no, line) for no, line in enumerate(fh, 1) if line.strip()), None)


def _parse_rows(path, first: str, fh, skip: int, nonnegative: bool) -> np.ndarray:
    """Parse ``first`` and the rest of ``fh`` with numpy's C parser.

    A parse failure or a masked cell reads ``path`` again, past its first
    ``skip`` non-blank lines, through a plain cell scan, which names the first
    defect in file order. A file without one (cells such as ``1_0`` that
    ``float`` reads and numpy does not) yields the scan's array.
    """
    try:
        values = np.loadtxt(chain((first,), fh), delimiter=",", comments=None, ndmin=2)
        if first_bad(values, nonnegative) is None:
            return values
    except ValueError:
        pass  # a ragged row, a whitespace-only line, or a cell that numpy cannot read
    rows = _numbered_lines(path)[skip:]
    width = rows[0][1].count(",") + 1
    table = []
    for line_no, line in rows:
        cells = line.split(",")
        if len(cells) != width:
            raise ValidationError(
                f"ragged row at line {line_no}: {len(cells)} cells, expected {width}"
            )
        table.append([])
        for col_no, cell in enumerate(cells, start=1):
            value = _parse_cell(cell.strip(), line_no, col_no)
            if nonnegative and value < 0.0:
                raise ValidationError(
                    f"negative value {value!r} at line {line_no}, column {col_no}; "
                    "the data contract is non-negative"
                )
            table[-1].append(value)
    return np.array(table)


def ingest_csv(path, dt: float | None = None) -> TimeSeriesSet:
    """Read a dataset CSV; rows keep file order (chronological recordings).

    The sampling step comes from the ``t=...`` header when present, else
    from the ``dt`` argument, else defaults to 1.0 with a warning. Ragged
    rows, non-numeric cells, and negative values are validation errors that
    name the offending line (and column). A bad ``dt`` is rejected even when
    a header fixes the step.
    """
    if dt is not None:
        time_vector(1, float(dt))
    with open_text(path) as fh:
        first = _first_line(fh)
        if first is None:
            raise ValidationError(f"{path}: no data rows")
        header_times, skip = None, 0
        first_cells = [c.strip() for c in first[1].split(",")]
        if all(c.startswith("t=") for c in first_cells):
            header_times = [_parse_cell(c[2:], first[0], col) for col, c in enumerate(first_cells, 1)]
            first, skip = _first_line(fh), 1
            if first is None:
                raise ValidationError(f"{path}: header but no data rows")
        values = _parse_rows(path, first[1], fh, skip, nonnegative=True)

    inferred = None
    if header_times is not None:
        if len(header_times) != values.shape[1]:
            raise ValidationError(
                f"header has {len(header_times)} time labels but rows have "
                f"{values.shape[1]} cells"
            )
        inferred = _infer_dt(header_times)

    if inferred is not None:
        step, source = inferred, "header"
    elif dt is not None:
        step, source = float(dt), "flag"
    else:
        step, source = 1.0, "default"
        why = "no time header" if header_times is None else "one time label fixes no step,"
        logger.warning("%s: %s and no --dt; assuming dt = 1.0", path, why)
    return TimeSeriesSet(values=values, grid=time_vector(values.shape[1], step), dt_source=source)


def _infer_dt(times: list[float]) -> float | None:
    if len(times) < 2:
        return None
    gaps = np.diff(np.asarray(times))
    step = float(gaps[0])
    if step <= 0.0 or np.any(np.abs(gaps - step) > 1e-9 * step):
        raise ValidationError("time header is not uniformly increasing; cannot infer dt")
    return step


def format_number(value: float) -> str:
    """Shortest decimal that round-trips to the same float."""
    return repr(float(value))


def _write_rows(fh, table: np.ndarray, row: str) -> None:
    """Write ``table`` to ``fh`` through the ``%`` template ``row`` of one row,
    formatting a slice of about :data:`_SLICE_CELLS` cells per call.

    ``repr`` of a Python float (``%r``) is :func:`format_number`'s output.
    """
    step = max(1, _SLICE_CELLS // max(1, table.shape[1]))
    for start in range(0, len(table), step):
        cells = table[start : start + step]
        fh.write(row * len(cells) % tuple(cells.ravel().tolist()))


def _check_block(block: np.ndarray, first_row: int, width: int | None) -> None:
    """Reject ``block``, whose rows follow ``first_row`` written ones, unless it is
    2-D, ``width`` cells wide (when given) and finite, naming its first row, or the
    row and column of its first non-finite value."""
    if block.ndim != 2:
        raise ValidationError(f"cannot write a {block.ndim}-D block at row {first_row + 1} as CSV")
    if width not in (None, block.shape[1]):
        raise ValidationError(
            f"cannot write rows of {block.shape[1]} cells at row {first_row + 1} "
            f"into a CSV table {width} cells wide"
        )
    if (bad := first_bad(block)) is not None:
        raise ValidationError(
            f"cannot write the non-finite value {float(block[bad])!r} at row "
            f"{first_row + bad[0] + 1}, column {bad[1] + 1} as CSV"
        )


def write_matrix_csv(path, matrix, grid: TimeGrid | None = None) -> None:
    """Write a matrix as CSV, optionally with a ``t=...`` header row.

    ``matrix`` is an array-like (1-D for one row), or an iterator of 2-D float
    row blocks, written in order, so that a caller need not hold every row.
    Rows are formatted a slice at a time. A table that would not re-ingest raises
    :class:`ValidationError`: more than two dimensions, a block that is not 2-D,
    rows not as wide as the header (or the first block) or a non-finite value.
    An array is checked before the file is opened, a row block before it is written.
    """
    width = None if grid is None else grid.m
    if not isinstance(matrix, Iterator):
        table = np.atleast_2d(np.asarray(matrix, dtype=float))
        if table.ndim > 2:
            raise ValidationError(f"cannot write an array of shape {table.shape} as CSV")
        _check_block(table, 0, width)
        matrix = [table]
    with open(path, "w", encoding="utf-8") as fh:
        if grid is not None:
            fh.write(",".join(f"t={format_number(v)}" for v in grid.values) + "\n")
        rows = 0
        for block in matrix:
            _check_block(block, rows, width)
            width = block.shape[1]
            _write_rows(fh, block, ",".join(["%r"] * width) + "\n")
            rows += len(block)


def read_matrix_csv(path) -> np.ndarray:
    """Read a plain numeric CSV (no header) into a 2-D array; errors name the file."""
    with open_text(path) as fh:
        first = _first_line(fh)
        if first is None:
            raise ValidationError(f"{path}: empty matrix file")
        try:
            return _parse_rows(path, first[1], fh, 0, nonnegative=False)
        except ValidationError as exc:
            raise ValidationError(f"{path}: {exc}") from None


def write_trace_csv(path, costs, names=("cost",)) -> None:
    """Write an ``iteration,<names>`` table of one series or one column per name, a slice at a
    time; a table of another width or with a non-finite value is rejected before opening."""
    table = np.asarray(costs, dtype=float)
    if table.size != len(table) * len(names):
        raise ValidationError(f"cannot write a trace of shape {table.shape} for {len(names)} name(s)")
    table = table.reshape(len(table), len(names))
    indexed = np.column_stack((np.arange(1.0, len(table) + 1.0), table))
    _check_block(indexed, 0, None)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(",".join(("iteration", *names)) + "\n")
        _write_rows(fh, indexed, "%d," + ",".join(["%r"] * len(names)) + "\n")
