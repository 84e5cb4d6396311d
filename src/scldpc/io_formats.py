"""File formats: alist matrices, small integer grids, CSV reports.

Everything here writes LF-terminated text so identical runs produce
byte-identical artifacts.  An alist is written from, and read into, the
ColumnLists of its matrix; the dense matrix is an optional view.  Both
are whole-array passes: gathered joins write, one numpy call reads.
"""

from __future__ import annotations

import csv
import io
import re
from functools import lru_cache

import numpy as np

from .code_model import ColumnLists, as_column_lists, padded_lists

__all__ = [
    "alist_string",
    "write_alist",
    "read_alist_columns",
    "read_alist",
    "write_int_grid",
    "read_int_grid",
    "census_csv",
    "optimum_csv",
    "trace_csv",
]


@lru_cache(maxsize=1)
def _words(top: int) -> np.ndarray:
    """The words str(0..top), kept for the next alist of the same size."""
    return np.array([str(v) for v in range(top + 1)], dtype=object)


def alist_string(matrix) -> str:
    """Standard alist text for a binary matrix or its ColumnLists.

    Line 1 is "N M" (columns rows), line 2 the maximum column and row
    degrees, then per-column degrees, per-row degrees, per-column
    1-based row indices padded with zeros to the maximum degree, and
    per-row column indices padded likewise.
    """
    ones = as_column_lists(matrix)
    nrows, ncols = ones.shape
    if nrows == 0 or ncols == 0:
        raise ValueError("need a nonempty 2-d matrix")
    rows, cols = ones.rows, ones.cols
    by_row = np.argsort(rows, kind="stable")  # columns stay ascending in a row
    col_deg = np.bincount(cols, minlength=ncols)
    row_deg = np.bincount(rows, minlength=nrows)
    dc, dr = int(col_deg.max()), int(row_deg.max())
    # every value is at most max(nrows, ncols); a line of w words is the
    # words with a " " after each but the last, which "\n" ends.  Joining
    # each table's words on their own keeps one table's words alive at a time.
    words = _words(max(nrows, ncols))
    text = []
    for table in (np.array([[ncols, nrows], [dc, dr]]), col_deg[None], row_deg[None],
                  # 1-based indices, zeros past each list's degree
                  padded_lists(cols, rows + 1, ncols, 0),
                  padded_lists(rows[by_row], cols[by_row] + 1, nrows, 0)):
        n, w = table.shape
        lines = np.full((n, max(2 * w, 1)), " ", dtype=object)  # "\n" alone if w = 0
        lines[:, :2 * w:2] = words[table]
        lines[:, -1] = "\n"
        text.append("".join(lines.ravel().tolist()))
    return "".join(text)


def write_alist(matrix, path) -> None:
    """Write alist_string(matrix), a dense matrix or its ColumnLists, to path."""
    with open(path, "w", newline="") as fh:
        fh.write(alist_string(matrix))


def _index_lists(table: np.ndarray, degree: np.ndarray, bound: int, what: str):
    """Entries of zero-padded 1-based index lists, checked against degrees."""
    filled = np.arange(table.shape[1]) < degree[:, None]
    if not np.array_equal(table != 0, filled):
        raise ValueError(f"malformed alist file: {what} degree line disagrees "
                         f"with the {what} lists")
    if table.size and (table.min() < 0 or table.max() > bound):
        raise ValueError(f"malformed alist file: {what} list index outside "
                         f"[1, {bound}]")
    return table[filled] - 1


def read_alist_columns(path) -> ColumnLists:
    """Parse an alist file into the ColumnLists of its matrix.

    Every part of the file must agree: the header, the maximum degrees,
    both degree lines, the column lists and the row lists; a mismatch, an
    out-of-range index, a truncated file, trailing tokens, a non-integer
    token or one outside int64 raise ValueError.  A column's rows may be
    listed in any order.
    """
    with open(path) as fh:
        text = fh.read()
    # np.fromstring would read a sign with no digits after it as a sign of
    # the next token, or as 0 at the end of the text
    if ("-" in text or "+" in text) and re.search(r"[-+](?![0-9])", text):
        raise ValueError("malformed alist file: non-integer token")
    try:
        tokens = np.fromstring(text, dtype=np.int64, sep=" ")
    except ValueError as exc:
        raise ValueError("malformed alist file: non-integer token") from exc
    # np.fromstring saturates a value outside int64 to the int64 maximum,
    # whatever its sign; no alist holds that value
    if np.iinfo(np.int64).max in tokens:
        raise ValueError("malformed alist file: token outside int64")
    if len(tokens) < 4:  # blank text reads as [0], one token
        raise ValueError("malformed alist file: truncated header")
    ncols, nrows, dc, dr = (int(v) for v in tokens[:4])
    if ncols < 1 or nrows < 1 or dc < 0 or dr < 0:
        raise ValueError("malformed alist file: bad header")
    size = 4 + ncols + nrows + ncols * dc + nrows * dr
    if len(tokens) != size:
        raise ValueError(f"malformed alist file: {len(tokens)} tokens where "
                         f"the header implies {size}")
    col_deg = tokens[4:4 + ncols]
    row_deg = tokens[4 + ncols:4 + ncols + nrows]
    if (min(col_deg.min(), row_deg.min()) < 0 or col_deg.max() != dc
            or row_deg.max() != dr):
        raise ValueError("malformed alist file: degree lines disagree with "
                         "the maximum degree line")
    at = 4 + ncols + nrows
    col_lists = tokens[at:at + ncols * dc].reshape(ncols, dc)
    row_lists = tokens[at + ncols * dc:].reshape(nrows, dr)
    rows = _index_lists(col_lists, col_deg, nrows, "column")
    by_col = np.sort(np.repeat(np.arange(ncols), col_deg) * nrows + rows)
    by_row = np.sort(_index_lists(row_lists, row_deg, ncols, "row") * nrows
                     + np.repeat(np.arange(nrows), row_deg))
    if np.any(by_col[1:] == by_col[:-1]):
        raise ValueError("malformed alist file: repeated index in a column list")
    if not np.array_equal(by_col, by_row):
        raise ValueError("malformed alist file: row lists disagree with the "
                         "column lists")
    cols, rows = np.divmod(by_col, nrows)
    return ColumnLists((nrows, ncols), rows, cols)


def read_alist(path) -> np.ndarray:
    """Parse an alist file back into a dense boolean matrix.

    The dense view of read_alist_columns, with the same checks.
    """
    return read_alist_columns(path).dense()


def write_int_grid(grid: np.ndarray, path) -> None:
    """Small integer matrix as space-separated rows (partitions, powers)."""
    g = np.asarray(grid, dtype=np.int64)
    if g.ndim != 2:
        raise ValueError("need a 2-d grid")
    with open(path, "w", newline="") as fh:
        for row in g:
            fh.write(" ".join(str(int(v)) for v in row) + "\n")


def read_int_grid(path) -> np.ndarray:
    """Small integer matrix from space-separated rows; blank lines are skipped.

    A non-integer token, a token outside int64, a file without rows, or
    rows of unequal length raise ValueError.
    """
    rows = []
    with open(path) as fh:
        for number, line in enumerate(fh, 1):
            try:
                row = [int(v) for v in line.split()]
            except ValueError:
                raise ValueError("malformed integer grid file: non-integer "
                                 f"token on line {number}") from None
            if row:
                rows.append(row)
    if not rows:
        raise ValueError("malformed integer grid file: no rows")
    if any(len(r) != len(rows[0]) for r in rows):
        raise ValueError("malformed integer grid file: rows of unequal length")
    try:
        return np.array(rows, dtype=np.int64)
    except OverflowError:
        raise ValueError("malformed integer grid file: token outside "
                         "int64") from None


def _csv_text(header, rows) -> str:
    buf = io.StringIO()
    w = csv.writer(buf, lineterminator="\n")
    w.writerow(header)
    w.writerows(rows)
    return buf.getvalue()


def census_csv(census) -> str:
    """Per-span cycle counts with the position multiplicity applied.

    Columns: span k, count of first-window classes, number of window
    positions L-k+1, and the weighted contribution (times the lift factor
    p of a lifted census); a final total row.
    """
    # an activity-aware census reports the classes that survive lifting
    per_span = getattr(census, "active_per_span", census.per_span)
    rows = []
    for k in sorted(per_span):
        n = per_span[k]
        mult = max(census.L - k + 1, 0)
        rows.append([k, n, mult, n * mult * getattr(census, "p", 1)])
    rows.append(["total", "", "", census.total])
    return _csv_text(["k", "count", "positions", "weighted"], rows)


def optimum_csv(opt) -> str:
    """Independent overlap values plus the objective and search metadata."""
    ov = opt.overlaps
    rows = [["-".join(str(r) for r in s), int(v)]
            for s, v in ov.as_dict().items()]
    rows.append(["objective", int(opt.f_star)])
    rows.append(["certified", int(opt.certified)])
    rows.append(["strategy", opt.strategy])
    return _csv_text(["rows", "value"], rows)


def trace_csv(trace) -> str:
    """Accepted-move log of the power search, one row per round."""
    rows = []
    for t in trace:
        cells = ";".join(f"{i}:{j}" for i, j in t.cells)
        powers = ";".join(str(v) for v in t.powers)
        rows.append([t.round, cells, powers, t.f_sc_before, t.f_sc_after,
                     int(t.accepted)])
    return _csv_text(
        ["round", "cells", "powers", "f_sc_before", "f_sc_after", "accepted"],
        rows)
