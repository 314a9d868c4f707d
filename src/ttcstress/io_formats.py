"""CSV formats for matrices, grade vectors, scenarios, and projection paths.

All numeric output uses the shortest decimal representation that round-trips
the double exactly (Python's repr), so re-running on identical inputs yields
byte-identical files and re-parsing recovers identical values.
"""
from __future__ import annotations

import csv
import io

import numpy as np

from .errors import InputError
from .macro import CreditIndexSeries, MacroScenario
from .propagation import (OriginationVector, Portfolio, ProjectionPath,
                          _check_weights)
from .transition import TransitionMatrix, validate_transition_matrix

# Published matrices are typically rounded to four decimals, so row sums can
# be off by about 1e-4; grade vectors are usually exact to 1e-6.
MATRIX_ROW_SUM_TOL = 1e-4
VECTOR_SUM_TOL = 1e-6

CREDIT_INDEX_COLUMN = "credit_index"
PATH_HEADER_FIXED = ("period", "z", "avg_pd", "default_flow")


def fmt(x: float) -> str:
    """Shortest round-trip decimal for a double."""
    return repr(float(x))


def _read_rows(text: str) -> list[list[str]]:
    rows = [row for row in csv.reader(io.StringIO(text)) if row]
    if not rows:
        raise InputError("empty", "no data rows found")
    return rows


def _is_number(cell: str) -> bool:
    try:
        float(cell)
    except ValueError:
        return False
    return True


def _float_rows(rows: list[list[str]], width: int, first: int,
                skip: int = 0) -> np.ndarray:
    """The cells of ``rows`` past the first ``skip`` columns, as floats.
    Each row must hold ``width`` cells; messages count rows from ``first``.
    A row converts in one call; only a row that fails is walked cell by
    cell, to name its first bad cell by row and column."""
    data = []
    for i, row in enumerate(rows, start=first):
        if len(row) != width:
            raise InputError("ragged",
                             f"row {i} has {len(row)} cells, expected {width}")
        try:
            data.append(list(map(float, row[skip:])))
        except ValueError:
            j, cell = next((j, c) for j, c in enumerate(row[skip:], skip + 1)
                           if not _is_number(c))
            raise InputError("non-numeric", f"non-numeric cell {cell!r} at "
                             f"row {i}, column {j}") from None
    return np.array(data)


def parse_matrix_csv(text: str) -> TransitionMatrix:
    """Parse an n x n numeric CSV into a validated transition matrix, with
    rows within ``MATRIX_ROW_SUM_TOL`` of unit sum.

    A single header row is detected (and skipped) when its first row contains
    any non-numeric cell.  Rows must all have the same length.
    """
    rows = _read_rows(text)
    if rows and not all(_is_number(c) for c in rows[0]):
        rows = rows[1:]
        if not rows:
            raise InputError("empty", "no data rows after the header")
    return validate_transition_matrix(_float_rows(rows, len(rows[0]), 1),
                                      tol=MATRIX_ROW_SUM_TOL)


def parse_vector_csv(text: str, kind: str) -> Portfolio | OriginationVector:
    """Parse one row or one column of numbers into a grade vector.

    ``kind`` is "portfolio" or "origination".  The sum must be within
    ``VECTOR_SUM_TOL`` of one and is renormalized; origination vectors must
    end in an exact zero (no origination into default).
    """
    if kind not in ("portfolio", "origination"):
        raise InputError("invalid-argument",
                         f"kind must be 'portfolio' or 'origination', got {kind!r}")
    rows = _read_rows(text)
    if len(rows) > 1 and any(len(r) != 1 for r in rows):
        raise InputError("shape",
                         "vector file must be a single row or a single column")
    values = _check_weights(_float_rows(rows, len(rows[0]), 1).ravel(), kind,
                            VECTOR_SUM_TOL)
    values = values / values.sum()
    return Portfolio(values) if kind == "portfolio" else OriginationVector(values)


def parse_scenario_csv(text: str) -> tuple[CreditIndexSeries | None,
                                           MacroScenario | None]:
    """Parse a scenario file with a mandatory header of distinct names.

    The first column holds period labels.  A column named ``credit_index``
    becomes the credit index series; all remaining columns, in file order,
    become macro variables.  Returns (series, scenario); either may be None
    when the file carries only the other kind of data.  A repeated name is
    rejected, so no column is silently dropped.
    """
    rows = _read_rows(text)
    header = rows[0]
    if all(_is_number(c) for c in header):
        raise InputError("missing-header",
                         "scenario file needs a header row with column names")
    if len(header) < 2:
        raise InputError("shape", "scenario file needs a period column plus data")
    repeated = [name for i, name in enumerate(header) if name in header[:i]]
    if repeated:
        raise InputError("duplicate-column",
                         f"header repeats the column name {repeated[0]!r}")
    body = rows[1:]
    if not body:
        raise InputError("empty", "no data rows after the header")
    values = _float_rows(body, len(header), 2, skip=1)
    periods = tuple(row[0] for row in body)
    names = header[1:]
    series = None
    if CREDIT_INDEX_COLUMN in names:
        i = names.index(CREDIT_INDEX_COLUMN)
        series = CreditIndexSeries(values[:, i], periods=periods)
        values = np.delete(values, i, axis=1)
        del names[i]
    scenario = MacroScenario(values, tuple(names), periods) if names else None
    return series, scenario


def emit_path_csv(path: ProjectionPath) -> str:
    """Serialize a projection path whole: row 0 holds the initial book and
    ``initial_pd`` (z and default_flow 0.0), rows 1..m the periods."""
    n = path.initial.n
    header = ",".join(PATH_HEADER_FIXED + tuple(f"w_{i + 1}" for i in range(n)))
    # repr of a tolist() float is fmt of the float64 it came from
    rows = zip([0.0, *path.z.tolist()], path.pd_series().tolist(),
               [0.0, *path.default_flows.tolist()],
               [path.initial.weights.tolist(), *path.portfolios.tolist()])
    lines = [header]
    for t, (z, pd, flow, weights) in enumerate(rows):
        lines.append(",".join([str(t), repr(z), repr(pd), repr(flow),
                               *map(repr, weights)]))
    return "\n".join(lines) + "\n"


def parse_path_csv(text: str) -> ProjectionPath:
    """Parse a file produced by :func:`emit_path_csv` back into its path,
    with read-only arrays, as :func:`project_path` gives.  The periods
    must read exactly 0, 1, ..., m, so an older file, which has no
    period-0 row, is rejected.  Every other cell must be a finite number;
    the first that is not is named by its row and column in the file."""
    rows = _read_rows(text)
    header = rows[0]
    if tuple(header[:4]) != PATH_HEADER_FIXED:
        raise InputError("missing-header",
                         "path file must start with the header "
                         + ",".join(PATH_HEADER_FIXED) + ",w_1,...")
    n = len(header) - 4
    if n < 2:
        raise InputError("shape", "path file needs at least two weight columns")
    body = rows[1:]
    if not body:
        raise InputError("empty", "no data rows after the header")
    if [row[0] for row in body] != [str(t) for t in range(len(body))]:
        raise InputError("periods",
                         "path file periods must read 0, 1, ..., m from the "
                         "initial book on; re-run propagate to write it")
    arr = _float_rows(body, len(header), 2)
    finite = np.isfinite(arr)
    if not finite.all():
        i, j = np.argwhere(~finite)[0]
        raise InputError("invalid-argument", f"non-finite cell {body[i][j]!r} "
                         f"at row {i + 2}, column {j + 1}")
    arr.flags.writeable = False
    return ProjectionPath(
        initial=Portfolio(arr[0, 4:]), initial_pd=float(arr[0, 2]),
        z=arr[1:, 1], portfolios=arr[1:, 4:], default_flows=arr[1:, 3],
        avg_pds=arr[1:, 2])


def emit_matrix_csv(tm: TransitionMatrix) -> str:
    """Serialize a transition matrix as a plain numeric CSV."""
    lines = [",".join(map(repr, row)) for row in tm.probs.tolist()]
    return "\n".join(lines) + "\n"
