"""File formats: survey CSV, ESRI ASCII grids, polygon text, report CSV.

Writers are deterministic (no timestamps, fixed key order, canonical float
formatting), so identical inputs always produce identical bytes and a
write -> read -> write cycle reproduces the first file exactly.

Every reader parses its table of numbers the same way, in ``_parse_table``:
the data rows are joined, each closed by a token of its own, split once
and parsed by one numpy call. Only when that fails (a row of the wrong
length, a bad or non-finite number) are the rows walked one by one, to
raise a FormatError at the line and column of the first bad row or token.
"""

from __future__ import annotations

import math
from typing import Iterable

import numpy as np

from .costsurface import PolygonSet
from .errors import FormatError, PolygonError
from .metrics import EDGE_DENSITY_METRIC, Scalogram
from .points import PointSet
from .raster import GridGeometry, RasterGrid
from .validation import ErrorReport, PairedTestResult

POINTS_HEADER = "x,y,value"
RING_CLOSURE_TOL = 1e-9
_ASC_KEYS = ("ncols", "nrows", "xllcorner", "yllcorner", "cellsize", "nodata_value")
_REPORT_HEADER = "point_index,observed,predicted,residual"
_INT64 = np.iinfo(np.int64)


def _fmt(value: float) -> str:
    """Canonical float text: integers without a trailing .0, repr otherwise."""
    value = float(value)
    if value.is_integer() and abs(value) < 1e16:
        return str(int(value))
    return repr(value)


def _write_preamble(handle, metadata: dict | None):
    for key, value in (metadata or {}).items():
        handle.write(f"# {key}: {value}\n")


def _parse_row(tokens, path, line: int) -> list[float]:
    """One row's finite data values, or a FormatError at the first bad token's column."""
    values = []
    for col, token in enumerate(tokens, start=1):
        try:
            val = float(token)
        except ValueError:
            raise FormatError(f"not a number: {token!r}", path=str(path),
                              line=line, column=col) from None
        if not math.isfinite(val):
            raise FormatError(f"non-finite value {token!r}", path=str(path),
                              line=line, column=col)
        values.append(val)
    return values


def _parse_table(rows, width: int, path, sep: str | None = ",") -> np.ndarray:
    """A (len(rows), width) float array from (line, text) rows.

    The rows are joined, each closed by a ';' token, and split once on
    ``sep`` (None: on whitespace). Only when a closing token is out of
    place, the parse fails or a value is not finite are the rows walked
    to raise a FormatError at the first bad row or token.
    """
    n = len(rows)
    if sep is None:
        tokens = " ; ".join([text for _, text in rows]).split()
    else:
        tokens = f"{sep};{sep}".join([text for _, text in rows]).split(sep)
    # no float() reads ';', so when every (width + 1)-th token is one and
    # the rest parse, the rows held exactly the n - 1 closers put there
    if len(tokens) == n * (width + 1) - 1 and tokens[width::width + 1].count(";") == n - 1:
        del tokens[width::width + 1]
        try:
            values = np.array(tokens, dtype=float).reshape(n, width)
        except ValueError:
            pass
        else:
            if np.isfinite(values).all():
                return values
    # numpy parses a token as float() does, spaces included; row by row,
    # this finds the first bad row or token and reports where it is
    values = np.empty((n, width))
    for i, (line, text) in enumerate(rows):
        tokens = text.split(sep)
        if len(tokens) != width:
            raise FormatError(f"row {i}: expected {width} values, got {len(tokens)}",
                              path=str(path), line=line)
        values[i] = _parse_row(tokens, path, line)
    return values


def _read_preamble(lines) -> tuple[dict[str, str], list[tuple[int, str]]]:
    """Split '#' metadata above the first data line from the numbered data lines."""
    meta: dict[str, str] = {}
    data: list[tuple[int, str]] = []
    for lineno, raw in enumerate(lines, start=1):
        stripped = raw.strip()
        if not stripped:
            continue
        if stripped.startswith("#"):
            body = stripped.lstrip("#").strip()
            if not data and ":" in body:
                key, _, val = body.partition(":")
                meta[key.strip()] = val.strip()
            continue
        data.append((lineno, stripped))
    return meta, data


# ---------------------------------------------------------------------------
# survey points CSV
# ---------------------------------------------------------------------------

def write_points(points: PointSet, path, *, metadata: dict | None = None):
    write_csv_table(path, metadata, POINTS_HEADER,
                    _column_rows(points.x, points.y, points.values))


def read_points(path) -> tuple[PointSet, int]:
    """Parse a survey CSV; returns (points, n_skipped) where skipped rows had NA values.

    Raises FormatError (with the line, and the column of a bad number) on a
    missing header or any malformed row.
    """
    with open(path) as f:
        _, data = _read_preamble(f)
    if not data:
        raise FormatError("missing 'x,y,value' header", path=str(path))
    lineno, header = data[0]
    if header.replace(" ", "").lower() != POINTS_HEADER:
        raise FormatError(f"expected header '{POINTS_HEADER}', got {header!r}",
                          path=str(path), line=lineno)
    rows = data[1:]
    # an NA row has three fields, the last one NA; the lines are stripped,
    # so the cheap endswith test passes over the rows that end in a number
    kept = [row for row in rows if not (row[1].endswith("NA") and row[1].count(",") == 2
                                        and row[1].rpartition(",")[2].strip() == "NA")]
    values = _parse_table(kept, 3, path)
    return PointSet(values[:, 0], values[:, 1], values[:, 2]), len(rows) - len(kept)


# ---------------------------------------------------------------------------
# ESRI ASCII grid
# ---------------------------------------------------------------------------

def write_ascii_grid(raster: RasterGrid, path):
    """Write every value at 6 decimals; ValueError if that loses the nodata mask."""
    g = raster.geometry
    cell, nodata, values = "%.6f", raster.nodata, raster.values
    # text at 6 places reads back within 1e-6 of its value, so only values
    # this close can turn into the sentinel or the sentinel into data
    near = np.unique(values[np.abs(values - nodata) <= 2e-6])
    if any((float(cell % v) == nodata) != (v == nodata) for v in near.tolist()):
        raise ValueError(f"6 decimals would not keep the nodata mask (sentinel {nodata!r})")
    row_format = " ".join([cell] * g.ncols) + "\n"
    with open(path, "w") as f:
        f.write(f"ncols {g.ncols}\n")
        f.write(f"nrows {g.nrows}\n")
        f.write(f"xllcorner {_fmt(g.xll)}\n")
        f.write(f"yllcorner {_fmt(g.yll)}\n")
        f.write(f"cellsize {_fmt(g.cellsize)}\n")
        f.write(f"NODATA_value {_fmt(raster.nodata)}\n")
        for row in values.tolist():
            f.write(row_format % tuple(row))


def read_ascii_grid(path) -> RasterGrid:
    """Parse an ESRI ASCII grid; header keys are case-insensitive.

    Raises FormatError with line (and column) positions on missing header
    keys, dimension mismatches, or unparsable values.
    """
    with open(path) as f:
        lines = f.readlines()

    header: dict[str, float] = {}
    for i, key in enumerate(_ASC_KEYS):
        if i >= len(lines):
            raise FormatError(f"missing header line '{key}'", path=str(path), line=i + 1)
        parts = lines[i].split()
        if len(parts) != 2 or parts[0].lower() != key:
            raise FormatError(f"expected header '{key} <value>', got {lines[i].strip()!r}",
                              path=str(path), line=i + 1)
        try:
            header[key] = float(parts[1])
        except ValueError:
            raise FormatError(f"not a number: {parts[1]!r}", path=str(path),
                              line=i + 1, column=2) from None

    for key in ("ncols", "nrows"):
        if header[key] != int(header[key]) or int(header[key]) < 1:
            raise FormatError(f"{key} must be a positive integer, got {header[key]}",
                              path=str(path), line=_ASC_KEYS.index(key) + 1)
    ncols, nrows = int(header["ncols"]), int(header["nrows"])
    geom = GridGeometry(ncols, nrows, header["xllcorner"], header["yllcorner"],
                        header["cellsize"])

    rows = [(lineno, line) for lineno, line in
            enumerate(lines[len(_ASC_KEYS):], start=len(_ASC_KEYS) + 1) if line.strip()]
    if len(rows) != nrows:
        raise FormatError(f"expected {nrows} data rows, found {len(rows)}",
                          path=str(path), line=len(lines))
    values = _parse_table(rows, ncols, path, sep=None)
    return RasterGrid(geom, values, header["nodata_value"])


# ---------------------------------------------------------------------------
# polygon text
# ---------------------------------------------------------------------------

def write_polygons(polygons: PolygonSet, path, *, metadata: dict | None = None):
    """Write rings as 'x y' lines, each ring terminated by END (closure included)."""
    with open(path, "w") as f:
        _write_preamble(f, metadata)
        for ring in polygons.rings:
            for x, y in ring:
                f.write(f"{float(x)!r} {float(y)!r}\n")
            f.write("END\n")


def read_polygons(path) -> PolygonSet:
    """Parse polygon text into a PolygonSet.

    An unclosed ring whose endpoints sit within 1e-9 m is snapped closed;
    a wider gap is a format error naming the ring.
    """
    with open(path) as f:
        _, data = _read_preamble(f)
    rows = []  # (line, text) of every vertex
    ends = []  # (number of vertex rows before it, line) of every END
    for lineno, line in data:
        if line == "END":
            ends.append((len(rows), lineno))
        else:
            rows.append((lineno, line))
    vertices = _parse_table(rows, 2, path, sep=None)
    rings: list[np.ndarray] = []
    start = 0
    for stop, lineno in ends:
        if stop > start:
            rings.append(_close_ring(vertices[start:stop], len(rings), path, lineno))
        start = stop
    if start < len(rows):
        raise FormatError("unterminated ring (missing END)", path=str(path), line=rows[-1][0])
    try:
        return PolygonSet(tuple(rings))
    except PolygonError as err:
        raise FormatError(str(err), path=str(path)) from err


def _close_ring(arr, ring_index, path, lineno) -> np.ndarray:
    # arr views the vertex table, so a snap edits that; PolygonSet copies rings
    first, last = arr[0], arr[-1]
    if not np.array_equal(first, last):
        gap = math.hypot(first[0] - last[0], first[1] - last[1])
        if gap <= RING_CLOSURE_TOL:
            arr[-1] = first
        else:
            raise FormatError(
                f"ring {ring_index} is not closed (endpoint gap {gap:g} m)",
                path=str(path), line=lineno)
    return arr


# ---------------------------------------------------------------------------
# report CSVs
# ---------------------------------------------------------------------------

def write_csv_table(path, metadata: dict | None, header: str, rows: Iterable[str]):
    """Shared writer for headered CSV reports with a '#' metadata preamble."""
    lines = [header, *rows, ""]
    with open(path, "w") as f:
        _write_preamble(f, metadata)
        f.write("\n".join(lines))


def _column_rows(*columns: np.ndarray) -> Iterable[str]:
    """CSV rows joined from each column's ``repr`` texts, made in one pass per column."""
    return map(",".join, zip(*(map(repr, c.tolist()) for c in columns)))


def write_error_report(report: ErrorReport, path, *, metadata: dict | None = None):
    meta = {
        "report": "cross-validation",
        "mae": repr(report.mae),
        "rmse": repr(report.rmse),
        "n_evaluated": report.n_evaluated,
        "n_nodata": report.n_nodata,
    }
    meta.update(metadata or {})
    write_csv_table(path, meta, _REPORT_HEADER, _column_rows(
        report.index, report.observed, report.predicted, report.residual))


def read_error_report(path) -> ErrorReport:
    """Rebuild an ErrorReport from its CSV; a bad field raises FormatError at its column."""
    with open(path) as f:
        meta, data = _read_preamble(f)
    if not data or data[0][1].replace(" ", "") != _REPORT_HEADER:
        raise FormatError("missing error-report header", path=str(path))
    rows = data[1:]
    values = _parse_table(rows, 4, path)
    # the index column is parsed by int(), so '1.0' or '1e3' is no index
    first = [text.partition(",")[0] for _, text in rows]
    try:
        index = np.fromiter(map(int, first), dtype=np.int64, count=len(rows))
    except (ValueError, OverflowError):
        # row by row only to find the first bad index and report where it is
        for (lineno, _), token in zip(rows, first):
            try:
                i = int(token)
            except ValueError:
                raise FormatError(f"point index is not an integer: {token!r}",
                                  path=str(path), line=lineno, column=1) from None
            if not _INT64.min <= i <= _INT64.max:
                raise FormatError(f"point index out of range: {token!r}",
                                  path=str(path), line=lineno, column=1)
        raise
    try:
        n_nodata = int(meta.get("n_nodata", 0))
    except ValueError:
        raise FormatError("n_nodata metadata is not an integer", path=str(path)) from None
    try:
        return ErrorReport(index, *values[:, 1:].T, n_nodata)
    except ValueError as err:
        raise FormatError(str(err), path=str(path)) from None


def write_paired_test(result: PairedTestResult, path, *, metadata: dict | None = None):
    meta = {
        "report": "wilcoxon-signed-rank",
        "statistic_convention": "W = sum of signed ranks (W+ minus W-)",
    }
    meta.update(metadata or {})
    row = (f"{result.statistic!r},{result.p_value!r},{result.n_pairs},"
           f"{result.n_zero_diffs},{result.method}")
    write_csv_table(path, meta, "statistic,p_value,n_pairs,n_zero_diffs,method", [row])


def write_scalogram(s: Scalogram, path, *, metadata: dict | None = None):
    meta = {"report": "scalogram", "metric": EDGE_DENSITY_METRIC}
    meta.update(metadata or {})
    rows = (f"{_fmt(cs)},{float(val)!r}" for cs, val in s.rows)
    write_csv_table(path, meta, f"cellsize,{EDGE_DENSITY_METRIC}", rows)
