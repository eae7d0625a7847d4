"""Grid geometry and dense raster value storage.

All coordinates are projected meters; geographic (lat/lon) input is out of
scope. Rasters are row-major with row 0 at the top, so the cell (row, col)
has its center at ``(xll + (col + 0.5) * cellsize,
yll + (nrows - row - 0.5) * cellsize)``. Cell extents are half-open: a point
on a cell's left or bottom edge belongs to that cell, and the grid extent is
``[xll, xll + ncols * cellsize) x [yll, yll + nrows * cellsize)``.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

DEFAULT_NODATA = -9999.0


def require_count(name: str, k) -> None:
    """Reject a count that is not a positive integer (bools included)."""
    if isinstance(k, bool) or not isinstance(k, numbers.Integral) or k < 1:
        raise ValueError(f"{name} must be a positive integer, got {k!r}")


@dataclass(frozen=True)
class GridGeometry:
    """Placement of a regular square-celled grid in projected meters."""

    ncols: int
    nrows: int
    xll: float
    yll: float
    cellsize: float

    def __post_init__(self):
        require_count("ncols", self.ncols)
        require_count("nrows", self.nrows)
        if not (self.cellsize > 0) or not math.isfinite(self.cellsize):
            raise ValueError(f"cellsize must be a positive finite number, got {self.cellsize}")
        if not (math.isfinite(self.xll) and math.isfinite(self.yll)):
            raise ValueError("grid origin must be finite")

    @classmethod
    def covering(cls, xll: float, yll: float, width: float, height: float,
                 cellsize: float) -> "GridGeometry":
        """Grid anchored at (xll, yll) whose cells cover at least width x height.

        Counts round up, with a 1e-9 cell allowance so a span that is a whole
        number of cells up to rounding gets no extra column or row.
        """
        ncols = max(1, math.ceil(width / cellsize - 1e-9))
        nrows = max(1, math.ceil(height / cellsize - 1e-9))
        return cls(ncols, nrows, xll, yll, cellsize)

    @property
    def width(self) -> float:
        return self.ncols * self.cellsize

    @property
    def height(self) -> float:
        return self.nrows * self.cellsize

    @property
    def xmax(self) -> float:
        return self.xll + self.width

    @property
    def ymax(self) -> float:
        return self.yll + self.height

    @property
    def n_cells(self) -> int:
        return self.ncols * self.nrows

    def cells_of(self, x, y) -> tuple[np.ndarray, np.ndarray]:
        """Return (rows, cols) arrays of the cells owning points (x, y).

        Ownership is half-open, so points on the left/bottom edge of a cell
        belong to it and points on the grid's right/top boundary are outside.
        Both arrays hold -1 for points outside the grid; as an index, -1
        reads the last cell, so callers mask lookups with ``rows >= 0``.
        """
        col = np.floor((np.asarray(x, dtype=np.float64) - self.xll) / self.cellsize)
        row_up = np.floor((np.asarray(y, dtype=np.float64) - self.yll) / self.cellsize)
        inside = (col >= 0) & (col < self.ncols) & (row_up >= 0) & (row_up < self.nrows)
        rows = np.where(inside, self.nrows - 1 - row_up, -1).astype(np.int64)
        cols = np.where(inside, col, -1).astype(np.int64)
        return rows, cols

    def axis_centers(self) -> tuple[np.ndarray, np.ndarray]:
        """Return the column centers' x (ncols,) and the row centers' y (nrows,).

        x rises with the column and y falls with the row (row 0 is the top).
        """
        cols = np.arange(self.ncols)
        rows = np.arange(self.nrows)
        x = self.xll + (cols + 0.5) * self.cellsize
        y = self.yll + (self.nrows - rows - 0.5) * self.cellsize
        return x, y

    def cell_centers(self) -> tuple[np.ndarray, np.ndarray]:
        """Return (X, Y) arrays of shape (nrows, ncols) holding cell centers."""
        x, y = self.axis_centers()
        return np.broadcast_to(x, (self.nrows, self.ncols)).copy(), \
            np.broadcast_to(y[:, None], (self.nrows, self.ncols)).copy()


class RasterGrid:
    """Immutable float64 raster tied to a GridGeometry.

    Every stored value is finite; the ``nodata`` sentinel (itself a finite
    float, -9999 by default) marks missing cells. The value array is locked
    read-only after construction.
    """

    def __init__(self, geometry: GridGeometry, values, nodata: float = DEFAULT_NODATA):
        if not math.isfinite(nodata):
            raise ValueError("nodata sentinel must be finite")
        arr = np.array(values, dtype=np.float64)
        if arr.shape != (geometry.nrows, geometry.ncols):
            raise ValueError(
                f"values shape {arr.shape} does not match geometry "
                f"({geometry.nrows}, {geometry.ncols})")
        if not np.isfinite(arr).all():
            raise ValueError("raster values must be finite or the nodata sentinel")
        arr.setflags(write=False)
        self.geometry = geometry
        self.values = arr
        self.nodata = float(nodata)

    @property
    def is_nodata(self) -> np.ndarray:
        return self.values == self.nodata

    def __repr__(self):
        g = self.geometry
        return (f"RasterGrid({g.nrows}x{g.ncols}, cellsize={g.cellsize}, "
                f"origin=({g.xll}, {g.yll}), nodata={self.nodata})")
