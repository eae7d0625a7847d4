"""Land polygons and traversal-cost surfaces.

A cost surface is a two-valued raster: traversable open water carries a low
cost and barrier land a prohibitively high one (1 and 10,000 by default).
Land is burned in from polygon rings by a center-point test: a cell is land
iff its center lies inside at least one ring under the even-odd rule.

The burn-in is one even-odd scanline fill over all rings at once (Foley et
al., *Computer Graphics: Principles and Practice*, sec. 3.6). Each edge
crosses the rows whose center y lies in its half-open span
``min(y1, y2) <= y < max(y1, y2)``, at ``x1 + ((y - y1) / dy) * dx``. Sorted
by (ring, row, x), each ring's crossings in a row pair up into the column
intervals ``[x_1, x_2), [x_3, x_4), ...``: a center lies in one exactly
when an odd number of that ring's crossings lie strictly to its right. The
rings' intervals are summed in a difference array, and a cell is land
where the sum is positive. The work is per (edge, row), not per (edge,
cell), and the mask is the one that testing every center against every
edge gives, bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import PolygonError
from .raster import DEFAULT_NODATA, GridGeometry, RasterGrid

DEFAULT_WATER_COST = 1.0
DEFAULT_LAND_COST = 10000.0
# crossings plus difference-array cells handled in one band of rows: caps
# the transient arrays of a comb of tall edges or a wide grid at a few tens
# of MB, whatever the grid size
_BAND = 1 << 18
# a CostSurface's int8 class codes
_WATER, _LAND, _NODATA = 0, 1, 2


@dataclass(frozen=True)
class PolygonSet:
    """Collection of closed rings, each an (n, 2) array of (x, y) vertices.

    Rings must be explicitly closed (first vertex repeated last) and carry at
    least 4 vertices including the closure. Containment is tested per ring
    with the even-odd (crossing number) rule and a point counts as inside the
    set when any ring contains it, so adding a ring never shrinks the land.
    """

    rings: tuple[np.ndarray, ...]

    def __post_init__(self):
        normalized = []
        for i, ring in enumerate(self.rings):
            arr = np.array(ring, dtype=np.float64)
            if arr.ndim != 2 or arr.shape[1] != 2:
                raise PolygonError(i, f"expected an (n, 2) vertex array, got shape {arr.shape}")
            if len(arr) < 4:
                raise PolygonError(i, f"needs at least 4 vertices including closure, got {len(arr)}")
            if not np.isfinite(arr).all():
                raise PolygonError(i, "vertices must be finite")
            if arr[0, 0] != arr[-1, 0] or arr[0, 1] != arr[-1, 1]:
                raise PolygonError(i, "ring is not closed (first vertex must equal last)")
            arr.setflags(write=False)
            normalized.append(arr)
        object.__setattr__(self, "rings", tuple(normalized))

    @classmethod
    def empty(cls) -> "PolygonSet":
        return cls(())

    def __len__(self) -> int:
        return len(self.rings)


class CostSurface:
    """Two-valued traversal cost surface over a grid.

    ``CostSurface(raster, water_cost, land_cost)`` takes a cost raster whose
    every cell is nodata, ``water_cost`` or ``land_cost``. The surface keeps
    the geometry, the two costs, the raster's nodata sentinel and one
    read-only int8 class per cell, ``classes``: 0 water, 1 land, 2 nodata.
    ``raster`` rebuilds the float cost raster, bit for bit, for writers.
    Attributes cannot be reassigned.
    """

    __slots__ = ("geometry", "water_cost", "land_cost", "nodata", "classes")

    def __init__(self, raster: RasterGrid, water_cost: float = DEFAULT_WATER_COST,
                 land_cost: float = DEFAULT_LAND_COST):
        _check_costs(water_cost, land_cost)
        vals = raster.values
        nodata = raster.is_nodata
        land = vals == land_cost
        known = nodata | land | (vals == water_cost)
        if not known.all():
            bad = vals[~known]
            raise ValueError(f"cost raster holds values outside the two classes, e.g. {bad.flat[0]}")
        classes = land.view(np.int8)
        classes[nodata] = _NODATA
        _fill(self, raster.geometry, classes, water_cost, land_cost, raster.nodata)

    def __setattr__(self, name, value):
        raise AttributeError(f"CostSurface is immutable; cannot set {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"CostSurface is immutable; cannot delete {name!r}")

    @property
    def is_water(self) -> np.ndarray:
        return self.classes == _WATER

    @property
    def is_land(self) -> np.ndarray:
        return self.classes == _LAND

    @property
    def raster(self) -> RasterGrid:
        """The float cost raster: each cell's class cost, or the nodata sentinel."""
        table = np.array([self.water_cost, self.land_cost, self.nodata], dtype=np.float64)
        return RasterGrid(self.geometry, table[self.classes], self.nodata)

    def __repr__(self):
        g = self.geometry
        return (f"CostSurface({g.nrows}x{g.ncols}, water_cost={self.water_cost}, "
                f"land_cost={self.land_cost}, nodata={self.nodata})")


def _check_costs(water_cost, land_cost) -> None:
    if not (0 < water_cost < land_cost):
        raise ValueError(f"need 0 < water_cost < land_cost, got {water_cost}, {land_cost}")


def _fill(surface: CostSurface, geometry: GridGeometry, classes: np.ndarray,
          water_cost, land_cost, nodata: float) -> None:
    classes.setflags(write=False)
    for name, value in (("geometry", geometry), ("water_cost", water_cost),
                        ("land_cost", land_cost), ("nodata", nodata), ("classes", classes)):
        object.__setattr__(surface, name, value)


def rasterize_land(polygons: PolygonSet, geometry: GridGeometry, *,
                   water_cost: float = DEFAULT_WATER_COST,
                   land_cost: float = DEFAULT_LAND_COST) -> CostSurface:
    """Burn land polygons into a cost surface over ``geometry``.

    Each cell is classified by its center point: land when the center falls
    inside the polygon set, water otherwise. An empty polygon set yields an
    all-water surface.
    """
    _check_costs(water_cost, land_cost)
    surface = object.__new__(CostSurface)
    _fill(surface, geometry, _land_mask(polygons, geometry).view(np.int8),
          water_cost, land_cost, DEFAULT_NODATA)
    return surface


def _land_mask(polygons: PolygonSet, geometry: GridGeometry) -> np.ndarray:
    """The (nrows, ncols) even-odd union mask of the cell centers, by scanline."""
    nrows, ncols = geometry.nrows, geometry.ncols
    land = np.zeros((nrows, ncols), dtype=bool)
    if not polygons.rings:
        return land
    xc, yc = geometry.axis_centers()
    ys = yc[::-1]  # ascending: scan row i is grid row nrows - 1 - i
    ring = np.repeat(np.arange(len(polygons)), [len(r) - 1 for r in polygons.rings])
    x1, y1, x2, y2 = np.concatenate(
        [np.hstack([r[:-1], r[1:]]) for r in polygons.rings]).T
    dx, dy = x2 - x1, y2 - y1
    # the scan rows an edge crosses: min(y1, y2) <= y < max(y1, y2); a
    # horizontal edge crosses none, so dy != 0 wherever it is divided by
    lo = np.searchsorted(ys, np.minimum(y1, y2))
    hi = np.searchsorted(ys, np.maximum(y1, y2))
    crossings = np.cumsum(np.bincount(lo, minlength=nrows + 1)
                          - np.bincount(hi, minlength=nrows + 1))[:nrows]
    # bands of whole rows, each holding about _BAND crossings and cells
    width = ncols + 1
    ends = np.cumsum(crossings + width)
    cuts = np.searchsorted(ends, np.arange(_BAND, ends[-1], _BAND)).tolist()
    for a, b in zip([0] + cuts, cuts + [nrows]):
        edges = np.flatnonzero((lo < b) & (hi > a))
        if not len(edges):
            continue
        first = np.maximum(lo[edges], a)
        n = np.minimum(hi[edges], b) - first
        # each crossing's scan row and edge, edge after edge
        row = np.arange(n.sum()) + np.repeat(first - (np.cumsum(n) - n), n)
        e = np.repeat(edges, n)
        x = x1[e] + ((ys[row] - y1[e]) / dy[e]) * dx[e]
        # an overflowing edge can give NaN, which is right of no center
        x[np.isnan(x)] = -np.inf
        order = np.lexsort((x, ring[e] * nrows + row))
        x, row = x[order], row[order]
        # a ring crosses a row an even number of times, so the pairs never
        # straddle two (ring, row) groups
        start = np.searchsorted(xc, x[0::2]) + (row[0::2] - a) * width
        stop = np.searchsorted(xc, x[1::2]) + (row[0::2] - a) * width
        size = (b - a) * width
        diff = np.bincount(start, minlength=size) - np.bincount(stop, minlength=size)
        inside = np.cumsum(diff.reshape(b - a, width), axis=1)[:, :ncols] > 0
        land[nrows - b:nrows - a] = inside[::-1]
    return land
