"""Land polygons and traversal-cost rasters.

A cost surface is a two-valued raster: traversable open water carries a low
cost and barrier land a prohibitively high one (1 and 10,000 by default).
Land is burned in from polygon rings by a center-point test: a cell is land
iff its center lies inside at least one ring under the even-odd rule.

Containment is a banded scan. The query points are sorted by y once per
call; each ring edge then finds, with two binary searches, the slice of
points in its half-open span ``min(y1, y2) <= y < max(y1, y2)`` and runs
the crossing test on that slice only. The work is O(edges * log(points) +
points in the edges' spans) instead of O(edges * points), and the points
tested, the crossing arithmetic and so the result are those of testing
every point against every edge.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import PolygonError
from .raster import DEFAULT_NODATA, GridGeometry, RasterGrid

DEFAULT_WATER_COST = 1.0
DEFAULT_LAND_COST = 10000.0
# (point, edge) pairs tested at once: caps the transient arrays of one ring
# with many tall edges at a few tens of MB, whatever the grid size
_PAIRS = 1 << 20


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

    def contains(self, x, y) -> np.ndarray:
        """Even-odd containment of points (x, y); accepts scalars or arrays."""
        px = np.asarray(x, dtype=np.float64)
        py = np.asarray(y, dtype=np.float64)
        shape = np.broadcast(px, py).shape
        # sorted by y, the points an edge spans, min(y1, y2) <= y < max(y1, y2),
        # are one slice; NaN sorts last and falls in no slice
        order = np.argsort(np.broadcast_to(py, shape), axis=None, kind="stable")
        xs = np.broadcast_to(px, shape).ravel()[order]
        ys = np.broadcast_to(py, shape).ravel()[order]
        inside = np.zeros(len(ys), dtype=bool)
        for ring in self.rings:
            x1, y1 = ring[:-1, 0], ring[:-1, 1]
            x2, y2 = ring[1:, 0], ring[1:, 1]
            dx, dy = x2 - x1, y2 - y1
            lo = np.searchsorted(ys, np.minimum(y1, y2))
            hi = np.searchsorted(ys, np.maximum(y1, y2))
            # a closed ring spans every point between its lowest and highest
            # vertex, so its parity array is no longer than the pairs tested
            base = lo.min()
            odd = np.zeros(hi.max() - base, dtype=bool)
            ends = np.cumsum(hi - lo)
            for edges in np.split(np.arange(len(lo)),
                                  np.searchsorted(ends, np.arange(_PAIRS, ends[-1], _PAIRS))):
                n = hi[edges] - lo[edges]
                # the sorted positions of each edge's slice, edge after edge
                pos = np.arange(n.sum()) + np.repeat(lo[edges] - (np.cumsum(n) - n), n)
                # x of the edge at the point's height; dy != 0 in its span
                t = (ys[pos] - np.repeat(y1[edges], n)) / np.repeat(dy[edges], n)
                xi = np.repeat(x1[edges], n) + t * np.repeat(dx[edges], n)
                crossed = np.bincount(pos[xs[pos] < xi] - base, minlength=len(odd))
                odd ^= (crossed & 1).astype(bool)
            inside[base:base + len(odd)] |= odd
        out = np.empty(len(ys), dtype=bool)
        out[order] = inside
        return out.reshape(shape)


@dataclass(frozen=True)
class CostSurface:
    """Two-valued traversal cost raster with its class costs."""

    raster: RasterGrid
    water_cost: float = DEFAULT_WATER_COST
    land_cost: float = DEFAULT_LAND_COST

    def __post_init__(self):
        if not (0 < self.water_cost < self.land_cost):
            raise ValueError(
                f"need 0 < water_cost < land_cost, got {self.water_cost}, {self.land_cost}")
        vals = self.raster.values
        known = self.raster.is_nodata | (vals == self.water_cost) | (vals == self.land_cost)
        if not known.all():
            bad = vals[~known]
            raise ValueError(f"cost raster holds values outside the two classes, e.g. {bad.flat[0]}")

    @property
    def geometry(self) -> GridGeometry:
        return self.raster.geometry

    @property
    def is_water(self) -> np.ndarray:
        return (~self.raster.is_nodata) & (self.raster.values == self.water_cost)

    @property
    def is_land(self) -> np.ndarray:
        return (~self.raster.is_nodata) & (self.raster.values == self.land_cost)


def rasterize_land(polygons: PolygonSet, geometry: GridGeometry, *,
                   water_cost: float = DEFAULT_WATER_COST,
                   land_cost: float = DEFAULT_LAND_COST) -> CostSurface:
    """Burn land polygons into a cost surface over ``geometry``.

    Each cell is classified by its center point: land when the center falls
    inside the polygon set, water otherwise. An empty polygon set yields an
    all-water surface.
    """
    cx, cy = geometry.cell_centers()
    land = polygons.contains(cx, cy)
    values = np.where(land, land_cost, water_cost)
    return CostSurface(RasterGrid(geometry, values, DEFAULT_NODATA), water_cost, land_cost)

