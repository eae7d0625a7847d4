"""Landscape grain diagnostics: edge density scalograms and knee detection.

Edge density summarizes how finely land fragments the water at a given
raster grain. Computing it across a range of cellsizes (a scalogram) shows
where coarsening starts to erase shoreline structure; the knee candidate
marks the sharpest slope change but the final grain choice stays with the
user.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .costsurface import CostSurface, PolygonSet, rasterize_land
from .raster import GridGeometry

EDGE_DENSITY_METRIC = "edge_density_m_per_ha"


@dataclass(frozen=True)
class Scalogram:
    """Edge density per cellsize, rows sorted by strictly increasing cellsize."""

    rows: tuple[tuple[float, float], ...]

    def __post_init__(self):
        cellsizes = [r[0] for r in self.rows]
        if any(b <= a for a, b in zip(cellsizes, cellsizes[1:])):
            raise ValueError("scalogram rows must have strictly increasing cellsizes")
        if any(r[1] < 0 for r in self.rows):
            raise ValueError("metric values must be non-negative")


@dataclass(frozen=True)
class KneeCandidate:
    """Advisory slope-break location; score 0 means no pronounced knee."""

    cellsize: float
    score: float

    @property
    def pronounced(self) -> bool:
        return self.score > 0


def edge_density(cost: CostSurface) -> float:
    """Land/water boundary length per unit area, in meters per hectare.

    Only rook-adjacent land/water cell pairs count, each contributing one
    cellsize of boundary; the raster perimeter and nodata boundaries do not.
    The area is that of all non-nodata cells.
    """
    land = cost.is_land
    valid = land | cost.is_water
    n_valid = int(valid.sum())
    if n_valid == 0:
        raise ValueError("cost surface has no data cells")
    horiz = valid[:, :-1] & valid[:, 1:] & (land[:, :-1] != land[:, 1:])
    vert = valid[:-1, :] & valid[1:, :] & (land[:-1, :] != land[1:, :])
    cs = cost.geometry.cellsize
    edge_m = (int(horiz.sum()) + int(vert.sum())) * cs
    area_ha = n_valid * cs * cs / 10000.0
    return edge_m / area_ha


def scalogram(polygons: PolygonSet, extent: GridGeometry, cellsizes) -> Scalogram:
    """Edge density of the rasterized polygons at each requested grain.

    Every grain covers at least the extent of ``extent`` (column/row counts
    are rounded up), anchored at the same lower-left origin.
    """
    sizes = sorted(float(c) for c in cellsizes)
    if not sizes:
        raise ValueError("no cellsizes supplied")
    if any(c <= 0 for c in sizes):
        raise ValueError("cellsizes must be positive")
    if any(b == a for a, b in zip(sizes, sizes[1:])):
        raise ValueError("duplicate cellsizes")
    rows = []
    for cs in sizes:
        geom = GridGeometry.covering(extent.xll, extent.yll, extent.width,
                                     extent.height, cs)
        rows.append((cs, edge_density(rasterize_land(polygons, geom))))
    return Scalogram(tuple(rows))


def knee_candidate(s: Scalogram) -> KneeCandidate | None:
    """Cellsize with the largest absolute second difference of the metric.

    Advisory only. Returns None for fewer than 3 rows; ties go to the
    smallest cellsize, and a score of 0 flags the absence of a pronounced
    knee (constant slope).
    """
    if len(s.rows) < 3:
        return None
    values = np.array([r[1] for r in s.rows])
    second = np.abs(np.diff(values, n=2))
    i = int(np.argmax(second))
    return KneeCandidate(cellsize=s.rows[i + 1][0], score=float(second[i]))
