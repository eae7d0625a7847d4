"""Inverse distance weighted estimation, fed by path or Euclidean distances.

The estimator is the classic Shepard form

    V = sum(v_i * d_i**-p) / sum(d_i**-p)

and the only difference between the two interpolators is what d_i means:
``interpolate_ipdw`` uses accumulated in-water path distances, so barriers
separate neighborhoods, while ``interpolate_idw`` uses straight-line
distances that ignore barriers. Both share one ``InterpConfig``, so power
and neighborhood settings cannot diverge between methods being compared.

Both interpolators run one pipeline, snap -> neighbor table -> estimate,
and differ only in the engine that fills the ``(distances, sources)``
table: IPDW the path search ``pathdist.nearest_sources``, IDW
straight-line distances, from a k-d tree candidate search in nearest-n
mode and one ``np.hypot`` block otherwise. In nearest-n mode with more than
n sources each column holds the n nearest ordered by (distance, source
order); otherwise the distance rows are the sources in input order and the
sources are one (sources, 1) column.

Measurement points are snapped to water-cell centers before estimation and
points landing on the same cell are averaged, for both methods alike. A
prediction cell that coincides with a snapped measurement returns that
measurement's (averaged) value exactly: at distance 0 the weights are 1 for
the coincident sources and 0 for the rest, so the one weighted mean serves
every cell, and each estimate is a convex combination of the neighbors it
uses.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.spatial import cKDTree

from . import pathdist
from .costsurface import DEFAULT_WATER_COST, CostSurface
from .errors import ConsistencyError
from .pathdist import nearest_sources, snap_points
from .points import PointSet
from .raster import DEFAULT_NODATA, GridGeometry, RasterGrid, require_count

# tolerance slack for the post-hoc convex-combination assertion
_CONVEXITY_RTOL = 1e-9


@dataclass(frozen=True)
class InterpConfig:
    """Shared estimator settings for IDW and IPDW runs.

    Exactly one neighborhood mode is active: nearest-n (``n_nearest`` set),
    max-distance (``max_distance`` set, inclusive), or all-points (neither).
    """

    power: float = 2.0
    n_nearest: int | None = 10
    max_distance: float | None = None

    def __post_init__(self):
        if not self.power > 0:
            raise ValueError(f"power must be positive, got {self.power}")
        if self.n_nearest is not None and self.max_distance is not None:
            raise ValueError("choose one neighborhood mode: nearest-n or max-distance")
        if self.n_nearest is not None:
            require_count("n_nearest", self.n_nearest)
        if self.max_distance is not None and not self.max_distance > 0:
            raise ValueError(f"max_distance must be positive, got {self.max_distance}")

    @classmethod
    def nearest(cls, n: int, *, power: float = 2.0) -> "InterpConfig":
        return cls(power=power, n_nearest=n, max_distance=None)

    @classmethod
    def within(cls, distance: float, *, power: float = 2.0) -> "InterpConfig":
        return cls(power=power, n_nearest=None, max_distance=distance)

    @classmethod
    def all_points(cls, *, power: float = 2.0) -> "InterpConfig":
        return cls(power=power, n_nearest=None, max_distance=None)


def snapped_sources(points: PointSet, *, cost: CostSurface
                    ) -> tuple[list[tuple[int, int]], np.ndarray]:
    """Snap measurements to water cells and average coincident ones.

    Points snap within ``DEFAULT_SNAP_RADIUS`` cells. Returns unique cells
    in first-seen order with their averaged values.
    """
    if len(points) == 0:
        raise ValueError("no measurement points supplied")
    cells = snap_points(cost, points)
    rows, cols = np.array(cells).T
    _, first, group, counts = np.unique(rows * cost.geometry.ncols + cols, return_index=True,
                                        return_inverse=True, return_counts=True)
    # np.mean adds fewer than 8 values one by one in input order, as
    # bincount does, and sums 8 or more pairwise, so those groups keep it
    means = np.bincount(group, weights=points.values) / counts
    for g in np.flatnonzero(counts >= 8):
        means[g] = np.mean(points.values[group == g])
    seen = np.argsort(first)
    return [cells[i] for i in first[seen]], means[seen]


def _estimate(dist: np.ndarray, vals: np.ndarray,
              power: float) -> tuple[np.ndarray, np.ndarray]:
    """The Shepard estimator over a neighbor table.

    ``dist`` is (rows, n_targets): each column holds one target's selected
    neighbors, with inf distances marking empty slots. ``vals`` has the same
    shape, or is (rows, 1) when every column lists the same sources; every
    value is finite, empty slots included. Returns (estimates, has_estimate);
    targets with no neighbor get has_estimate False.

    A column with a zero distance weighs its coincident neighbors 1 and the
    rest 0, so the one weighted mean returns their mean. Each estimate is
    clamped to the range of the neighbors it used, after a check that it
    lies there up to rounding.
    """
    zero = dist == 0.0
    zero_cols = zero.any(axis=0)

    # Weights are scale-invariant in the distances, so normalizing by the
    # nearest one keeps d**-p away from overflow at extreme magnitudes. A
    # ratio that still overflows means a negligible neighbor: weight 0.
    w = np.where(dist > 0.0, dist, np.inf)
    near = w.min(axis=0)
    near[~np.isfinite(near)] = 1.0
    with np.errstate(over="ignore"):
        w /= near
    w **= -power
    np.copyto(w, zero, where=zero_cols)
    den = w.sum(axis=0)
    w *= vals
    num = w.sum(axis=0)
    del w  # free the (rows, n_targets) weights before the range temporaries

    has = den > 0
    est = np.zeros(dist.shape[1])
    np.divide(num, den, out=est, where=has)
    if not np.isfinite(est[has]).all():
        raise ConsistencyError("non-finite estimate produced")
    used = np.where(zero_cols, zero, np.isfinite(dist))
    lo = np.where(used, vals, np.inf).min(axis=0)[has]
    hi = np.where(used, vals, -np.inf).max(axis=0)[has]
    est_h = est[has]
    tol = _CONVEXITY_RTOL * (hi - lo + 1.0)
    if ((est_h < lo - tol) | (est_h > hi + tol)).any():
        raise ConsistencyError("estimate outside neighbor value range")
    est[has] = np.minimum(np.maximum(est_h, lo), hi)
    return est, has


def interpolate_ipdw(points: PointSet, cost: CostSurface, config: InterpConfig, *,
                     threads: int = 1) -> RasterGrid:
    """Interpolate over water cells using in-water path distances.

    A source reaches a water cell when the two are connected through water,
    however long the route; sources separated by land are excluded before
    the neighborhood filter. Land and nodata cells, and water cells with no
    reachable source, come back as nodata. ``threads`` is accepted for
    compatibility; the search runs in the calling thread.
    """
    return _interpolate(nearest_sources, points, cost, config)


def interpolate_idw(points: PointSet, geometry: GridGeometry, config: InterpConfig, *,
                    mask: CostSurface | None = None) -> RasterGrid:
    """Interpolate using straight-line distances that ignore barriers.

    A mask only limits where measurements snap and which cells receive
    output (land and nodata become nodata); it never alters distances.
    Without one, every cell of ``geometry`` counts as water.
    """
    if mask is None:
        mask = CostSurface(RasterGrid.full(geometry, DEFAULT_WATER_COST))
    elif mask.geometry != geometry:
        raise ValueError("mask geometry differs from the requested output geometry")
    return _interpolate(_straight_line_sources, points, mask, config)


def _straight_line_sources(cost: CostSurface, cells, *, k: int | None = None,
                           max_distance: float | None = None
                           ) -> tuple[np.ndarray, np.ndarray]:
    """``nearest_sources``'s table over straight-line distances between cell centers."""
    rows, cols = np.array(cells).T
    cx, cy = cost.geometry.cell_centers()
    water = cost.is_water
    tx, ty = cx[water], cy[water]
    sx, sy = cx[rows, cols], cy[rows, cols]
    if k is not None and k < len(cells):
        return _kd_nearest(tx, ty, sx, sy, k)
    dist = np.hypot(tx - sx[:, None], ty - sy[:, None])
    if max_distance is not None:
        dist[dist > max_distance] = np.inf
    return dist, np.arange(len(cells))[:, None]


def _kd_nearest(tx, ty, sx, sy, k: int) -> tuple[np.ndarray, np.ndarray]:
    """Each target's k nearest sources by (``np.hypot`` distance, source index).

    A k-d tree proposes the m nearest sources of each target, ``_TILE``
    targets at a time. A target is done once its m-th tree distance exceeds
    its k-th by more than rounding, or m spans every source: then no other
    source can tie or beat the k-th, and a stable sort of the candidates in
    index order by their ``np.hypot`` distance gives the exact table. The
    other targets ask again for twice as many.
    """
    n_src = len(sx)
    tree = cKDTree(np.column_stack([sx, sy]))
    dist = np.empty((k, len(tx)))
    src = np.empty((k, len(tx)), dtype=int)
    for lo in range(0, len(tx), pathdist._TILE):
        todo = np.arange(lo, min(lo + pathdist._TILE, len(tx)))
        m = min(n_src, k + 2)
        while len(todo):
            near, idx = tree.query(np.column_stack([tx[todo], ty[todo]]), m)
            idx.sort(axis=1)
            d = np.hypot(tx[todo, None] - sx[idx], ty[todo, None] - sy[idx])
            order = np.argsort(d, axis=1, kind="stable")[:, :k]
            done = (m == n_src) | (near[:, -1] > near[:, k - 1] * (1.0 + pathdist._BOUND_SLACK))
            dist[:, todo[done]] = np.take_along_axis(d, order, axis=1)[done].T
            src[:, todo[done]] = np.take_along_axis(idx, order, axis=1)[done].T
            todo = todo[~done]
            m = min(n_src, 2 * m)
    return dist, src


def _interpolate(engine, points: PointSet, cost: CostSurface,
                 config: InterpConfig) -> RasterGrid:
    """Snap, fill the neighbor table with ``engine``, estimate, and scatter onto water."""
    cells, values = snapped_sources(points, cost=cost)
    dist, src = engine(cost, cells, k=config.n_nearest, max_distance=config.max_distance)
    # Empty slots carry inf distances, so their values (src -1) weigh 0.
    est, has = _estimate(dist, values[src], config.power)
    geom = cost.geometry
    out = np.full(geom.n_cells, DEFAULT_NODATA)
    out[np.flatnonzero(cost.is_water.ravel())[has]] = est[has]
    return RasterGrid(geom, out.reshape(geom.nrows, geom.ncols), DEFAULT_NODATA)
