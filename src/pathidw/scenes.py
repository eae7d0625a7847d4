"""Synthetic desk-scale scenes for exercising the interpolation pipeline.

Each scene bundles barrier polygons, a per-water-cell truth raster, and a
noisy boustrophedon survey track resembling a vessel transect (parallel
passes with sinusoidal meanders, joined by connector legs). Three kinds:

* ``two-basin``: a sealed vertical wall splits the water into two basins
  whose truth values differ by ``step``.
* ``gradient``: open water with a linear west-to-east ramp spanning ``step``.
* ``plume``: a partial wall with a gap; truth decays linearly with in-water
  path distance from a source cell, so value jumps across the wall coincide
  with the barrier.

Track point positions depend only on the geometry and seed, never on step
or noise, so sweeping those parameters reuses identical sampling locations
and noise draws.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .costsurface import CostSurface, PolygonSet, rasterize_land
from .pathdist import nearest_sources
from .points import PointSet
from .raster import DEFAULT_NODATA, GridGeometry, RasterGrid

SCENE_KINDS = ("two-basin", "gradient", "plume")

BASE_VALUE = 20.0          # low-basin / ramp-start value
PLUME_PEAK = 30.0          # plume value at the source cell

# track layout, in cellsize units
_PASS_SPACING = 7.0
_SAMPLE_STEP = 0.8
_MEANDER_AMP = 1.5
_MEANDER_WAVELENGTH = 16.0


@dataclass(frozen=True)
class SyntheticScene:
    kind: str
    polygons: PolygonSet
    truth: RasterGrid
    track: PointSet
    step: float
    noise_sd: float
    seed: int

    @property
    def geometry(self) -> GridGeometry:
        return self.truth.geometry

    def cost(self) -> CostSurface:
        return rasterize_land(self.polygons, self.geometry)


def make_scene(kind: str, *, ncols: int = 100, nrows: int = 100,
               cellsize: float = 60.0, step: float = 10.0, noise_sd: float = 0.5,
               seed: int = 0) -> SyntheticScene:
    """Build a scene whose grid starts at (0, 0); see the module docstring for the kinds."""
    if kind not in SCENE_KINDS:
        raise ValueError(f"unknown scene kind {kind!r}, expected one of {SCENE_KINDS}")
    if step <= 0:
        raise ValueError(f"step must be positive, got {step}")
    if noise_sd < 0:
        raise ValueError(f"noise_sd must be non-negative, got {noise_sd}")
    if kind == "plume" and ncols < 2:
        # the source column would be the wall column
        raise ValueError(f"scene 'plume' needs at least 2 columns, got ncols={ncols}")
    geom = GridGeometry(ncols, nrows, 0.0, 0.0, cellsize)

    if kind == "two-basin":
        polygons = _wall_polygons(geom, y_top=geom.ymax + cellsize)
    elif kind == "plume":
        polygons = _wall_polygons(geom, y_top=geom.yll + 0.7 * geom.height)
    else:
        polygons = PolygonSet.empty()

    cost = rasterize_land(polygons, geom)
    water = cost.is_water
    truth_vals = np.full((nrows, ncols), DEFAULT_NODATA)

    if kind == "two-basin":
        wall_col = ncols // 2
        cols = np.arange(ncols)
        side = np.where(cols > wall_col, BASE_VALUE + step, BASE_VALUE)
        truth_vals[:] = np.broadcast_to(side, (nrows, ncols))
    elif kind == "gradient":
        cx, _ = geom.cell_centers()
        truth_vals[:] = BASE_VALUE + step * (cx - geom.xll) / geom.width
    else:
        source = (nrows // 2, max(0, ncols // 6))
        d = np.full((nrows, ncols), np.inf)
        d[water] = nearest_sources(cost, [source])[0][0]
        usable = np.isfinite(d)
        dmax = float(d[usable].max())
        scale = dmax if dmax > 0 else 1.0
        decay = PLUME_PEAK - step * d / scale
        truth_vals = np.where(usable, decay, PLUME_PEAK - step)

    truth_vals = np.where(water, truth_vals, DEFAULT_NODATA)
    truth = RasterGrid(geom, truth_vals, DEFAULT_NODATA)

    rng = np.random.default_rng(seed)
    track = _sample_track(geom, water, truth, rng, noise_sd)
    return SyntheticScene(kind, polygons, truth, track, float(step),
                          float(noise_sd), int(seed))


def _wall_polygons(geom: GridGeometry, *, y_top: float) -> PolygonSet:
    """One-cell-wide vertical wall at the middle column, up to ``y_top``."""
    wall_col = geom.ncols // 2
    x0 = geom.xll + wall_col * geom.cellsize
    x1 = x0 + geom.cellsize
    y0 = geom.yll - geom.cellsize
    ring = np.array([(x0, y0), (x1, y0), (x1, y_top), (x0, y_top), (x0, y0)])
    return PolygonSet((ring,))


def _sample_track(geom: GridGeometry, water: np.ndarray, truth: RasterGrid,
                  rng: np.random.Generator, noise_sd: float) -> PointSet:
    """Boustrophedon transect with meanders; samples on land are dropped.

    Positions come from geometry and rng state only; values are the truth at
    the containing cell plus scaled standard-normal noise, so two scenes
    with the same geometry and seed sample identical locations.
    """
    cs = geom.cellsize
    n_passes = max(2, int(round(geom.height / (_PASS_SPACING * cs))))
    phases = rng.uniform(0.0, 2.0 * np.pi, size=n_passes)
    ds = _SAMPLE_STEP * cs
    n_along = max(2, int(geom.width / ds))

    xs, ys = [], []
    for j in range(n_passes):
        y_base = geom.yll + geom.height * (j + 0.5) / n_passes
        x = geom.xll + (np.arange(n_along) + 0.5) * ds
        if j % 2:
            x = x[::-1]
        y = y_base + _MEANDER_AMP * cs * np.sin(
            2.0 * np.pi * (x - geom.xll) / (_MEANDER_WAVELENGTH * cs) + phases[j])
        xs.append(x)
        ys.append(y)
        if j + 1 < n_passes:
            # connector leg along the turning edge
            y_next = geom.yll + geom.height * (j + 1.5) / n_passes
            n_leg = max(1, int(abs(y_next - y_base) / ds))
            leg_y = y_base + (np.arange(1, n_leg + 1) / (n_leg + 1)) * (y_next - y_base)
            edge_x = x[-1]
            xs.append(np.full(n_leg, edge_x))
            ys.append(leg_y)

    x_all = np.concatenate(xs)
    y_all = np.concatenate(ys)

    rows, cols = geom.cells_of(x_all, y_all)
    keep = (rows >= 0) & water[rows, cols]
    base = truth.values[rows[keep], cols[keep]]
    eps = rng.standard_normal(len(base))
    return PointSet(x_all[keep], y_all[keep], base + noise_sd * eps)
