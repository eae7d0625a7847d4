"""Reference answers the benchmark checks pathidw's outputs against.

Nothing here calls ``pathidw.pathdist`` or ``pathidw.interpolate``: points are
snapped and averaged, in-water path distances are found by a single-target
Dijkstra over a water graph built here, straight-line distances come from
``np.hypot``, and the Shepard estimate is summed with ``math.fsum``. Water
cells are sampled with a seed; a sampled cell whose k-th and (k+1)-th
reference distances tie is skipped, because either neighbor may be chosen.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass

import numpy as np

REL_TOL = 1e-9
SNAP_RADIUS = 2
_MOVES = tuple((dr, dc) for dr in (-1, 0, 1) for dc in (-1, 0, 1) if dr or dc)


@dataclass(frozen=True)
class Grid:
    """Plain grid description: water mask (row 0 on top), origin, cellsize."""

    water: np.ndarray
    xll: float
    yll: float
    cellsize: float
    water_cost: float = 1.0

    @property
    def shape(self):
        return self.water.shape

    def cell_of(self, x: float, y: float):
        nrows, ncols = self.shape
        col = math.floor((x - self.xll) / self.cellsize)
        up = math.floor((y - self.yll) / self.cellsize)
        if not (0 <= col < ncols and 0 <= up < nrows):
            return None
        return nrows - 1 - up, col

    def center_of(self, r: int, c: int):
        nrows = self.shape[0]
        return (self.xll + (c + 0.5) * self.cellsize,
                self.yll + (nrows - r - 0.5) * self.cellsize)


@dataclass(frozen=True)
class Sources:
    cells: tuple           # unique snapped (row, col), first-seen order
    values: np.ndarray     # averaged value per cell

    @property
    def lo(self) -> float:
        return float(self.values.min())

    @property
    def hi(self) -> float:
        return float(self.values.max())


def snap_sources(grid: Grid, x, y, values) -> Sources:
    """Snap points to water cells and average points sharing a cell."""
    grouped: dict = {}
    for px, py, v in zip(x, y, values):
        cell = _snap(grid, float(px), float(py))
        if cell is None:
            raise ValueError(f"point ({px}, {py}) has no water cell to snap to")
        grouped.setdefault(cell, []).append(float(v))
    cells = tuple(grouped)
    means = np.array([math.fsum(grouped[c]) / len(grouped[c]) for c in cells])
    return Sources(cells, means)


def _snap(grid: Grid, x: float, y: float):
    cell = grid.cell_of(x, y)
    if cell is None or grid.water[cell]:
        return cell
    r0, c0 = cell
    nrows, ncols = grid.shape
    best, best_d2 = None, math.inf
    for r in range(max(0, r0 - SNAP_RADIUS), min(nrows, r0 + SNAP_RADIUS + 1)):
        for c in range(max(0, c0 - SNAP_RADIUS), min(ncols, c0 + SNAP_RADIUS + 1)):
            if grid.water[r, c]:
                cx, cy = grid.center_of(r, c)
                d2 = (x - cx) ** 2 + (y - cy) ** 2
                if d2 < best_d2:
                    best, best_d2 = (r, c), d2
    return best


def path_neighbors(grid: Grid, sources: Sources, target, count: int):
    """Up to ``count`` nearest (distance, value) pairs along water routes.

    Dijkstra runs from the target over water cells only, with 8-connected
    moves costing ``water_cost * cellsize`` (times sqrt(2) on diagonals); a
    diagonal is barred when both cells flanking it are not water. The search
    stops once ``count`` source cells are settled.
    """
    nrows, ncols = grid.shape
    water = grid.water.ravel().tolist()
    value_at = {r * ncols + c: v for (r, c), v in zip(sources.cells, sources.values)}
    rook = grid.water_cost * grid.cellsize
    diag = grid.water_cost * grid.cellsize * math.sqrt(2.0)
    start = target[0] * ncols + target[1]
    dist = {start: 0.0}
    done = set()
    heap = [(0.0, start)]
    found = []
    while heap and len(found) < count:
        d, node = heapq.heappop(heap)
        if node in done:
            continue
        done.add(node)
        if node in value_at:
            found.append((d, float(value_at[node])))
        r, c = divmod(node, ncols)
        for dr, dc in _MOVES:
            nr, nc = r + dr, c + dc
            if not (0 <= nr < nrows and 0 <= nc < ncols):
                continue
            nxt = nr * ncols + nc
            if not water[nxt]:
                continue
            if dr and dc:
                if not water[nr * ncols + c] and not water[r * ncols + nc]:
                    continue
                nd = d + diag
            else:
                nd = d + rook
            if nd < dist.get(nxt, math.inf):
                dist[nxt] = nd
                heapq.heappush(heap, (nd, nxt))
    return found


def line_neighbors(grid: Grid, sources: Sources, target, count: int):
    """Up to ``count`` nearest (distance, value) pairs in straight lines."""
    tx, ty = grid.center_of(*target)
    centers = np.array([grid.center_of(r, c) for r, c in sources.cells])
    d = np.hypot(tx - centers[:, 0], ty - centers[:, 1])
    order = np.argsort(d, kind="stable")[:count]
    return [(float(d[i]), float(sources.values[i])) for i in order]


def shepard(pairs, k: int, power: float):
    """Estimate from sorted (distance, value) pairs, or None for no neighbor.

    Returns the string "tie" when the k-th and (k+1)-th distances tie.
    """
    if not pairs:
        return None
    zero = [v for d, v in pairs if d == 0.0]
    if zero:
        return math.fsum(zero) / len(zero)
    if len(pairs) > k and pairs[k][0] - pairs[k - 1][0] <= REL_TOL * pairs[k][0]:
        return "tie"
    used = pairs[:k]
    weights = [d ** -power for d, _ in used]
    return math.fsum(w * v for w, (_, v) in zip(weights, used)) / math.fsum(weights)


def expected_values(grid: Grid, sources: Sources, cells, *, method: str,
                    k: int, power: float = 2.0) -> dict:
    """Reference estimate per sampled cell (None = nodata, "tie" = skip)."""
    find = path_neighbors if method == "ipdw" else line_neighbors
    return {cell: shepard(find(grid, sources, cell, k + 1), k, power) for cell in cells}


def sample_water(grid: Grid, n: int, seed) -> list:
    rows, cols = np.nonzero(grid.water)
    rng = np.random.default_rng(seed)
    pick = rng.choice(len(rows), size=min(n, len(rows)), replace=False)
    return [(int(rows[i]), int(cols[i])) for i in sorted(pick)]


def check_prediction(pred: np.ndarray, nodata: float, grid: Grid, sources: Sources,
                     expected: dict, *, every_water_cell: bool,
                     abs_tol: float = 0.0) -> list[str]:
    """Problems found in one prediction raster; empty when it passes.

    ``abs_tol`` allows for rounding in a written grid on top of REL_TOL.
    """
    problems = []
    if pred.shape != grid.shape:
        return [f"shape {pred.shape} != {grid.shape}"]
    has = pred != nodata
    if (has & ~grid.water).any():
        problems.append(f"{int((has & ~grid.water).sum())} land cells carry an estimate")
    if every_water_cell and (grid.water & ~has).any():
        problems.append(f"{int((grid.water & ~has).sum())} water cells lack an estimate")
    slack = REL_TOL * (sources.hi - sources.lo + 1.0) + abs_tol
    est = pred[has]
    if ((est < sources.lo - slack) | (est > sources.hi + slack)).any():
        problems.append("an estimate lies outside the training value range")
    for cell, want in expected.items():
        got = float(pred[cell])
        if want == "tie":
            continue
        if want is None:
            if got != nodata:
                problems.append(f"cell {cell}: expected nodata, got {got!r}")
        elif got == nodata:
            problems.append(f"cell {cell}: expected {want!r}, got nodata")
        elif abs(got - want) > REL_TOL * max(1.0, abs(want)) + abs_tol:
            problems.append(f"cell {cell}: expected {want!r}, got {got!r}")
    return problems


def mae(pred: np.ndarray, nodata: float, grid: Grid, x, y, values):
    """Mean absolute error of a raster at validation points, and their count."""
    nrows, ncols = grid.shape
    col = np.floor((np.asarray(x) - grid.xll) / grid.cellsize).astype(int)
    up = np.floor((np.asarray(y) - grid.yll) / grid.cellsize).astype(int)
    inside = (col >= 0) & (col < ncols) & (up >= 0) & (up < nrows)
    got = np.full(len(col), nodata)
    got[inside] = pred[nrows - 1 - up[inside], col[inside]]
    scored = got != nodata
    if not scored.any():
        raise ValueError("no validation point falls on an estimated cell")
    errors = np.abs(got[scored] - np.asarray(values)[scored])
    return math.fsum(errors) / len(errors), int(scored.sum())


def inside_rings(rings, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Points inside any ring, each ring tested by even-odd crossing parity."""
    inside = np.zeros(x.shape, dtype=bool)
    for ring in rings:
        parity = np.zeros(x.shape, dtype=bool)
        for (x1, y1), (x2, y2) in zip(ring[:-1], ring[1:]):
            if y1 == y2:
                continue
            spans = (np.minimum(y1, y2) <= y) & (y < np.maximum(y1, y2))
            parity ^= spans & (x < x1 + (y - y1) / (y2 - y1) * (x2 - x1))
        inside |= parity
    return inside


def edge_density(land: np.ndarray, cellsize: float) -> float:
    """Rook-adjacent land/water boundary, meters per hectare of grid area."""
    edges = int((land[:, :-1] != land[:, 1:]).sum()) + int((land[:-1, :] != land[1:, :]).sum())
    return edges * cellsize / (land.size * cellsize * cellsize / 10000.0)
