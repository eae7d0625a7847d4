"""Accumulated least-cost path distances through water.

Interpolation needs each water cell's nearest sources through water only,
so the move graph holds the water cells alone. Movement is 8-connected
between their centers, and a move costs ``water_cost * cellsize * m``
meters, where m is 1 for rook moves and sqrt(2) for diagonals, so
distances reduce to plain center-to-center polyline length on unit-cost
water. A diagonal move also needs one of the two orthogonal cells flanking
it to be water: two land or nodata cells touching at a corner form a
watertight wall. A source therefore reaches a water cell when the two are
connected through water, however long the route.

Land splits the water into components that no route joins. The nearest-k
search numbers the water nodes by (component, row-major), so each
component is one node range, and each Dijkstra call runs on one range with
some of its component's sources and merges their labels into the table's
row-major columns. It takes two passes. The first searches small or
sparsely sourced components unbounded and the rest within a radius R, each
chunk of sources on the band of rows that a path of cost R can reach. The
second clears the columns still short of k labels within R and refills
them, bounding each one through its certified neighbours. In both passes a
chunk ends where its sources' rows would span more than two bands, so no
window covers most of a component. Each column lies in one component,
whose sources reach it in ascending order, so a stable merge keeps equal
distances in source order, as one search over all sources would.
"""

from __future__ import annotations

import math
import numbers

import numpy as np

from .costsurface import CostSurface
from .errors import SnapError
from .points import PointSet
from .raster import require_count

DEFAULT_SNAP_RADIUS = 2

# the eight moves in row-major order of the cell they lead to, so each
# node's neighbours come out in ascending node order
_OFFSETS = tuple((dr, dc) for dr in (-1, 0, 1) for dc in (-1, 0, 1) if dr or dc)


def move_graph(cost: CostSurface) -> "scipy.sparse.csr_matrix":
    """Sparse symmetric move graph over the water cells, numbered in row-major order.

    The CSR arrays are built directly: an (N, 8) block holds each water
    node's neighbour in every direction, -1 where that move is closed, and
    one boolean compress of it gives the column indices, sorted within each
    row, and the weights.
    """
    # scipy.sparse is imported here and where the search runs, so that
    # processes that never build a move graph skip it
    from scipy import sparse

    geom = cost.geometry
    nr, nc = geom.nrows, geom.ncols
    water = cost.is_water
    n = int(water.sum())
    # padded by one cell of land, so every move is a shifted slice; node
    # numbers are -1 off water
    wet = np.pad(water, 1)
    node = np.full(wet.shape, -1, dtype=np.int32 if n <= np.iinfo(np.int32).max else np.int64)
    node[1:-1, 1:-1][water] = np.arange(n)
    step = cost.water_cost * geom.cellsize
    nbr = np.empty((n, len(_OFFSETS)), dtype=node.dtype)
    for j, (dr, dc) in enumerate(_OFFSETS):
        nbr[:, j] = node[1 + dr:1 + dr + nr, 1 + dc:1 + dc + nc][water]
        if dr and dc:
            # one flank, (r+dr, c) or (r, c+dc), must be water
            flank = wet[1 + dr:1 + dr + nr, 1:1 + nc] | wet[1:1 + nr, 1 + dc:1 + dc + nc]
            nbr[~flank[water], j] = -1
    ok = nbr >= 0
    indptr = np.concatenate([[0], np.cumsum(ok.sum(axis=1))])
    weights = np.array([step * (math.sqrt(2.0) if dr and dc else 1.0) for dr, dc in _OFFSETS])
    data = np.broadcast_to(weights, nbr.shape)[ok]
    # scipy stores both index arrays as int32 while the node and entry
    # counts fit it, as its COO conversion does
    return sparse.csr_matrix((data, nbr[ok], indptr), shape=(n, n))


# sources per Dijkstra call: a chunk's (sources x window cells) block is
# the search's largest temporary next to the neighbor table itself
_CHUNK = 32
# start radius, in radii of a disc holding k sources at the mean density:
# on the 150x150 plume benchmark scene (k=10) 1.7 certifies 98.5% of the
# cells in the first pass and 2.0 99.7%, but a second pass bounded by
# certified neighbours is cheap, and 1.7 settled the fewest labels and ran
# fastest of 1.5, 1.6, 1.7, 1.8 and 2.0
_RADIUS = 1.7
# target columns merged at once: the merge's (k + _CHUNK) x columns
# temporaries stay a few MB however many targets a chunk reaches
_TILE = 2048
# relative slack on the Euclidean and neighbour bounds, far above the
# rounding of path sums and of the bounds themselves, so pruning or a window
# never drops a true neighbor
_BOUND_SLACK = 1e-9


def _merge(dist, src, d, part, cols, first):
    """Merge the labels ``d`` of sources ``part`` into columns ``cols``, keeping the k first."""
    s = np.broadcast_to(part[:, None], d.shape)
    # on a component's first chunk every slot is empty, and the block
    # sorted on its own gives the same labels: empty slots only hold inf
    if not first:
        d = np.concatenate([dist[:, cols], d])
        s = np.concatenate([src[:, cols], s])
    order = np.argsort(d, axis=0, kind="stable")[:len(dist)]
    dist[:len(order), cols] = np.take_along_axis(d, order, axis=0)
    src[:len(order), cols] = np.take_along_axis(s, order, axis=0)


def nearest_sources(cost: CostSurface, cells, *, k: int | None = None,
                    max_distance: float | None = None) -> tuple[np.ndarray, np.ndarray]:
    """Neighbor table of in-water path distances from source cells.

    Returns ``(distances, sources)`` with water cells in row-major order as
    columns; a source reaches a water cell when the two are connected
    through water, and an inf distance marks a slot with no source.

    With ``k`` set and below the number of sources, both are (k, water
    cells): column t lists the k nearest sources of water cell t, ordered by
    (distance, position in ``cells``), and an empty slot holds source -1.
    Otherwise row i of the distances is source i: all of them, or those
    within ``max_distance`` (inclusive) when that is set. ``sources`` is
    then the (sources, 1) column ``0, 1, ...``, which broadcasts against
    the distances; an unreachable source has an inf distance only.

    In nearest-k mode two passes fill the table by Dijkstra. A water
    component that holds at most k sources, or at most 8 k N / S of the N
    water cells for S sources, is searched unbounded in the first pass. The
    others are bounded by R, 1.7 times the radius of a disc that holds k
    sources at the mean density, and each call runs on the rows within
    R / (water_cost * cellsize) of its sources; a chunk of sources is cut
    short where their rows would span more than two such bands. A target
    there is certified once its k-th label is within R, since every source
    beyond R is farther. The second pass clears the pending targets and
    bounds each one's k-th label by U(t), the least k-th label of a
    certified cell plus the path from it. It runs again only the sources
    whose straight-line lower bound reaches a pending target of their own
    component within U, each chunk bounded by the largest U it must reach
    and cut at two bands as in the first pass, so every pending target is
    certified then.
    """
    if k is not None and max_distance is not None:
        raise ValueError("choose one of k and max_distance")
    if k is not None:
        require_count("k", k)
    if max_distance is not None and not max_distance >= 0:
        raise ValueError(f"max_distance must be non-negative, got {max_distance!r}")
    geom = cost.geometry
    water = cost.is_water
    cells = [tuple(c) for c in cells]
    for r, c in cells:
        if not all(isinstance(v, numbers.Integral) and not isinstance(v, bool) for v in (r, c)):
            raise ValueError(f"source cell {(r, c)} must be a pair of integers")
        if not (0 <= r < geom.nrows and 0 <= c < geom.ncols) or not water[r, c]:
            raise ValueError(f"source cell {(r, c)} out of bounds or not water")
    from scipy.sparse import csgraph
    water_flat = np.flatnonzero(water.ravel())
    nodes = np.searchsorted(water_flat, [r * geom.ncols + c for r, c in cells])
    if k is not None and k < len(nodes):
        return _search_nearest(move_graph(cost), nodes, k, cost, water_flat)
    limit = np.inf if max_distance is None else max_distance
    dist = csgraph.dijkstra(move_graph(cost), directed=True, indices=nodes, limit=limit)
    return dist, np.arange(len(nodes))[:, None]


def _search_nearest(graph, nodes, k: int, cost: CostSurface, water_flat):
    """``nearest_sources``' nearest-k table, filled in two passes.

    Component c is the node range ``bounds[c]:bounds[c + 1]``, whose nodes
    are the table columns ``order[bounds[c]:bounds[c + 1]]``, so a Dijkstra
    call runs on its rows alone, renumbered from 0, from up to
    ``_CHUNK`` of its sources in ascending order. A stable sort then keeps
    equal labels in source order, and a label that only ties the k-th loses
    to the earlier source.
    """
    from scipy import sparse
    from scipy.sparse import csgraph
    n_water, n_src = graph.shape[0], len(nodes)
    _, comp = csgraph.connected_components(graph, directed=False)
    order = np.argsort(comp, kind="stable")
    bounds = np.searchsorted(comp[order], np.arange(comp.max() + 2))
    # cell i, table column i, is node pos[i], number local[i] in its component
    pos = np.empty_like(order)
    pos[order] = np.arange(n_water)
    local = pos - bounds[comp]
    relabelled = graph[order]
    data, indptr = relabelled.data, relabelled.indptr
    indices = local[relabelled.indices].astype(relabelled.indices.dtype)
    # only the relabelled arrays are searched; the caller holds no graph
    del graph, relabelled
    src_comp = comp[nodes]
    per_comp = np.bincount(src_comp, minlength=len(bounds) - 1)
    # each component's sources in ascending order
    groups = np.split(np.argsort(src_comp, kind="stable"), np.cumsum(per_comp)[:-1])
    # R = _RADIUS * water_cost * sqrt(k * water_area / (pi * n_src)); a
    # component with at most k sources, or of at most 8 k n_water / n_src
    # cells (twice a disc of twice the mean-density radius), is searched whole
    cs, wc = cost.geometry.cellsize, cost.water_cost
    radius = _RADIUS * wc * cs * math.sqrt(k * n_water / (math.pi * n_src))
    whole = (per_comp <= k) | (np.diff(bounds) <= 8.0 * k * n_water / n_src)

    # nodes are in (component, row-major) order, so each component's rows
    # ascend along its node range
    rows, cols = np.divmod(water_flat[order], cost.geometry.ncols)
    dist = np.full((k, n_water), np.inf)
    src = np.full((k, n_water), -1)

    def component(c):
        a, b = bounds[c], bounds[c + 1]
        lo, hi = indptr[a], indptr[b]
        return sparse.csr_matrix((data[lo:hi], indices[lo:hi], indptr[a:b + 1] - lo),
                                 shape=(b - a, b - a))

    def search(c, group, limits, pending):
        """Merge the labels of ``group``, chunk by chunk, into c's pending columns.

        A chunk's call is bounded by the largest of its sources' ``limits``
        and runs on the window of c's rows that such a path can reach: its
        cost is at least water_cost times its straight-line length, so it
        stays within limit / (water_cost * cellsize) rows of its source.
        A chunk also ends before a source that would stretch its sources'
        rows over more than two such bands.
        """
        a, b = bounds[c], bounds[c + 1]
        sub = component(c)
        at = 0
        while at < len(group):
            end = at + _within_two_bands(rows[pos[nodes[group[at:at + _CHUNK]]]],
                                         limits[at:at + _CHUNK], wc * cs)
            part = group[at:end]
            limit = limits[at:end].max()
            at_src = pos[nodes[part]]
            lo, hi = a, b
            if np.isfinite(limit):
                band = int(limit / (wc * cs) * (1.0 + _BOUND_SLACK))
                lo, hi = a + np.searchsorted(
                    rows[a:b], [rows[at_src].min() - band, rows[at_src].max() + band + 1])
            window = sub if hi - lo == b - a else sub[lo - a:hi - a, lo - a:hi - a]
            block = csgraph.dijkstra(window, directed=True, indices=at_src - lo, limit=limit)
            # a label must beat the column's k-th: a tie loses to the
            # earlier source already there
            hit = np.flatnonzero(pending[lo:hi] & (block.min(axis=0) < dist[-1, order[lo:hi]]))
            for tile in range(0, len(hit), _TILE):
                sel = hit[tile:tile + _TILE]
                _merge(dist, src, block[:, sel], part, order[lo + sel], first=at == 0)
            # free this block before the next Dijkstra call allocates its own
            del block
            at = end

    # pass 1: every component, bounded by R unless searched whole
    pending = np.ones(n_water, dtype=bool)
    for c in np.flatnonzero(per_comp):
        search(c, groups[c], np.full(per_comp[c], np.inf if whole[c] else radius), pending)
    # a column is certified once its k-th label is within R, since every
    # source beyond R is farther; the rest are cleared and filled again
    pending = np.repeat(~whole, np.diff(bounds)) & np.isinf(dist[-1, order])
    dist[:, order[pending]] = np.inf
    xy = np.column_stack([cols, rows]) * cs
    # pass 2: a source runs again when its straight-line bound reaches a
    # pending cell t within the bound U(t) on t's k-th label, limited by the
    # largest such U; a component with no certified cell has no finite U,
    # so it is searched whole
    for c in np.flatnonzero(np.add.reduceat(pending, bounds[:-1])):
        a, b = bounds[c], bounds[c + 1]
        group = groups[c]
        bound = _kth_bound(component(c), dist[-1, order[a:b]], pending[a:b]) * (1.0 + _BOUND_SLACK)
        target = xy[a:b][pending[a:b]]
        reach = np.empty(len(group))
        # chunked, so the (sources x pending cells) test is no larger than a block
        for at in range(0, len(group), _CHUNK):
            s = xy[pos[nodes[group[at:at + _CHUNK]]]]
            near = wc * np.hypot(s[:, :1] - target[:, 0], s[:, 1:] - target[:, 1]) <= bound
            reach[at:at + _CHUNK] = np.where(near, bound, -np.inf).max(axis=1)
        keep = reach >= 0
        search(c, group[keep], reach[keep], pending)
    src[np.isinf(dist)] = -1
    return dist, src


def _within_two_bands(rows, limits, unit: float) -> int:
    """How many leading sources of a chunk keep its row span within two bands.

    A chunk's band is the rows that a path of its limit, the largest of its
    sources' ``limits``, can reach from a source: limit / ``unit`` rows, as
    ``_search_nearest`` windows them. At least one source is kept; with an
    infinite limit every one is.
    """
    band = np.floor(np.maximum.accumulate(limits) / unit * (1.0 + _BOUND_SLACK))
    span = np.maximum.accumulate(rows) - np.minimum.accumulate(rows)
    over = np.flatnonzero(span > 2.0 * band)
    return int(over[0]) if len(over) else len(rows)


def _kth_bound(sub, kth, pending):
    """Upper bounds on the pending cells' k-th labels from certified neighbours.

    A certified cell u has k sources within ``kth[u]``, so a cell t has k
    within ``kth[u] + path(u, t)`` (Erwig, "The graph Voronoi diagram with
    applications", Networks 36, 2000). One Dijkstra call from a virtual
    node joined to every certified neighbour of a pending cell, with weight
    ``kth[u]``, gives the least such bound over paths through pending cells
    and those neighbours. In a component with a certified cell every
    pending cell gets a finite bound, since the component is connected.
    """
    from scipy import sparse
    from scipy.sparse import csgraph
    keep = pending.copy()
    keep[sub[pending].indices] = True
    idx = np.flatnonzero(keep)
    g = sub[idx][:, idx]
    edge = np.flatnonzero(~pending[idx])
    n = len(idx)
    g = sparse.csr_matrix((np.concatenate([g.data, kth[idx[edge]]]),
                           np.concatenate([g.indices, edge]),
                           np.append(g.indptr, g.nnz + len(edge))), shape=(n + 1, n + 1))
    return csgraph.dijkstra(g, directed=True, indices=n)[:n][pending[idx]]


def snap_points(cost: CostSurface, points: PointSet) -> list[tuple[int, int]]:
    """Snap every point to a water cell; one SnapError lists all failures.

    A point already on a water cell stays there. A point on a land or nodata
    cell moves to the water cell within ``DEFAULT_SNAP_RADIUS`` cells
    (Chebyshev window) whose center is nearest the point; ties go to the
    first candidate in row-major scan order. Points outside the grid extent
    never snap.
    """
    rows, cols, inside = _snap(cost, points.x, points.y, DEFAULT_SNAP_RADIUS)
    failed = np.flatnonzero(rows < 0)
    if len(failed):
        raise SnapError([(int(i), f"no water cell within {DEFAULT_SNAP_RADIUS} cells"
                          if inside[i] else "outside the grid extent") for i in failed])
    return list(zip(rows.tolist(), cols.tolist()))


def _snap(cost: CostSurface, x: np.ndarray, y: np.ndarray, radius: int):
    """Snap points by ``snap_points``' rule within ``radius`` cells.

    Reads the water mask once. Returns (rows, cols, inside): the snapped
    cells, -1 where a point does not snap, and whether each point lies in
    the grid.
    """
    geom = cost.geometry
    water = cost.is_water
    rows, cols = geom.cells_of(x, y)
    inside = rows >= 0
    keep = inside & water[rows, cols]
    off = np.flatnonzero(inside & ~keep)
    snapped_rows, snapped_cols = np.where(keep, rows, -1), np.where(keep, cols, -1)
    if len(off):
        # one row per off-water point: its window's cells in row-major scan order
        step = np.arange(-radius, radius + 1)
        r = rows[off, None] + np.repeat(step, len(step))
        c = cols[off, None] + np.tile(step, len(step))
        ok = np.pad(water, radius)[r + radius, c + radius]
        cx = geom.xll + (c + 0.5) * geom.cellsize
        cy = geom.yll + (geom.nrows - r - 0.5) * geom.cellsize
        d2 = np.where(ok, (x[off, None] - cx) ** 2 + (y[off, None] - cy) ** 2, np.inf)
        # argmin keeps the first minimum, so ties go to the earliest in the scan
        pick = np.arange(len(off)), d2.argmin(axis=1)
        found = ok[pick]
        snapped_rows[off[found]] = r[pick][found]
        snapped_cols[off[found]] = c[pick][found]
    return snapped_rows, snapped_cols, inside
