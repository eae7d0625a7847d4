"""Independent brute-force reference implementations used by the tests.

Everything in here deliberately avoids the production code paths: shortest
paths come from iterated Bellman-Ford style relaxation instead of Dijkstra,
estimates from direct fsum evaluation instead of the vectorised kernels, and
signed-rank p-values from full enumeration over sign patterns.  Tests compare
the package against these to catch shared-bug failure modes.  The one
exception is ``estimate_dense``, which hands a neighbor table built here to
the production estimator, as the engines do, so estimator tests need no
engine.
"""

import math

import numpy as np

from pathidw.interpolate import _estimate

SQRT2 = math.sqrt(2.0)

# Straight-line to grid-path stretch bound for 8-connected moves, sec(pi/8)
# rounded up at the fourth decimal.
OCTILE_FACTOR = 1.0824


def grid_edges(values, nodata, water_cost, cellsize):
    """Enumerate directed traversal edges of a cost grid by explicit loops.

    Args:
        values: 2-d array of per-cell costs (land/water/nodata values).
        nodata: sentinel marking non-traversable cells.
        water_cost: cost value identifying water cells (for the corner rule).
        cellsize: cell edge length.

    Returns:
        List of (u, v, w) tuples with u, v flat row-major indices.  Diagonal
        steps are omitted when both flanking orthogonal cells are non-water.
    """
    vals = np.asarray(values, dtype=float)
    nrows, ncols = vals.shape
    traversable = vals != nodata
    water = traversable & (vals == water_cost)
    edges = []
    offsets = [(-1, -1), (-1, 0), (-1, 1), (0, -1), (0, 1), (1, -1), (1, 0), (1, 1)]
    for r in range(nrows):
        for c in range(ncols):
            if not traversable[r, c]:
                continue
            for dr, dc in offsets:
                r2, c2 = r + dr, c + dc
                if not (0 <= r2 < nrows and 0 <= c2 < ncols):
                    continue
                if not traversable[r2, c2]:
                    continue
                diagonal = dr != 0 and dc != 0
                if diagonal and not water[r, c2] and not water[r2, c]:
                    continue
                # Between two water cells 0.5 * (wc + wc) is wc exactly, so
                # this is the production weight (water_cost * cellsize) * m
                # bit for bit and comparisons can demand exact equality.
                w = 0.5 * (vals[r, c] + vals[r2, c2])
                w = w * cellsize
                w = w * (SQRT2 if diagonal else 1.0)
                edges.append((r * ncols + c, r2 * ncols + c2, w))
    return edges


def relax_distances(values, source, nodata, water_cost, cellsize, edges=None):
    """Single-source accumulated costs by relaxation to a fixpoint.

    Returns a flat float array with np.inf on unreached cells.  `source` is a
    (row, col) pair.
    """
    vals = np.asarray(values, dtype=float)
    nrows, ncols = vals.shape
    if edges is None:
        edges = grid_edges(vals, nodata, water_cost, cellsize)
    dist = np.full(nrows * ncols, np.inf)
    dist[source[0] * ncols + source[1]] = 0.0
    if not edges:
        return dist
    u = np.array([e[0] for e in edges], dtype=int)
    v = np.array([e[1] for e in edges], dtype=int)
    w = np.array([e[2] for e in edges], dtype=float)
    while True:
        cand = dist[u] + w
        nxt = dist.copy()
        np.minimum.at(nxt, v, cand)
        if np.array_equal(nxt, dist):
            return dist
        dist = nxt


def relax_distance_matrix(values, nodata, water_cost, cellsize):
    """All-pairs accumulated costs, one relaxation per source cell."""
    vals = np.asarray(values, dtype=float)
    nrows, ncols = vals.shape
    edges = grid_edges(vals, nodata, water_cost, cellsize)
    n = nrows * ncols
    out = np.full((n, n), np.inf)
    for r in range(nrows):
        for c in range(ncols):
            if vals[r, c] == nodata:
                continue
            out[r * ncols + c] = relax_distances(
                vals, (r, c), nodata, water_cost, cellsize, edges=edges
            )
    return out


def shepard_direct(neighbors, power, n_nearest=None, max_distance=None):
    """Direct inverse-distance weighted mean over (distance, value) pairs.

    Mirrors the estimator contract: nearest-n keeps input order on distance
    ties, max_distance is inclusive, zero distances short-circuit to the mean
    of the coincident values.  Returns None when nothing qualifies.
    """
    pairs = [(float(d), float(v)) for d, v in neighbors]
    if n_nearest is not None:
        order = sorted(range(len(pairs)), key=lambda i: (pairs[i][0], i))
        pairs = [pairs[i] for i in order[:n_nearest]]
    elif max_distance is not None:
        pairs = [p for p in pairs if p[0] <= max_distance]
    if not pairs:
        return None
    zeros = [v for d, v in pairs if d == 0.0]
    if zeros:
        return math.fsum(zeros) / len(zeros)
    weights = [math.pow(d, -power) for d, _ in pairs]
    num = math.fsum(w * v for w, (_, v) in zip(weights, pairs))
    den = math.fsum(weights)
    return num / den


def table(dist, config):
    """Reference neighbor table over a dense (sources, targets) distance matrix.

    Nearest-n with more than n sources keeps each column's n nearest by a
    stable sort, so ties go to the earlier source. Otherwise rows are the
    sources in order, cleared beyond ``max_distance``, and the sources are
    the (sources, 1) column 0, 1, .... Returns (distances, sources).
    """
    src = np.arange(len(dist))[:, None]
    if config.max_distance is not None:
        dist = np.where(dist <= config.max_distance, dist, np.inf)
    if config.n_nearest is not None and len(dist) > config.n_nearest:
        src = np.argsort(dist, axis=0, kind="stable")[:config.n_nearest]
        dist = np.take_along_axis(dist, src, axis=0)
    return dist, src


def estimate_dense(dist, values, config):
    """``_estimate`` over ``table(dist, config)``: returns (estimates, has_estimate)."""
    d, src = table(dist, config)
    return _estimate(d, values[src], config.power)


def grid_split_training(x, y, mesh_cellsize, per_cell, seed):
    """Training indices of ``grid_split`` by a per-point dict of mesh cells.

    Points are grouped under their (iy, ix) mesh cell in input order, and
    each cell in sorted key order draws up to ``per_cell`` of its points
    with one ``rng.choice`` call. Returns the chosen indices, sorted.
    """
    ix = np.floor((x - float(x.min())) / mesh_cellsize).astype(int)
    iy = np.floor((y - float(y.min())) / mesh_cellsize).astype(int)
    groups = {}
    for i in range(len(x)):
        groups.setdefault((int(iy[i]), int(ix[i])), []).append(i)
    rng = np.random.default_rng(seed)
    chosen = []
    for key in sorted(groups):
        members = groups[key]
        picks = rng.choice(len(members), size=min(per_cell, len(members)), replace=False)
        chosen.extend(members[j] for j in picks)
    return sorted(chosen)


def midranks(mags):
    """1-based average ranks of a magnitude vector, ties share the mean rank."""
    mags = np.asarray(mags, dtype=float)
    n = len(mags)
    order = np.argsort(mags, kind="stable")
    ranks = np.empty(n)
    i = 0
    while i < n:
        j = i
        while j + 1 < n and mags[order[j + 1]] == mags[order[i]]:
            j += 1
        ranks[order[i : j + 1]] = (i + j + 2) / 2.0
        i = j + 1
    return ranks


def wilcoxon_enumerate(diffs):
    """Two-sided signed-rank p-value by enumerating all 2^n sign patterns.

    Zero differences are removed first, matching the production convention.
    Returns (statistic, p_value) with statistic = W+ - W-.
    """
    d = np.asarray(diffs, dtype=float)
    d = d[d != 0.0]
    n = len(d)
    if n == 0:
        return 0.0, 1.0
    ranks = midranks(np.abs(d))
    total = ranks.sum()
    w_plus = ranks[d > 0].sum()
    # Rank sums are multiples of 0.5 well below 2**53, so every partial sum
    # is exact and the comparisons below are free of rounding.
    patterns = (np.arange(2**n)[:, None] >> np.arange(n)) & 1
    w_all = patterns.astype(float) @ ranks
    le = int(np.count_nonzero(w_all <= w_plus))
    ge = int(np.count_nonzero(w_all >= w_plus))
    p = min(1.0, 2.0 * min(le, ge) / 2.0**n)
    return w_plus - (total - w_plus), p


def count_boundary_edges(land_mask, valid_mask):
    """Count rook-adjacent (land, water) cell pairs by explicit loops."""
    land = np.asarray(land_mask, dtype=bool)
    valid = np.asarray(valid_mask, dtype=bool)
    nrows, ncols = land.shape
    count = 0
    for r in range(nrows):
        for c in range(ncols):
            if not valid[r, c]:
                continue
            for dr, dc in ((0, 1), (1, 0)):
                r2, c2 = r + dr, c + dc
                if r2 >= nrows or c2 >= ncols or not valid[r2, c2]:
                    continue
                if land[r, c] != land[r2, c2]:
                    count += 1
    return count


def spearman_direct(a, b):
    """Spearman rank correlation from the Pearson formula on midranks."""
    ra = midranks(np.asarray(a, dtype=float))
    rb = midranks(np.asarray(b, dtype=float))
    ra = ra - ra.mean()
    rb = rb - rb.mean()
    den = math.sqrt(float(ra @ ra) * float(rb @ rb))
    if den == 0.0:
        return None
    return float(ra @ rb) / den


def snap_window(water, xll, yll, cellsize, x, y, radius):
    """Snap one point by a scalar scan of its (2r+1)**2 window.

    ``water`` is a 2-d boolean mask with row 0 at the top. Returns the
    (row, col) of the snapped cell, or None when the point is outside the
    grid or no water cell lies in the window. Ties go to the first cell in
    row-major scan order.
    """
    nrows, ncols = water.shape
    col = math.floor((x - xll) / cellsize)
    row_up = math.floor((y - yll) / cellsize)
    if not (0 <= col < ncols and 0 <= row_up < nrows):
        return None
    r0, c0 = nrows - 1 - row_up, col
    if water[r0, c0]:
        return r0, c0
    best, best_d2 = None, math.inf
    for r in range(max(0, r0 - radius), min(nrows, r0 + radius + 1)):
        for c in range(max(0, c0 - radius), min(ncols, c0 + radius + 1)):
            if not water[r, c]:
                continue
            cx = xll + (c + 0.5) * cellsize
            cy = yll + (nrows - r - 0.5) * cellsize
            d2 = (x - cx) ** 2 + (y - cy) ** 2
            if d2 < best_d2:
                best, best_d2 = (r, c), d2
    return best


def even_odd_contains(rings, xs, ys):
    """Even-odd containment of each point (xs[i], ys[i]) by a scalar loop.

    For every point, every ring and every edge, the edge counts as crossed
    when the point's y lies in [min(y1, y2), max(y1, y2)) and its x lies
    left of the edge at that height; a ring holds the point on an odd count,
    and the set holds it when any ring does. NaN compares false, so it never
    crosses. The crossing x is the same t-then-x expression as the
    production rule, in Python floats, so points on sloped edges decide
    alike; the band, the parity and the union are this loop's own.
    Returns a list of bools.
    """
    out = []
    for px, py in zip(xs, ys):
        px, py = float(px), float(py)
        inside = False
        for ring in rings:
            crossings = 0
            for (x1, y1), (x2, y2) in zip(ring[:-1].tolist(), ring[1:].tolist()):
                if min(y1, y2) <= py < max(y1, y2):
                    t = (py - y1) / (y2 - y1)
                    if px < x1 + t * (x2 - x1):
                        crossings += 1
            inside = inside or crossings % 2 == 1
        out.append(inside)
    return out
