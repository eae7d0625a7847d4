import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import oracles
from pathidw import (
    DEFAULT_SNAP_RADIUS,
    CostSurface,
    GridGeometry,
    InterpConfig,
    PointSet,
    RasterGrid,
    SnapError,
    interpolate_ipdw,
    move_graph,
    nearest_sources,
    snap_points,
    snapped_sources,
)
from pathidw import pathdist
from pathidw.interpolate import _estimate

CS = 60.0


def surface(values, cellsize=CS, nodata=-9999.0):
    values = np.asarray(values, dtype=float)
    nrows, ncols = values.shape
    geom = GridGeometry(ncols=ncols, nrows=nrows, xll=0.0, yll=0.0, cellsize=cellsize)
    return CostSurface(RasterGrid(geom, values, nodata))


def water(nrows, ncols, cellsize=CS):
    return surface(np.ones((nrows, ncols)), cellsize=cellsize)


def land_masked(cost):
    """The cost values with every non-water cell set to nodata."""
    return np.where(cost.is_water, cost.raster.values, cost.raster.nodata)


def relax_field(cost, source, edges=None):
    """Oracle in-water distances from ``source`` as a grid, inf where unreached."""
    raw = oracles.relax_distances(
        land_masked(cost),
        source,
        cost.raster.nodata,
        cost.water_cost,
        cost.geometry.cellsize,
        edges=edges,
    )
    return raw.reshape(cost.geometry.nrows, cost.geometry.ncols)


def fields(cost, cells):
    """``nearest_sources`` rows for ``cells`` scattered onto the grid, inf off water."""
    dist, src = nearest_sources(cost, cells)
    assert np.array_equal(src, np.arange(len(dist))[:, None])
    out = np.full((len(dist), cost.geometry.nrows, cost.geometry.ncols), np.inf)
    out[:, cost.is_water] = dist
    return out


def field(cost, source):
    return fields(cost, [source])[0]


class TestAllSourcesMode:
    """``nearest_sources`` in all-points mode: one in-water distance row per source cell."""

    def test_straight_row(self):
        assert np.array_equal(field(water(1, 3), (0, 0)), [[0.0, 60.0, 120.0]])

    def test_open_water_diagonal(self):
        vals = field(water(3, 3), (0, 0))
        assert vals[2, 2] == 169.7056274847714
        assert vals[1, 1] == pytest.approx(60 * math.sqrt(2), rel=1e-15)

    def test_distance_is_polyline_length_on_open_water(self):
        vals = field(water(5, 7), (2, 3))
        # Octile metric on a uniform grid: straight moves cost one cell,
        # diagonals sqrt(2) cells.
        for r in range(5):
            for c in range(7):
                dr, dc = abs(r - 2), abs(c - 3)
                expect = (min(dr, dc) * math.sqrt(2) + abs(dr - dc)) * CS
                assert vals[r, c] == pytest.approx(expect, rel=1e-12)

    def test_detour_around_center_land(self):
        vals = np.ones((3, 3))
        vals[1, 1] = 10000.0
        cost = surface(vals)
        got = field(cost, (0, 0))
        assert got[2, 2] == pytest.approx(120 + 60 * math.sqrt(2), rel=1e-12)
        assert np.isfinite(got[cost.is_water]).all()
        assert np.isinf(got[1, 1])

    def test_matches_relaxation_oracle_exactly(self):
        vals = np.ones((4, 5))
        vals[0, 2] = vals[1, 2] = vals[3, 1] = 10000.0
        cost = surface(vals)
        assert np.array_equal(field(cost, (1, 0)), relax_field(cost, (1, 0)))

    def test_crossing_a_barrier_flags_unreachable(self):
        vals = np.ones((3, 5))
        vals[:, 2] = 10000.0
        got = field(surface(vals), (1, 0))
        # No water route crosses the land column, however cheap the detour.
        assert np.isfinite(got[:, :2]).all()
        assert np.isinf(got[:, 2:]).all()
        assert got[1, 1] == 60.0

    def test_corner_cutting_forbidden_between_land_cells(self):
        vals = np.array([[1.0, 10000.0], [10000.0, 1.0]])
        # The diagonal is sealed, so no water route reaches the far corner.
        assert np.isinf(field(surface(vals), (0, 0))[1, 1])

    def test_corner_with_one_water_flank_is_open(self):
        vals = np.array([[1.0, 10000.0], [1.0, 1.0]])
        got = field(surface(vals), (0, 0))
        assert got[1, 1] == pytest.approx(60 * math.sqrt(2), rel=1e-15)

    def test_nodata_blocks_all_routes(self):
        vals = np.array([[1.0, -9999.0], [-9999.0, 1.0]])
        got = field(surface(vals), (0, 0))
        assert np.isinf(got[1, 1])
        assert got[0, 0] == 0.0

    def test_cheap_land_still_seals(self):
        # Reachability is water connectivity: land costing barely more than
        # water blocks as well as land costing 10000 times as much.
        vals = np.array([[1.0, 1.5, 1.0]])
        cost = CostSurface(RasterGrid(GridGeometry(3, 1, 0.0, 0.0, CS), vals, -9999.0),
                           1.0, 1.5)
        assert np.isinf(field(cost, (0, 0))[0, 2])

    def test_source_validation(self):
        cost = water(2, 2)
        with pytest.raises(ValueError):
            nearest_sources(cost, [(2, 0)])
        with pytest.raises(ValueError):
            nearest_sources(cost, [(0, -1)])
        with pytest.raises(ValueError, match="not water"):
            nearest_sources(surface(np.array([[1.0, -9999.0]])), [(0, 1)])
        with pytest.raises(ValueError, match="not water"):
            nearest_sources(surface(np.array([[1.0, 10000.0]])), [(0, 1)])
        for k in (2.5, True):
            with pytest.raises(ValueError, match="positive integer"):
                nearest_sources(cost, [(0, 0)], k=k)
        for limit in (float("nan"), -1.0):
            with pytest.raises(ValueError, match="max_distance"):
                nearest_sources(cost, [(0, 0)], max_distance=limit)
        with pytest.raises(ValueError, match="integers"):
            nearest_sources(cost, [(0.5, 0)])
        # the limit is inclusive, so 0 keeps each source's own cell
        dist, _ = nearest_sources(cost, [(0, 0)], max_distance=0)
        assert np.array_equal(dist, [[0.0, np.inf, np.inf, np.inf]])

    def test_source_distance_zero_and_reachable(self):
        cost = water(3, 3)
        dist, src = nearest_sources(cost, [(1, 2)])
        assert dist[0, 5] == 0.0
        assert (src == 0).all()

    def test_random_grids_match_oracle_exactly(self):
        rng = np.random.default_rng(42)
        for _ in range(25):
            nrows = int(rng.integers(1, 7))
            ncols = int(rng.integers(1, 7))
            vals = np.where(rng.random((nrows, ncols)) < 0.3, 10000.0, 1.0)
            if rng.random() < 0.5:
                vals[rng.random((nrows, ncols)) < 0.1] = -9999.0
            if not (vals == 1.0).any():
                continue
            cost = surface(vals)
            sources = [tuple(rc) for rc in np.argwhere(cost.is_water)]
            for src, got in zip(sources, fields(cost, sources)):
                assert np.array_equal(got, relax_field(cost, src))

    def test_symmetry(self):
        rng = np.random.default_rng(7)
        vals = np.where(rng.random((6, 6)) < 0.25, 10000.0, 1.0)
        vals[0, 0] = vals[5, 5] = 1.0  # sources must be water
        cost = surface(vals)
        ab = field(cost, (0, 0))[5, 5]
        ba = field(cost, (5, 5))[0, 0]
        assert np.isfinite(ab)
        assert ab == pytest.approx(ba, rel=1e-12)

    def test_hardening_a_cell_never_shortens_paths(self):
        rng = np.random.default_rng(3)
        vals = np.where(rng.random((7, 7)) < 0.2, 10000.0, 1.0)
        vals[0, 0] = 1.0
        before = field(surface(vals), (0, 0))
        harder = vals.copy()
        water_cells = np.argwhere(harder == 1.0)
        flip = water_cells[rng.choice(len(water_cells), size=5, replace=False)]
        for r, c in flip:
            if (r, c) != (0, 0):
                harder[r, c] = 10000.0
        after = field(surface(harder), (0, 0))
        assert np.all(after >= before)

    def test_duplicates_share_results(self):
        got = fields(water(3, 3), [(0, 0), (2, 2), (0, 0)])
        assert len(got) == 3
        assert got[0, 0, 0] == 0.0
        assert np.array_equal(got[0], got[2])

    def test_empty_input(self):
        dist, src = nearest_sources(water(2, 2), [])
        assert dist.shape == (0, 4)
        assert src.shape == (0, 1)

    def test_validates_every_cell(self):
        with pytest.raises(ValueError):
            nearest_sources(water(2, 2), [(0, 0), (5, 5)])


class TestMoveGraph:
    def test_edge_count_open_water(self):
        # n x m open water: rook edges 2nm - n - m, diagonal pairs
        # 2(n-1)(m-1); graph stores each direction separately.
        g = move_graph(water(4, 5))
        rook = 2 * 4 * 5 - 4 - 5
        diag = 2 * 3 * 4
        assert g.nnz == 2 * (rook + diag)

    def test_single_cell_has_no_edges(self):
        g = move_graph(water(1, 1))
        assert g.nnz == 0

    def test_weights_match_hand_built_edges(self):
        rng = np.random.default_rng(11)
        vals = np.where(rng.random((5, 4)) < 0.3, 10000.0, 1.0)
        vals[rng.random((5, 4)) < 0.1] = -9999.0
        cost = surface(vals)
        g = move_graph(cost).tocoo()
        got = {(int(r), int(c)): float(w) for r, c, w in zip(g.row, g.col, g.data)}
        # the oracle numbers cells over the whole grid; the graph numbers water cells
        node = {int(cell): i for i, cell in enumerate(np.flatnonzero(cost.is_water.ravel()))}
        expect = {}
        for u, v, w in oracles.grid_edges(land_masked(cost), -9999.0, 1.0, CS):
            expect[(node[u], node[v])] = w
        assert g.shape == (len(node), len(node))
        assert got == expect

    def test_nodes_are_water_cells_and_land_pinch_blocks_diagonal(self):
        land, nodata, d = 10000.0, -9999.0, CS * math.sqrt(2.0)
        # water nodes in row-major order: 0 (0, 0), 1 (0, 2), 2 (1, 1),
        # 3 (1, 2), 4 (2, 1), 5 (2, 2); (0, 0)-(1, 1) crosses the land pinch
        cost = surface(np.array([[1.0, land, 1.0],
                                 [land, 1.0, 1.0],
                                 [nodata, 1.0, 1.0]]))
        expect = np.zeros((6, 6))
        for u, v, w in [(1, 3, CS), (1, 2, d), (2, 3, CS), (2, 4, CS), (2, 5, d),
                        (3, 5, CS), (3, 4, d), (4, 5, CS)]:
            expect[u, v] = expect[v, u] = w
        g = move_graph(cost)
        assert g.shape == (6, 6)
        assert np.array_equal(g.toarray(), expect)


    @staticmethod
    def assert_matches_coo(cost):
        got, want = move_graph(cost), oracles.move_graph_coo(cost)
        assert got.shape == want.shape
        for name in ("data", "indices", "indptr"):
            a, b = getattr(got, name), getattr(want, name)
            assert a.dtype == b.dtype, name
            assert np.array_equal(a, b), name

    @given(data=st.data())
    def test_csr_arrays_match_coo_build(self, data):
        nrows = data.draw(st.integers(1, 9), label="nrows")
        ncols = data.draw(st.integers(1, 9), label="ncols")
        # water, land and nodata cells, and all-land grids among them
        kinds = data.draw(st.lists(st.sampled_from([1.0, 10000.0, -9999.0]),
                                   min_size=nrows * ncols, max_size=nrows * ncols),
                          label="cells")
        cellsize = data.draw(st.sampled_from([1.0, CS, 0.3]), label="cellsize")
        self.assert_matches_coo(surface(np.reshape(kinds, (nrows, ncols)), cellsize=cellsize))

    @pytest.mark.parametrize("shape", [(1, 1), (1, 7), (7, 1), (4, 4)])
    @pytest.mark.parametrize("fill", [1.0, 10000.0])
    def test_thin_and_uniform_grids_match_coo_build(self, shape, fill):
        self.assert_matches_coo(surface(np.full(shape, fill)))

    @pytest.mark.parametrize("flank", [None, 0, 1])
    @pytest.mark.parametrize("pair, flanks", [
        ([(0, 0), (1, 1)], [(0, 1), (1, 0)]), ([(0, 1), (1, 0)], [(0, 0), (1, 1)])])
    def test_diagonal_pairs_match_coo_build(self, pair, flanks, flank):
        # two water cells touching at a corner, with one water flank or none
        vals = np.full((2, 2), 10000.0)
        for cell in pair:
            vals[cell] = 1.0
        if flank is not None:
            vals[flanks[flank]] = 1.0
        cost = surface(vals)
        self.assert_matches_coo(cost)
        # a diagonal move joins the pair only across a water flank
        node = np.cumsum(cost.is_water.ravel()) - 1
        i, j = (node[r * 2 + c] for r, c in pair)
        assert move_graph(cost)[i, j] == (0.0 if flank is None else CS * math.sqrt(2.0))

    def test_build_peaks_near_its_output(self):
        # the (N, 8) neighbour block and the masks stay below 1.5 times the
        # graph; a COO build held about 4.6 times it
        rng = np.random.default_rng(5)
        cost = surface(np.where(rng.random((200, 200)) < 0.85, 1.0, 10000.0))
        tracemalloc.start()
        try:
            g = move_graph(cost)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        out = g.data.nbytes + g.indices.nbytes + g.indptr.nbytes
        assert peak <= 2.5 * out

def one_point(x, y):
    return PointSet(np.array([x]), np.array([y]), np.zeros(1))


def snap_cells(cost, x, y, radius):
    """``_snap``'s cells for points (x, y) within ``radius``, None where one does not snap."""
    rows, cols, _ = pathdist._snap(cost, np.asarray(x, dtype=float),
                                   np.asarray(y, dtype=float), radius)
    return [None if r < 0 else (r, c) for r, c in zip(rows.tolist(), cols.tolist())]


class TestSnapping:
    def test_water_point_stays_in_its_cell(self):
        assert snap_points(water(3, 3), one_point(70.0, 70.0)) == [(1, 1)]

    def test_land_point_moves_to_nearest_water_center(self):
        vals = np.full((3, 3), 10000.0)
        vals[0, 2] = 1.0
        cost = surface(vals)
        assert snap_points(cost, one_point(150.0, 90.0)) == [(0, 2)]

    def test_tie_goes_to_first_in_row_major_order(self):
        vals = np.full((3, 3), 10000.0)
        vals[1, 0] = vals[1, 2] = 1.0
        cost = surface(vals)
        # Point at the exact center: both water cells are 120 m away.
        assert snap_points(cost, one_point(90.0, 90.0)) == [(1, 0)]

    def test_respects_radius(self):
        vals = np.full((1, 5), 10000.0)
        vals[0, 4] = 1.0
        cost = surface(vals)
        assert snap_cells(cost, [30.0], [30.0], 2) == [None]
        assert snap_cells(cost, [30.0], [30.0], 4) == [(0, 4)]
        with pytest.raises(SnapError) as err:
            snap_points(cost, one_point(30.0, 30.0))
        assert err.value.failures == [(0, "no water cell within 2 cells")]

    def test_outside_extent_never_snaps(self):
        for x in (-10.0, 130.0):
            with pytest.raises(SnapError) as err:
                snap_points(water(2, 2), one_point(x, 30.0))
            assert err.value.failures == [(0, "outside the grid extent")]

    def test_snap_points_collects_all_failures(self):
        vals = np.full((5, 5), 10000.0)
        vals[0, 0] = 1.0
        cost = surface(vals)
        pts = PointSet(
            x=np.array([-50.0, 290.0, 10.0]),
            y=np.array([30.0, 10.0, 290.0]),
            values=np.array([1.0, 2.0, 3.0]),
        )
        with pytest.raises(SnapError) as err:
            snap_points(cost, pts)
        failures = err.value.failures
        assert [i for i, _ in failures] == [0, 1]
        assert "outside the grid extent" in failures[0][1]
        assert "no water cell within 2 cells" in failures[1][1]
        assert "point 0" in str(err.value) and "point 1" in str(err.value)

    def test_snap_points_success_order(self):
        cost = water(2, 2)
        pts = PointSet(
            x=np.array([90.0, 30.0]),
            y=np.array([30.0, 90.0]),
            values=np.array([1.0, 2.0]),
        )
        assert snap_points(cost, pts) == [(1, 1), (0, 0)]

    def test_snap_points_matches_window_scan(self):
        rng = np.random.default_rng(11)
        for case in range(150):
            nrows, ncols = rng.integers(1, 9, size=2)
            cs = float(rng.choice([1.0, 0.3, 7.0, 60.0]))
            xll, yll = rng.choice([0.0, -1000.5, 123.25], size=2)
            vals = np.where(rng.random((nrows, ncols)) < rng.uniform(0.1, 0.7), 1.0, 10000.0)
            vals[rng.random((nrows, ncols)) < 0.1] = -9999.0
            geom = GridGeometry(ncols=ncols, nrows=nrows, xll=xll, yll=yll, cellsize=cs)
            cost = CostSurface(RasterGrid(geom, vals, -9999.0))
            # uniform, on cell edges and corners (the extent's right and top
            # lines included), on centers and half-cell offsets (equidistant
            # ties), and outside the extent
            n = 40
            lines_x = xll + rng.integers(0, ncols + 1, n) * cs
            lines_y = yll + rng.integers(0, nrows + 1, n) * cs
            half_x = xll + rng.integers(0, 2 * ncols, n) * (cs / 2)
            half_y = yll + rng.integers(0, 2 * nrows, n) * (cs / 2)
            x = np.concatenate([xll + rng.uniform(-0.2, 1.2, n) * geom.width,
                                lines_x, lines_x, half_x, half_x])
            y = np.concatenate([yll + rng.uniform(-0.2, 1.2, n) * geom.height,
                                yll + rng.uniform(0, 1, n) * geom.height, lines_y,
                                half_y, yll + rng.uniform(0, 1, n) * geom.height])

            def scan(radius):
                return [oracles.snap_window(cost.is_water, xll, yll, cs, xi, yi, radius)
                        for xi, yi in zip(x.tolist(), y.tolist())]

            radius = case % 5
            assert snap_cells(cost, x, y, radius) == scan(radius)
            expected = scan(DEFAULT_SNAP_RADIUS)
            pts = PointSet(x, y, np.zeros(len(x)))
            if all(cell is not None for cell in expected):
                assert snap_points(cost, pts) == expected
                continue
            with pytest.raises(SnapError) as err:
                snap_points(cost, pts)
            outside = geom.cells_of(x, y)[0] < 0
            assert err.value.failures == [
                (i, "outside the grid extent" if outside[i]
                 else f"no water cell within {DEFAULT_SNAP_RADIUS} cells")
                for i, cell in enumerate(expected) if cell is None]

    def test_water_mask_is_read_once_per_call(self, monkeypatch):
        calls = []
        is_water = CostSurface.is_water

        def counted(cost):
            calls.append(1)
            return is_water.fget(cost)

        monkeypatch.setattr(CostSurface, "is_water", property(counted))
        # every land cell lies within the snapping radius of water
        vals = np.ones((20, 20))
        vals[8:12, 8:12] = 10000.0
        cost = surface(vals)
        counts = []
        for n in (1, 10, 200):
            rng = np.random.default_rng(n)
            pts = PointSet(rng.uniform(0, 1200, n), rng.uniform(0, 1200, n), np.zeros(n))
            calls.clear()
            snap_points(cost, pts)
            counts.append(len(calls))
        assert counts == [1, 1, 1]


def dense_reference(cost, pts, config):
    """IPDW table and raster from oracle distance fields.

    Each source's in-water distances come from ``oracles.relax_distances``
    on the grid with land set to nodata, and ``oracles.table`` selects the
    table from them. The raster is the shared estimator over that table,
    whose arithmetic test_interpolate.py checks against
    ``oracles.shepard_direct``.
    Returns ((distances, sources), raster values).
    """
    cells, values = snapped_sources(pts, cost=cost)
    water_flat = np.flatnonzero(cost.is_water.ravel())
    edges = oracles.grid_edges(land_masked(cost), cost.raster.nodata, cost.water_cost,
                               cost.geometry.cellsize)
    dist = np.array([relax_field(cost, cell, edges).ravel()[water_flat] for cell in cells])
    dist, src = oracles.table(dist, config)
    est, has = _estimate(dist, values[src], config.power)
    out = np.full(cost.geometry.n_cells, -9999.0)
    out[water_flat[has]] = est[has]
    return (dist, src), out.reshape(cost.geometry.nrows, cost.geometry.ncols)


def assert_matches_dense(cost, pts, config):
    (ref_d, ref_s), ref_raster = dense_reference(cost, pts, config)
    cells, _ = snapped_sources(pts, cost=cost)
    dist, src = nearest_sources(cost, cells, k=config.n_nearest,
                                max_distance=config.max_distance)
    assert np.array_equal(dist, ref_d)
    if config.n_nearest is not None and len(cells) > config.n_nearest:
        found = np.isfinite(dist)
        assert np.array_equal(src[found], ref_s[found])
        assert (src[~found] == -1).all()
    else:
        assert np.array_equal(src, ref_s)
    assert np.array_equal(interpolate_ipdw(pts, cost, config).values, ref_raster)


def points_on_cells(cost, cells, rng):
    """One point per (row, col), at a random spot inside the cell."""
    geom = cost.geometry
    cx, cy = geom.cell_centers()
    rows, cols = np.array(cells).T
    xy = np.column_stack([cx[rows, cols], cy[rows, cols]])
    xy += rng.uniform(-0.4, 0.4, size=xy.shape) * geom.cellsize
    return PointSet(xy[:, 0], xy[:, 1], rng.uniform(-10.0, 10.0, len(cells)))


def check_random_grid(data):
    """A random grid and survey from ``data``, checked against ``dense_reference``."""
    nrows, ncols = data.draw(st.integers(1, 12)), data.draw(st.integers(2, 12))
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    water_cost = data.draw(st.sampled_from([1.0, 0.5, 3.0]))
    vals = np.where(rng.random((nrows, ncols)) < data.draw(st.floats(0.0, 0.5)),
                    10000.0, water_cost)
    vals[0, 0] = water_cost
    cost = CostSurface(RasterGrid(GridGeometry(ncols, nrows, 0.0, 0.0, CS), vals, -9999.0),
                       water_cost, 10000.0)
    wet = np.argwhere(cost.is_water)
    picks = rng.integers(0, len(wet), size=data.draw(st.integers(1, 40)))
    pts = points_on_cells(cost, [tuple(wet[i]) for i in picks], rng)
    config = data.draw(st.sampled_from([
        InterpConfig.nearest(1), InterpConfig.nearest(2), InterpConfig.nearest(4),
        InterpConfig.within(water_cost * CS * 3.5), InterpConfig.all_points()]))
    assert_matches_dense(cost, pts, config)


def four_basins():
    """Walls sealing four basins holding 0, 2, 12 and 30 points: (cost, points).

    The basins have 56 (top right), 49, 56 and 64 water cells.
    """
    vals = np.ones((16, 16))
    vals[7, :] = 10000.0
    vals[:, 7] = 10000.0
    cost = surface(vals)
    rng = np.random.default_rng(2)
    cells = [(int(r), int(c)) for r, c in
             [*rng.integers(0, 7, (2, 2)),
              *(rng.integers(0, 7, (12, 2)) + [8, 0]),
              *(rng.integers(0, 7, (30, 2)) + [8, 8])]]
    return cost, points_on_cells(cost, cells, rng)


def ponds():
    """40 one-cell ponds above an open basin of 96 cells: (cost, points).

    Land surrounds every pond, so even diagonals cannot leave it. 34
    ponds hold one point each and the basin holds 20, in shuffled order.
    """
    vals = np.full((16, 16), 10000.0)
    vals[0:9:2, 0::2] = 1.0
    vals[10:, :] = 1.0
    cost = surface(vals)
    rng = np.random.default_rng(5)
    pond_cells = [(r, c) for r in range(0, 9, 2) for c in range(0, 16, 2)]
    cells = [pond_cells[i] for i in rng.choice(len(pond_cells), size=34, replace=False)]
    cells += [(10 + i // 16, i % 16) for i in rng.choice(96, size=20, replace=False)]
    cells = [cells[i] for i in rng.permutation(len(cells))]
    return cost, points_on_cells(cost, cells, rng)


def corner_scene(water_cost):
    """A 30x30 water grid and 20 points in its 5x5 corner: (cost, points)."""
    cost = CostSurface(RasterGrid(GridGeometry(30, 30, 0.0, 0.0, CS),
                                  np.full((30, 30), water_cost), -9999.0),
                       water_cost, 10000.0)
    rng = np.random.default_rng(3)
    cells = [divmod(int(i), 5) for i in rng.choice(25, size=20, replace=False)]
    return cost, points_on_cells(cost, cells, rng)


def two_bounded_basins():
    """A wall between two basins, neither searched whole at k=2: (cost, points).

    The left basin (30x28 cells) holds 20 points on a lattice and the right
    one (30x32 cells) 20 points in its bottom-right 5x5 corner.
    """
    vals = np.ones((30, 61))
    vals[:, 28] = 10000.0
    cost = surface(vals)
    rng = np.random.default_rng(7)
    lattice = [(r, c) for r in range(3, 30, 6) for c in range(3, 28, 7)]
    corner = [(25 + i // 5, 56 + i % 5) for i in rng.choice(25, size=20, replace=False)]
    return cost, points_on_cells(cost, lattice + corner, rng)


def pool_and_strip():
    """A pool with a point on every cell, and a long strip with four: (cost, points).

    A land row parts the 6x8 pool (48 points, rows 0-5) from the 1x120
    strip in row 7, whose points sit 4 cells apart at its left end. At k=1
    the first radius spans under two cells, so the first chunk of pool
    points (rows 0-2, cut at two bands) runs on rows 0-3 only, and the
    strip's cells past column 13 stay pending, most of them with pending
    cells alone beside them. At k=3 no strip cell has 3 points within the
    first radius.
    """
    vals = np.full((8, 120), 10000.0)
    vals[:6, :8] = 1.0
    vals[7, :] = 1.0
    cost = surface(vals)
    cells = [(r, c) for r in range(6) for c in range(8)] + [(7, c) for c in range(0, 16, 4)]
    return cost, points_on_cells(cost, cells, np.random.default_rng(4))


def spy_dijkstra(monkeypatch):
    """Record every ``csgraph.dijkstra`` call as (graph, source indices, limit).

    The limit is None for a call that passes none.
    """
    calls = []
    real = pathdist.csgraph.dijkstra

    def spy(graph, *args, **kwargs):
        calls.append((graph, np.atleast_1d(kwargs["indices"]), kwargs.get("limit")))
        return real(graph, *args, **kwargs)

    monkeypatch.setattr(pathdist.csgraph, "dijkstra", spy)
    return calls


def chunk_calls(cost, cells, basins, calls):
    """The basin, window and limit of each call that passes a limit.

    ``basins`` maps a name to a basin's cell mask. A call must run on a
    window ``g[lo:lo + n, lo:lo + n]`` of one basin's move graph g, its
    cells in row-major order, whose nodes at the call's source indices are
    source cells. Returns (name, lo, n, limit) per call.
    """
    water_flat = np.flatnonzero(cost.is_water.ravel())
    graph = move_graph(cost)
    source_flat = [r * cost.geometry.ncols + c for r, c in cells]
    parts = []
    for name, mask in basins.items():
        flat = np.flatnonzero((mask & cost.is_water).ravel())
        nodes = np.searchsorted(water_flat, flat)
        parts.append((name, np.isin(flat, source_flat), graph[nodes][:, nodes].toarray()))
    found = []
    for g, indices, limit in calls:
        if limit is None:
            continue
        g, n = g.toarray(), g.shape[0]
        where = set()
        for name, is_source, basin in parts:
            los = np.arange(len(basin) - n + 1)
            ok = is_source[los[:, None] + indices].all(axis=1)
            where |= {(name, int(lo)) for lo in los[ok]
                      if np.array_equal(basin[lo:lo + n, lo:lo + n], g)}
        assert len({name for name, _ in where}) == 1, where
        found.append((*min(where), n, limit))
    return found


class TestNearestSources:
    @given(data=st.data())
    def test_random_grids_match_dense_reference(self, data):
        check_random_grid(data)

    @pytest.mark.parametrize("tile", [3, 7])
    @given(data=st.data())
    def test_small_merge_tiles_match_dense_reference(self, tile, data):
        # Tiles far narrower than the grids split every merge, and most
        # merges end on a partial tile.
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(pathdist, "_TILE", tile)
            check_random_grid(data)

    @pytest.mark.parametrize("tile", [3, 7])
    def test_small_merge_tiles_on_retried_columns(self, tile, monkeypatch):
        # The corner scene clears and refills far columns pass after pass.
        monkeypatch.setattr(pathdist, "_TILE", tile)
        for water_cost in (1.0, 0.5):
            assert_matches_dense(*corner_scene(water_cost), InterpConfig.nearest(2))

    def test_equal_path_distances_go_to_the_earlier_source(self):
        # A lattice of sources two cells apart on open water puts many cells
        # at equal distance from several sources; the nearest one must be the
        # earliest in input order, in both input orders.
        cost = water(9, 9)
        cells = [(r, c) for r in range(0, 9, 2) for c in range(0, 9, 2)]
        pts = points_on_cells(cost, cells, np.random.default_rng(0))
        backwards = PointSet(pts.x[::-1], pts.y[::-1], pts.values[::-1])
        (ref_d, _), _ = dense_reference(cost, pts, InterpConfig.nearest(2))
        assert (ref_d[0] == ref_d[1]).sum() > 20
        config = InterpConfig.nearest(1)
        assert_matches_dense(cost, pts, config)
        assert_matches_dense(cost, backwards, config)
        assert not np.array_equal(interpolate_ipdw(pts, cost, config).values,
                                  interpolate_ipdw(backwards, cost, config).values)

    def test_within_keeps_a_cell_exactly_at_max_distance(self):
        cost = water(1, 12)
        pts = points_on_cells(cost, [(0, 0), (0, 11)], np.random.default_rng(1))
        config = InterpConfig.within(3 * CS)
        dist, src = nearest_sources(cost, [(0, 0), (0, 11)], max_distance=3 * CS)
        assert dist[0, 3] == 3 * CS and src[0, 0] == 0
        assert np.isinf(dist[:, 4]).all()
        assert_matches_dense(cost, pts, config)
        out = interpolate_ipdw(pts, cost, config)
        assert out.values[0, 3] == pts.values[0]
        assert out.is_nodata[0, 4:8].all()

    @pytest.mark.parametrize("config", [
        InterpConfig.nearest(1), InterpConfig.nearest(3), InterpConfig.nearest(10),
        InterpConfig.within(400.0), InterpConfig.all_points()])
    def test_basins_with_fewer_than_k_sources(self, config):
        cost, pts = four_basins()
        assert_matches_dense(cost, pts, config)
        out = interpolate_ipdw(pts, cost, config)
        assert out.is_nodata[:7, 8:].all()

    @pytest.mark.parametrize("chunk", [2, 3])
    @pytest.mark.parametrize("scene", [four_basins, ponds])
    @pytest.mark.parametrize("config", [
        InterpConfig.nearest(1), InterpConfig.nearest(3), InterpConfig.nearest(10)])
    def test_small_chunks_match_dense_reference(self, scene, chunk, config, monkeypatch):
        # Chunks smaller than most components' source counts split each
        # component's search, both whole and bounded by a radius.
        monkeypatch.setattr(pathdist, "_CHUNK", chunk)
        assert_matches_dense(*scene(), config)

    @pytest.mark.parametrize("scene", [four_basins, ponds])
    @pytest.mark.parametrize("k", [1, 3, None])
    def test_tables_are_c_contiguous(self, scene, k):
        cost, pts = scene()
        dist, src = nearest_sources(cost, snapped_sources(pts, cost=cost)[0], k=k)
        assert dist.flags.c_contiguous and src.flags.c_contiguous

    def test_each_search_runs_on_one_basin(self, monkeypatch):
        cost, pts = four_basins()
        cells, _ = snapped_sources(pts, cost=cost)
        r, c = np.indices((16, 16))
        basins = {"top left": (r < 7) & (c < 7), "top right": (r < 7) & (c > 7),
                  "bottom left": (r > 7) & (c < 7), "bottom right": (r > 7) & (c > 7)}
        calls = spy_dijkstra(monkeypatch)
        for k in (1, 3, 10):
            nearest_sources(cost, cells, k=k)
        # the source-free top-right basin is never searched
        searched = {name for name, _, _, _ in chunk_calls(cost, cells, basins, calls)}
        assert searched == {"top left", "bottom left", "bottom right"}

    @pytest.mark.parametrize("water_cost", [1.0, 0.5])
    def test_sources_in_one_corner_widen_the_radius(self, water_cost, monkeypatch):
        # Far cells cannot find k sources within the first radius, so the
        # second pass runs the sources again, bounded by what the far cells'
        # certified neighbours have found. With water_cost 0.5 the
        # straight-line pruning bound and the row window must scale by it too.
        cost, pts = corner_scene(water_cost)
        config = InterpConfig.nearest(2)
        assert_matches_dense(cost, pts, config)
        calls = spy_dijkstra(monkeypatch)
        dist, _ = nearest_sources(cost, snapped_sources(pts, cost=cost)[0], k=2)
        # all 20 sources fit one chunk, so each pass is one bounded call: the
        # first radius falls short of the farthest cell's second-nearest
        # source, and the second pass reaches it
        limits = [limit for _, _, limit in calls if limit is not None]
        assert len(limits) == 2
        assert limits[0] < dist[1].max() <= limits[1] < np.inf

    def test_certified_basin_keeps_its_columns_while_another_widens(self, monkeypatch):
        # Every lattice-basin cell has its 2 nearest sources within the first
        # radius, so it is certified in the first pass, while the corner
        # basin needs a second. Across the one-cell wall the lattice sources'
        # straight-line bound reaches the corner basin's pending cells, but
        # those are another component's, so the lattice basin is searched in
        # the first pass only and its columns stay. The lattice certifies at
        # a first radius of 2 mean-density radii, not at 1.7.
        monkeypatch.setattr(pathdist, "_RADIUS", 2.0)
        cost, pts = two_bounded_basins()
        assert_matches_dense(cost, pts, InterpConfig.nearest(2))
        cells = snapped_sources(pts, cost=cost)[0]
        calls = spy_dijkstra(monkeypatch)
        dist, _ = nearest_sources(cost, cells, k=2)
        col = np.indices((30, 61))[1]
        found = chunk_calls(cost, cells, {"lattice": col < 28, "corner": col > 28}, calls)
        names = [name for name, _, _, _ in found]
        limits = {}
        for name, _, _, limit in found:
            limits.setdefault(name, []).append(limit)
        first, second = limits["corner"]
        # the lattice's chunks end at two bands, so it takes more than one
        # call, but every one comes before the corner basin's first call
        # and carries the first limit: the second pass leaves it alone
        n = names.index("corner")
        assert n > 1 and names == ["lattice"] * n + ["corner"] * 2
        assert limits["lattice"] == [first] * n
        left = np.nonzero(cost.is_water)[1] < 28
        assert dist[1, left].max() <= first < dist[1, ~left].max() <= second

    def test_second_pass_chunks_keep_their_sources_within_two_bands(self, monkeypatch):
        # A 200 x 6 strip with a source every third row but for two 24-row
        # gaps, one near each end. The sources alternate between the strip's
        # halves, so a chunk of them spans most of its rows; the gaps' cells
        # stay pending after the first pass. In both passes each chunk ends
        # before a source whose rows would stretch it over two bands.
        cost = water(200, 6)
        rows = [r for r in range(0, 200, 3) if not (20 <= r < 44 or 156 <= r < 180)]
        top, bottom = rows[:len(rows) // 2], rows[len(rows) // 2:][::-1]
        order = [r for pair in zip(top, bottom) for r in pair]
        pts = points_on_cells(cost, [(r, r % 6) for r in order], np.random.default_rng(8))
        config = InterpConfig.nearest(2)
        assert_matches_dense(cost, pts, config)
        cells = snapped_sources(pts, cost=cost)[0]

        def windows():
            calls = spy_dijkstra(monkeypatch)
            nearest_sources(cost, cells, k=2)
            first = calls[0][2]
            # (window rows, band) of each bounded call in the first pass,
            # bounded by the first radius, and in the second
            bounded = [(g.shape[0] // 6, limit) for g, _, limit in calls if limit is not None]
            return [[(n, int(limit / CS * (1.0 + pathdist._BOUND_SLACK)))
                     for n, limit in bounded if (limit == first) == first_pass]
                    for first_pass in (True, False)]

        for calls in windows():
            assert calls and all(n <= 4 * band + 1 for n, band in calls)
        # without the cut, one chunk of alternating sources spans the strip
        monkeypatch.setattr(pathdist, "_within_two_bands", lambda rows, limits, unit: len(rows))
        assert all(max(n for n, _ in calls) > 150 for calls in windows())

    @pytest.mark.parametrize("tile", [3, 7])
    @pytest.mark.parametrize("chunk", [2, 3])
    @pytest.mark.parametrize("k", [1, 3, 10])
    def test_second_pass_matches_dense_reference(self, k, chunk, tile, monkeypatch):
        # At k=3 the strip is searched whole in the second pass, and at k=1
        # its far cells' bounds come through chains of pending cells.
        monkeypatch.setattr(pathdist, "_CHUNK", chunk)
        monkeypatch.setattr(pathdist, "_TILE", tile)
        assert_matches_dense(*pool_and_strip(), InterpConfig.nearest(k))

    def test_pool_and_strip_passes(self, monkeypatch):
        cost, pts = pool_and_strip()
        cells = snapped_sources(pts, cost=cost)[0]
        r = np.indices((8, 120))[0]
        basins = {"pool": r < 6, "strip": r == 7}
        calls = spy_dijkstra(monkeypatch)
        dist, _ = nearest_sources(cost, cells, k=1)
        found = chunk_calls(cost, cells, basins, calls)
        pool = [n for name, _, n, _ in found if name == "pool"]
        strip = [limit for name, _, _, limit in found if name == "strip"]
        # each window strictly smaller than its component: a radius under
        # two cells makes a band of one row, so a chunk holds the points of
        # three rows (0-2, then 3-5) and runs on those and one row beside
        # them, 32 of the pool's 48 cells; the pool certifies in the first pass
        assert pool == [32, 32]
        # the strip's cells from column 14 on are pending after the first
        # pass, so cells 15-17 have no certified neighbour, and the second
        # pass still reaches the far end
        d = dist[0, -120:]
        assert d[13] <= strip[0] < d[14] and d.max() <= strip[1] < np.inf
        assert len(strip) == 2
        # at k=3 no strip cell certifies: a bounded call, then a whole one
        calls.clear()
        nearest_sources(cost, cells, k=3)
        strip = [limit for name, _, _, limit in chunk_calls(cost, cells, basins, calls)
                 if name == "strip"]
        assert np.isfinite(strip[0]) and strip[1:] == [np.inf]
