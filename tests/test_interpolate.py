import dataclasses
import math
import warnings

import numpy as np
import pytest
import scipy.spatial
from hypothesis import given
from hypothesis import strategies as st
from scipy.spatial import cKDTree

import oracles
from pathidw import (
    DEFAULT_WATER_COST,
    CostSurface,
    GridGeometry,
    InterpConfig,
    PointSet,
    RasterGrid,
    SnapError,
    interpolate_idw,
    interpolate_ipdw,
    nearest_sources,
    snap_points,
    snapped_sources,
)
from pathidw import interpolate, pathdist
from pathidw.interpolate import _estimate, _straight_line_sources


def surface(values, cellsize=60.0):
    values = np.asarray(values, dtype=float)
    nrows, ncols = values.shape
    geom = GridGeometry(ncols=ncols, nrows=nrows, xll=0.0, yll=0.0, cellsize=cellsize)
    return CostSurface(RasterGrid(geom, values, -9999.0))


def all_water(geometry):
    """A cost surface on which every cell of ``geometry`` is water."""
    return CostSurface(RasterGrid(geometry, np.full((geometry.nrows, geometry.ncols),
                                                    DEFAULT_WATER_COST)))


def points(xyv):
    arr = np.asarray(xyv, dtype=float)
    return PointSet(x=arr[:, 0], y=arr[:, 1], values=arr[:, 2])


def one_column(pairs, config):
    """The estimate from a one-column table of (distance, value) ``pairs``, or None."""
    dist, values = np.array(pairs, dtype=float).reshape(-1, 2).T
    est, has = oracles.estimate_dense(dist[:, None], values, config)
    return float(est[0]) if has[0] else None


def centers_of(geometry, cells):
    """The (x, y) centers of ``cells``, one row per (row, col) pair."""
    cx, cy = geometry.cell_centers()
    rows, cols = np.array(cells).T
    return np.column_stack([cx[rows, cols], cy[rows, cols]])


def finite_floats(lo, hi):
    return st.floats(lo, hi, allow_nan=False, allow_infinity=False)


class TestInterpConfig:
    def test_defaults(self):
        config = InterpConfig()
        assert config.power == 2.0
        assert config.n_nearest == 10
        assert config.max_distance is None

    def test_single_mode_enforced(self):
        with pytest.raises(ValueError):
            InterpConfig(n_nearest=5, max_distance=100.0)

    def test_a_mode_is_required(self):
        # every source is within(math.inf); there is no mode-less config
        with pytest.raises(ValueError, match="choose one neighborhood mode"):
            InterpConfig(n_nearest=None)

    def test_mode_constructors(self):
        assert InterpConfig.nearest(3) == InterpConfig(power=2.0, n_nearest=3, max_distance=None)
        assert InterpConfig.within(500.0) == InterpConfig(power=2.0, n_nearest=None,
                                                          max_distance=500.0)

    def test_validation(self):
        with pytest.raises(ValueError):
            InterpConfig(power=0.0)
        with pytest.raises(ValueError):
            InterpConfig(power=-1.0)
        with pytest.raises(ValueError):
            InterpConfig.nearest(0)
        with pytest.raises(ValueError):
            InterpConfig.within(0.0)
        with pytest.raises(ValueError, match="positive integer"):
            InterpConfig.nearest(2.5)
        with pytest.raises(ValueError, match="positive integer"):
            InterpConfig.nearest(True)

    def test_frozen(self):
        config = InterpConfig()
        with pytest.raises(dataclasses.FrozenInstanceError):
            config.power = 3.0

    def test_one_config_drives_both_interpolators(self):
        # Power and neighborhood settings live in the shared config, so the
        # two methods cannot silently diverge.
        config = InterpConfig.nearest(2, power=3.0)
        cost = surface(np.ones((3, 3)))
        pts = points([[30, 30, 1.0], [150, 150, 5.0], [150, 30, 3.0]])
        a = interpolate_ipdw(pts, cost, config)
        b = interpolate_idw(pts, cost.geometry, config, mask=cost)
        assert a.geometry == b.geometry
        assert np.isfinite(a.values).all() and np.isfinite(b.values).all()


class TestIdwEstimate:
    """The IDW estimate of one target from its (distance, value) neighbors."""

    def test_two_point_example(self):
        assert one_column([(1.0, 0.0), (2.0, 3.0)], InterpConfig.within(math.inf, power=2.0)) == 0.6

    def test_equal_distances_give_plain_mean(self):
        assert one_column([(5.0, 1.0), (5.0, 3.0)], InterpConfig.within(math.inf)) == 2.0

    def test_zero_distance_returns_that_value(self):
        assert one_column([(0.0, 7.0), (3.0, 1.0)], InterpConfig.within(math.inf)) == 7.0

    def test_coincident_zero_neighbors_average(self):
        pairs = [(0.0, 4.0), (0.0, 8.0), (2.0, 0.0)]
        assert one_column(pairs, InterpConfig.within(math.inf)) == 6.0

    def test_coincident_mean_is_clamped_to_the_coincident_values(self):
        # 0.1 + 0.1 + 0.1 = 0.30000000000000004, and a third of it is one ulp
        # above 0.1, inside the range of all four neighbors but not of the
        # three coincident ones
        pairs = [(0.0, 0.1)] * 3 + [(2.0, 5.0)]
        assert one_column(pairs, InterpConfig.within(math.inf)) == 0.1

    def test_coincident_signed_zero_is_returned_bit_for_bit(self):
        for mine, other in ((-0.0, 0.0), (0.0, -0.0)):
            got = one_column([(0.0, mine), (1.0, other)], InterpConfig.within(math.inf))
            assert math.copysign(1.0, got) == math.copysign(1.0, mine)

    def test_overflowing_distance_ratio_weighs_zero_without_warning(self):
        # 1 / 2.2250738585e-313 overflows: that neighbor is negligible
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = one_column([(1.0, 0.0), (2.2250738585e-313, 0.0)],
                             InterpConfig.within(math.inf, power=1.0))
        assert got == 0.0

    def test_convexity_slack_scales_with_the_values(self):
        # three equidistant neighbors of one value v: 3v / 3 can be one ulp
        # off v, which at 2.3e8 is 3e-8, over an absolute slack of 1e-9
        v = 231594562.2562936
        assert one_column([(1.0, v)] * 3, InterpConfig.within(math.inf)) == v
        values = np.random.default_rng(0).uniform(1e7, 1e9, 2000)
        est, has = _estimate(np.ones((3, len(values))), np.tile(values, (3, 1)), 2.0)
        assert has.all() and np.array_equal(est, values)

    def test_empty_neighborhood_returns_none(self):
        assert one_column([(10.0, 1.0)], InterpConfig.within(5.0)) is None

    def test_max_distance_is_inclusive(self):
        assert one_column([(5.0, 1.0), (6.0, 99.0)], InterpConfig.within(5.0)) == 1.0

    def test_nearest_tie_keeps_input_order(self):
        pairs = [(1.0, 10.0), (1.0, 20.0), (2.0, 30.0)]
        assert one_column(pairs, InterpConfig.nearest(1)) == 10.0

    def test_nearest_uses_n_smallest(self):
        got = one_column(
            [(4.0, 100.0), (1.0, 1.0), (2.0, 2.0)], InterpConfig.nearest(2, power=1.0)
        )
        direct = oracles.shepard_direct(
            [(4.0, 100.0), (1.0, 1.0), (2.0, 2.0)], 1.0, n_nearest=2
        )
        assert got == pytest.approx(direct, rel=1e-12)

    @given(
        pairs=st.lists(
            st.tuples(finite_floats(1e-3, 1e4), finite_floats(-1e6, 1e6)),
            min_size=1,
            max_size=12,
        ),
        power=finite_floats(0.25, 6.0),
    )
    def test_matches_direct_evaluation(self, pairs, power):
        got = one_column(pairs, InterpConfig.within(math.inf, power=power))
        direct = oracles.shepard_direct(pairs, power)
        assert got == pytest.approx(direct, rel=1e-12, abs=1e-9)

    @given(
        pairs=st.lists(
            st.tuples(finite_floats(0.0, 1e4), finite_floats(-1e6, 1e6)),
            min_size=1,
            max_size=12,
        ),
        power=finite_floats(0.25, 6.0),
    )
    def test_estimate_is_a_convex_combination(self, pairs, power):
        got = one_column(pairs, InterpConfig.within(math.inf, power=power))
        values = [v for _, v in pairs]
        assert min(values) <= got <= max(values)

    @given(
        pairs=st.lists(
            st.tuples(finite_floats(1e-3, 1e4), finite_floats(-1e3, 1e3)),
            min_size=1,
            max_size=10,
        ),
        scale=finite_floats(0.1, 50.0),
        shift=finite_floats(-1e3, 1e3),
    )
    def test_affine_equivariance_in_values(self, pairs, scale, shift):
        config = InterpConfig.within(math.inf)
        base = one_column(pairs, config)
        mapped = one_column([(d, scale * v + shift) for d, v in pairs], config)
        assert mapped == pytest.approx(scale * base + shift, rel=1e-9, abs=1e-6)


class TestSnappedSources:
    def test_coincident_points_average(self):
        cost = surface(np.ones((2, 2)))
        pts = points([[30, 30, 2.0], [40, 40, 4.0], [90, 90, 9.0]])
        cells, values = snapped_sources(pts, cost=cost)
        assert cells == [(1, 0), (0, 1)]
        assert np.array_equal(values, [3.0, 9.0])

    def test_means_equal_np_mean_per_cell(self):
        # groups of 1 to ~40 points, so that np.mean sums some of them one
        # by one and some pairwise, with -0.0 and mixed magnitudes
        rng = np.random.default_rng(8)
        cost = surface(np.ones((3, 4)))
        for n in (1, 7, 8, 9, 60, 400):
            xy = rng.integers(0, 240, size=(n, 2)) * [1.0, 0.75]
            values = rng.normal(size=n) * 10.0 ** rng.integers(-3, 6, size=n)
            values[rng.random(n) < 0.1] = -0.0
            pts = PointSet(xy[:, 0], xy[:, 1], values)
            grouped = {}
            for cell, value in zip(snap_points(cost, pts), values):
                grouped.setdefault(cell, []).append(float(value))
            cells, means = snapped_sources(pts, cost=cost)
            assert cells == list(grouped)
            assert means.tobytes() == np.array([np.mean(v) for v in grouped.values()]).tobytes()

    def test_empty_points_rejected(self):
        cost = surface(np.ones((2, 2)))
        empty = PointSet(x=np.empty(0), y=np.empty(0), values=np.empty(0))
        with pytest.raises(ValueError):
            snapped_sources(empty, cost=cost)

    def test_geometry_only_mode(self):
        # on an all-water mask IDW snaps every in-extent point to its own cell
        geom = GridGeometry(ncols=2, nrows=2, xll=0.0, yll=0.0, cellsize=60.0)
        pts = points([[30, 30, 1.0], [0, 60, 3.0], [119, 119, 5.0], [110, 100, 7.0], [60, 0, 4.0]])
        out = interpolate_idw(pts, geom, InterpConfig.nearest(1), mask=all_water(geom))
        assert np.array_equal(out.values, [[3.0, 6.0], [1.0, 4.0]])
        outside = points([[30, 30, 1.0], [120, 30, 2.0], [30, -1, 3.0]])
        with pytest.raises(SnapError) as err:
            interpolate_idw(outside, geom, InterpConfig.nearest(1), mask=all_water(geom))
        assert err.value.failures == [(1, "outside the grid extent"),
                                      (2, "outside the grid extent")]


class TestInterpolateIpdw:
    def test_single_point_fills_connected_water(self):
        cost = surface(np.ones((4, 4)))
        out = interpolate_ipdw(points([[30, 30, 5.0]]), cost, InterpConfig.within(math.inf))
        assert np.all(out.values == 5.0)

    def test_exact_at_measurement_cell(self):
        cost = surface(np.ones((4, 4)))
        out = interpolate_ipdw(
            points([[30, 30, 5.0], [210, 210, 9.0]]), cost, InterpConfig.within(math.inf)
        )
        assert out.values[3, 0] == 5.0
        assert out.values[0, 3] == 9.0

    def test_sealed_basins_stay_separate(self):
        vals = np.ones((3, 5))
        vals[:, 2] = 10000.0
        cost = surface(vals)
        pts = points([[30, 90, 0.0], [270, 90, 10.0]])
        out = interpolate_ipdw(pts, cost, InterpConfig.within(math.inf))
        assert np.all(out.values[:, :2] == 0.0)
        assert np.all(out.values[:, 3:] == 10.0)
        assert np.all(out.values[:, 2] == -9999.0)

    def test_land_and_nodata_cells_get_nodata(self):
        vals = np.ones((3, 3))
        vals[1, 1] = 10000.0
        vals[0, 2] = -9999.0
        cost = surface(vals)
        out = interpolate_ipdw(points([[30, 30, 1.0]]), cost, InterpConfig.within(math.inf))
        assert out.values[1, 1] == -9999.0
        assert out.values[0, 2] == -9999.0
        assert out.values[2, 0] == 1.0

    def test_unreached_basin_gets_nodata(self):
        vals = np.ones((3, 5))
        vals[:, 2] = 10000.0
        cost = surface(vals)
        out = interpolate_ipdw(points([[30, 90, 4.0]]), cost, InterpConfig.within(math.inf))
        assert np.all(out.values[:, :2] == 4.0)
        assert np.all(out.values[:, 3:] == -9999.0)

    def test_coincident_sources_equal_single_mean_source(self):
        cost = surface(np.ones((4, 4)))
        config = InterpConfig.within(math.inf)
        paired = interpolate_ipdw(
            points([[30, 30, 2.0], [35, 35, 4.0], [210, 90, 7.0]]), cost, config
        )
        merged = interpolate_ipdw(
            points([[30, 30, 3.0], [210, 90, 7.0]]), cost, config
        )
        assert np.array_equal(paired.values, merged.values)

    def test_nearest_one_labels_path_voronoi(self):
        vals = np.ones((5, 5))
        vals[1:, 2] = 10000.0
        cost = surface(vals)
        pts = points([[30, 90, 1.0], [270, 90, 2.0]])
        out = interpolate_ipdw(pts, cost, InterpConfig.nearest(1))
        # Every predicted water cell carries exactly one source value, the
        # one closer by path distance according to the oracle.
        geom = cost.geometry
        matrix = oracles.relax_distance_matrix(vals, -9999.0, 1.0, geom.cellsize)
        sources = [(1, 0), (1, 4)]
        flat = [r * 5 + c for r, c in sources]
        for r in range(5):
            for c in range(5):
                if not cost.is_water[r, c]:
                    continue
                target = r * 5 + c
                dists = [matrix[f, target] for f in flat]
                best = min(range(2), key=lambda i: (dists[i], i))
                assert out.values[r, c] == pts.values[best]

    def test_long_all_water_route_stays_reachable(self):
        # The strip is 300 cells long, three times land_cost cells: cells far
        # from every source are still connected through water.
        geom = GridGeometry(ncols=300, nrows=10, xll=0.0, yll=0.0, cellsize=60.0)
        cost = CostSurface(RasterGrid(geom, np.ones((10, 300)), -9999.0), land_cost=100.0)
        pts = points([[30, 30, 1.0], [90, 330, 2.0], [150, 570, 3.0]])
        out = interpolate_ipdw(pts, cost, InterpConfig())
        assert not out.is_nodata.any()

    def test_threads_do_not_change_output(self):
        vals = np.ones((6, 6))
        vals[2, 1:5] = 10000.0
        cost = surface(vals)
        pts = points([[30, 30, 1.0], [330, 330, 5.0], [30, 330, 3.0]])
        a = interpolate_ipdw(pts, cost, InterpConfig.within(math.inf), threads=1)
        b = interpolate_ipdw(pts, cost, InterpConfig.within(math.inf), threads=4)
        assert np.array_equal(a.values, b.values)


class TestInterpolateIdw:
    def test_single_point_fills_grid(self):
        geom = GridGeometry(ncols=3, nrows=3, xll=0.0, yll=0.0, cellsize=60.0)
        out = interpolate_idw(points([[30, 30, 5.0]]), geom, InterpConfig.within(math.inf),
                              mask=all_water(geom))
        assert np.all(out.values == 5.0)

    def test_straight_line_ignores_barrier(self):
        vals = np.ones((3, 5))
        vals[:, 2] = 10000.0
        cost = surface(vals)
        pts = points([[30, 90, 0.0], [270, 90, 10.0]])
        config = InterpConfig.within(math.inf)
        euclid = interpolate_idw(pts, cost.geometry, config, mask=cost)
        path = interpolate_ipdw(pts, cost, config)
        # Cell (1, 1) is 60 m from the near source and 180 m from the one
        # across the wall, so straight-line weighting pulls it to 1.0 while
        # path weighting keeps the wall sealed.
        assert euclid.values[1, 1] == pytest.approx(1.0, rel=1e-12)
        assert path.values[1, 1] == 0.0

    def test_agrees_with_hand_computation(self):
        geom = GridGeometry(ncols=3, nrows=1, xll=0.0, yll=0.0, cellsize=60.0)
        pts = points([[30, 30, 0.0], [150, 30, 9.0]])
        out = interpolate_idw(pts, geom, InterpConfig.within(math.inf, power=2.0),
                              mask=all_water(geom))
        # Middle cell: 60 m from both sources.
        assert out.values[0, 1] == 4.5
        assert out.values[0, 0] == 0.0
        assert out.values[0, 2] == 9.0

    def test_mask_restricts_output_not_distances(self):
        vals = np.ones((3, 5))
        vals[:, 2] = 10000.0
        cost = surface(vals)
        pts = points([[30, 90, 0.0], [270, 90, 10.0]])
        config = InterpConfig.within(math.inf)
        masked = interpolate_idw(pts, cost.geometry, config, mask=cost)
        open_water = interpolate_idw(pts, cost.geometry, config, mask=all_water(cost.geometry))
        water = cost.is_water
        assert np.array_equal(masked.values[water], open_water.values[water])
        assert np.all(masked.values[~water] == -9999.0)
        assert np.isfinite(open_water.values[~water]).all()

    def test_mask_geometry_must_match(self):
        cost = surface(np.ones((2, 2)))
        other = GridGeometry(ncols=2, nrows=2, xll=5.0, yll=0.0, cellsize=60.0)
        with pytest.raises(ValueError):
            interpolate_idw(points([[30, 30, 1.0]]), other, InterpConfig.within(math.inf),
                            mask=cost)

    def test_never_undershoots_path_distance(self):
        # On open water both methods see the same snapped sources; straight
        # lines can only be shorter or equal, so with one source the two
        # methods agree exactly and the octile stretch bounds the ratio.
        cost = surface(np.ones((6, 6)))
        pts = points([[30, 30, 3.0]])
        config = InterpConfig.within(math.inf)
        a = interpolate_ipdw(pts, cost, config)
        b = interpolate_idw(pts, cost.geometry, config, mask=cost)
        assert np.array_equal(a.values, b.values)


class TestEstimateColumns:
    @given(data=st.data())
    def test_matches_scalar_estimator(self, data):
        k = data.draw(st.integers(1, 6))
        nt = data.draw(st.integers(1, 5))
        rng = np.random.default_rng(data.draw(st.integers(0, 10**6)))
        dist = rng.uniform(0.5, 100.0, size=(k, nt))
        dist[rng.random((k, nt)) < 0.2] = np.inf
        values = rng.uniform(-50.0, 50.0, size=k)
        mode = data.draw(st.sampled_from(["all", "nearest", "within"]))
        if mode == "nearest":
            config = InterpConfig.nearest(data.draw(st.integers(1, 6)))
        elif mode == "within":
            config = InterpConfig.within(float(rng.uniform(1.0, 120.0)))
        else:
            config = InterpConfig.within(math.inf)
        est, has = oracles.estimate_dense(dist.copy(), values, config)
        for t in range(nt):
            pairs = [(dist[i, t], values[i]) for i in range(k) if np.isfinite(dist[i, t])]
            expected = oracles.shepard_direct(pairs, config.power, n_nearest=config.n_nearest,
                                              max_distance=config.max_distance)
            if expected is None:
                assert not has[t]
            else:
                assert has[t]
                assert est[t] == pytest.approx(expected, rel=1e-12, abs=1e-12)

    def test_rows_keep_source_order_unless_nearest_n_trims(self):
        # The estimator sums in row order, so the order fixes the last bits.
        # On one row of water both engines give the same whole distances;
        # cell 1 is 60 m from sources 1 and 2, a tie.
        cost = surface(np.ones((1, 4)))
        cells = [(0, 3), (0, 0), (0, 2)]
        dense = np.array([[180.0, 120.0, 60.0, 0.0],
                          [0.0, 60.0, 120.0, 180.0],
                          [120.0, 60.0, 0.0, 60.0]])
        for engine in (nearest_sources, _straight_line_sources):
            for kwargs in ({}, {"k": 3}):
                dist, src = engine(cost, cells, **kwargs)
                assert np.array_equal(dist, dense)
                assert src.tolist() == [[0], [1], [2]]
            dist, src = engine(cost, cells, max_distance=60.0)
            assert np.array_equal(dist, np.where(dense <= 60.0, dense, np.inf))
            assert src.tolist() == [[0], [1], [2]]
            dist, src = engine(cost, cells, k=2)
            assert dist.tolist() == [[0.0, 60.0, 0.0, 0.0], [120.0, 60.0, 60.0, 60.0]]
            assert src.tolist() == [[1, 1, 2, 0], [2, 2, 0, 2]]

    @pytest.mark.parametrize("tile", [2, 4, 11, 44])
    def test_tiled_estimate_keeps_the_whole_table_bits(self, monkeypatch, tile):
        # 45 water cells: every tile size leaves one column over, which
        # joins the tile before it, since numpy sums a lone column pairwise
        cost = surface(np.ones((5, 9)))
        rng = np.random.default_rng(tile)
        flat = rng.choice(45, size=30, replace=False)
        cells = [(int(f) // 9, int(f) % 9) for f in flat]
        centers = centers_of(cost.geometry, cells)
        pts = PointSet(centers[:, 0], centers[:, 1], rng.uniform(-1e3, 1e3, len(cells)))

        def run():
            configs = (InterpConfig.within(math.inf), InterpConfig.nearest(10))
            return ([interpolate_ipdw(pts, cost, c).values.tobytes() for c in configs]
                    + [interpolate_idw(pts, cost.geometry, c, mask=cost).values.tobytes()
                       for c in configs])

        whole = run()
        monkeypatch.setattr(pathdist, "_TILE", tile)
        assert run() == whole

    def test_zero_distance_column(self):
        dist = np.array([[0.0, 3.0], [1.0, 4.0]])
        values = np.array([6.0, 10.0])
        config = InterpConfig.within(math.inf)
        est, has = oracles.estimate_dense(dist, values, config)
        assert has.all()
        assert est[0] == 6.0

    def test_all_excluded_column(self):
        dist = np.array([[np.inf], [np.inf]])
        config = InterpConfig.within(math.inf)
        est, has = oracles.estimate_dense(dist, np.array([1.0, 2.0]), config)
        assert not has[0]


def dense_idw(pts, geometry, config, mask):
    """IDW table and raster from a dense straight-line matrix.

    Rows stay in source order unless nearest-n trims more than n sources,
    where a stable sort keeps each column's n nearest by (distance, source
    order). Returns ((distances, sources), raster values).
    """
    cells, values = snapped_sources(pts, cost=mask)
    water = mask.is_water
    cx, cy = geometry.cell_centers()
    rows, cols = np.array(cells).T
    dist = np.hypot(cx[water][None, :] - cx[rows, cols][:, None],
                    cy[water][None, :] - cy[rows, cols][:, None])
    dist, src = oracles.table(dist, config)
    est, has = _estimate(dist, values[src], config.power)
    out = np.full(geometry.n_cells, -9999.0)
    out[np.flatnonzero(water.ravel())[has]] = est[has]
    return (dist, src), out.reshape(geometry.nrows, geometry.ncols)


def assert_idw_matches_dense(pts, geometry, config, mask):
    (ref_d, ref_s), ref_raster = dense_idw(pts, geometry, config, mask)
    cells = snapped_sources(pts, cost=mask)[0]
    dist, src = _straight_line_sources(mask, cells, k=config.n_nearest,
                                       max_distance=config.max_distance)
    assert np.array_equal(dist, ref_d)
    if config.n_nearest is not None and len(cells) > config.n_nearest:
        found = np.isfinite(dist)
        assert np.array_equal(src[found], ref_s[found])
        assert (src[~found] == -1).all()
    else:
        assert np.array_equal(src, ref_s)
    assert np.array_equal(interpolate_idw(pts, geometry, config, mask=mask).values, ref_raster)


def check_lattice_sources(data):
    """Lattice sources from ``data``, checked against ``dense_idw``."""
    # Lattice sources put many targets at exactly equal distances from
    # several sources, so the (distance, source order) rule decides.
    nrows, ncols = data.draw(st.integers(1, 16)), data.draw(st.integers(1, 16))
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    step = data.draw(st.integers(1, 2))
    cells = [(r, c) for r in range(rng.integers(step), nrows, step)
             for c in range(rng.integers(step), ncols, step)] or [(0, 0)]
    cells += [cells[i] for i in rng.integers(0, len(cells), data.draw(st.integers(0, 5)))]
    if data.draw(st.booleans()):
        cells.reverse()
    vals = np.where(rng.random((nrows, ncols)) < 0.3, 10000.0, 1.0)
    vals[tuple(np.array(cells).T)] = 1.0
    cost = surface(vals)
    centers = centers_of(cost.geometry, cells)
    pts = PointSet(centers[:, 0], centers[:, 1], rng.uniform(-10.0, 10.0, len(cells)))
    n_sources = len(set(cells))
    n = data.draw(st.sampled_from([1, 2, 3, 5, max(1, n_sources - 1), n_sources + 1]))
    config = data.draw(st.sampled_from([
        InterpConfig.nearest(n), InterpConfig.within(60.0 * step * 1.5),
        InterpConfig.within(math.inf)]))
    assert_idw_matches_dense(pts, cost.geometry, config,
                             data.draw(st.sampled_from([all_water(cost.geometry), cost])))


class TestStraightLineTable:
    @given(data=st.data())
    def test_matches_dense_reference(self, data):
        check_lattice_sources(data)

    @pytest.mark.parametrize("tile", [3, 7])
    @given(data=st.data())
    def test_small_merge_tiles_match_dense_reference(self, tile, data):
        # Tiles far narrower than the grids split every merge, and most
        # merges end on a partial tile.
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(pathdist, "_TILE", tile)
            check_lattice_sources(data)

    def test_nearest_n_never_builds_a_sources_by_cells_array(self, monkeypatch):
        sizes = []
        real = np.hypot

        def spy(a, b, *args, **kwargs):
            sizes.append(math.prod(np.broadcast_shapes(np.shape(a), np.shape(b))))
            return real(a, b, *args, **kwargs)

        cost = surface(np.ones((20, 20)))
        rng = np.random.default_rng(4)
        pts = PointSet(rng.uniform(0, 1200, 100), rng.uniform(0, 1200, 100),
                       rng.uniform(-10.0, 10.0, 100))
        n_sources = len(snapped_sources(pts, cost=cost)[0])
        assert n_sources > 60
        monkeypatch.setattr(np, "hypot", spy)
        got = interpolate_idw(pts, cost.geometry, InterpConfig.nearest(3), mask=cost).values
        monkeypatch.undo()
        assert sizes
        assert max(sizes) * 10 < n_sources * cost.is_water.sum()
        assert np.array_equal(got, dense_idw(pts, cost.geometry, InterpConfig.nearest(3), cost)[1])

    @pytest.mark.parametrize("k", range(1, 12))
    def test_equidistant_ring_widens_the_candidate_search(self, k, monkeypatch):
        # Twelve sources lie exactly 5 cells from the target at (10, 10).
        # For k up to 10 its k-th and (k + 2)-th nearest tie, so the first
        # candidate query cannot settle it; for every k the ring's ties must
        # go to the lower source index whatever order the tree finds them in.
        # The border sources make the tree split the ring over several
        # leaves, which a single leaf would scan in index order.
        ring = [(0, 5), (0, -5), (5, 0), (-5, 0), (3, 4), (3, -4), (-3, 4), (-3, -4),
                (4, 3), (4, -3), (-4, 3), (-4, -3)]
        far = ([(dr, dc) for dr in range(-10, 11, 4) for dc in (-10, 10)]
               + [(dr, dc) for dr in (-10, 10) for dc in range(-8, 9, 4)])
        cost = surface(np.ones((21, 21)))
        rng = np.random.default_rng(k)
        order = rng.permutation(len(ring + far))
        cells = [(10 + dr, 10 + dc) for dr, dc in np.array(ring + far)[order]]
        centers = centers_of(cost.geometry, cells)
        pts = PointSet(centers[:, 0], centers[:, 1], rng.uniform(-10.0, 10.0, len(cells)))
        rounds = []

        class SpyTree(cKDTree):
            def query(self, x, m, *args, **kwargs):
                rounds.append((m, np.asarray(x)))
                return super().query(x, m, *args, **kwargs)

        # _kd_nearest imports the tree at call time, from scipy.spatial
        monkeypatch.setattr(scipy.spatial, "cKDTree", SpyTree)
        assert_idw_matches_dense(pts, cost.geometry, InterpConfig.nearest(k), cost)
        target = centers_of(cost.geometry, [(10, 10)])[0]
        widened = [(x == target).all(axis=1).any() for m, x in rounds if m > k + 2]
        assert any(widened) == (k <= 10)


class TestTranslationEquivariance:
    @given(
        dx=st.integers(-50, 50),
        dy=st.integers(-50, 50),
    )
    def test_shifting_everything_shifts_nothing(self, dx, dy):
        # Whole-cell translations of grid and points leave both methods'
        # outputs bit-identical.
        cs = 60.0
        vals = np.ones((4, 4))
        vals[1, 2] = 10000.0
        base_pts = [[30.0, 30.0, 2.0], [210.0, 150.0, 8.0]]
        config = InterpConfig.within(math.inf)

        def run(ox, oy):
            geom = GridGeometry(ncols=4, nrows=4, xll=ox, yll=oy, cellsize=cs)
            cost = CostSurface(RasterGrid(geom, vals, -9999.0))
            pts = points([[x + ox, y + oy, v] for x, y, v in base_pts])
            return (
                interpolate_ipdw(pts, cost, config).values,
                interpolate_idw(pts, geom, config, mask=cost).values,
            )

        a_path, a_euclid = run(0.0, 0.0)
        b_path, b_euclid = run(dx * cs, dy * cs)
        assert np.array_equal(a_path, b_path)
        assert np.array_equal(a_euclid, b_euclid)
