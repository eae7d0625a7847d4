import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import oracles
from pathidw import (
    DEFAULT_LAND_COST,
    DEFAULT_WATER_COST,
    CostSurface,
    GridGeometry,
    PolygonError,
    PolygonSet,
    RasterGrid,
    rasterize_land,
)
from pathidw import costsurface


def square(x0, y0, x1, y1):
    return np.array([[x0, y0], [x1, y0], [x1, y1], [x0, y1], [x0, y0]], dtype=float)


@st.composite
def lattice_rings(draw):
    """1-3 closed rings on the integer lattice 0..5: self-intersecting,
    overlapping, with horizontal and zero-length edges."""
    vertex = st.tuples(st.integers(0, 5), st.integers(0, 5))
    rings = []
    for _ in range(draw(st.integers(1, 3))):
        ring = draw(st.lists(vertex, min_size=3, max_size=8))
        rings.append(np.array(ring + ring[:1], dtype=float))
    return tuple(rings)


# half steps put points on vertices, on horizontal edges and on every edge's
# y-levels; NaN, infinities and -0.0 test the comparisons' corner cases
coordinate = st.one_of(st.integers(-2, 12).map(lambda v: v / 2), st.floats(-1.0, 6.0),
                       st.sampled_from([math.nan, -0.0, math.inf, -math.inf]))


def oracle_contains(polys, x, y):
    bx, by = np.broadcast_arrays(np.asarray(x, dtype=float), np.asarray(y, dtype=float))
    inside = oracles.even_odd_contains(polys.rings, bx.ravel(), by.ravel())
    return np.array(inside, dtype=bool).reshape(bx.shape)


class TestPolygonSet:
    def test_validation_names_the_ring(self):
        good = square(0, 0, 1, 1)
        open_ring = np.array([[0, 0], [1, 0], [1, 1], [0, 1]])
        with pytest.raises(PolygonError, match="ring 1"):
            PolygonSet((good, open_ring))

    def test_too_few_vertices(self):
        with pytest.raises(PolygonError, match="at least 4"):
            PolygonSet((np.array([[0, 0], [1, 0], [0, 0]]),))

    def test_non_finite_vertices(self):
        ring = square(0, 0, 1, 1)
        ring = ring.copy()
        ring[2, 0] = np.nan
        with pytest.raises(PolygonError, match="finite"):
            PolygonSet((ring,))

    def test_wrong_shape(self):
        with pytest.raises(PolygonError):
            PolygonSet((np.zeros((4, 3)),))

    def test_empty_set_contains_nothing(self):
        empty = PolygonSet.empty()
        assert len(empty) == 0
        assert not empty.contains(0.0, 0.0)

    def test_square_containment(self):
        polys = PolygonSet((square(0, 0, 10, 10),))
        assert polys.contains(5.0, 5.0)
        assert not polys.contains(15.0, 5.0)
        assert not polys.contains(-1.0, 5.0)

    def test_contains_vectorised(self):
        polys = PolygonSet((square(0, 0, 10, 10),))
        xs = np.array([5.0, 15.0, 2.0])
        ys = np.array([5.0, 5.0, 20.0])
        assert np.array_equal(polys.contains(xs, ys), [True, False, False])

    def test_union_of_rings(self):
        # Two overlapping squares: the overlap stays inside (union, not
        # symmetric difference).
        polys = PolygonSet((square(0, 0, 10, 10), square(5, 5, 15, 15)))
        assert polys.contains(7.0, 7.0)
        assert polys.contains(2.0, 2.0)
        assert polys.contains(12.0, 12.0)
        assert not polys.contains(20.0, 20.0)

    def test_concave_ring(self):
        # U-shape: the notch in the middle is outside.
        u = np.array(
            [[0, 0], [9, 0], [9, 9], [6, 9], [6, 3], [3, 3], [3, 9], [0, 9], [0, 0]],
            dtype=float,
        )
        polys = PolygonSet((u,))
        assert polys.contains(1.5, 6.0)
        assert polys.contains(7.5, 6.0)
        assert not polys.contains(4.5, 6.0)
        assert polys.contains(4.5, 1.5)

    @given(rings=lattice_rings(), data=st.data())
    def test_contains_matches_scalar_oracle(self, rings, data):
        shape = data.draw(st.sampled_from(["scalar", "1-d", "2-d", "empty"]))
        if shape == "scalar":
            x, y = data.draw(coordinate), data.draw(coordinate)
        elif shape == "1-d":
            n = data.draw(st.integers(1, 30))
            x, y = (np.array(data.draw(st.lists(coordinate, min_size=n, max_size=n)))
                    for _ in range(2))
        elif shape == "2-d":
            x = np.array(data.draw(st.lists(coordinate, min_size=1, max_size=6)))[:, None]
            y = np.array(data.draw(st.lists(coordinate, min_size=1, max_size=6)))[None, :]
        else:
            x = y = np.empty(0)
        polys = PolygonSet(rings if data.draw(st.booleans()) else ())
        # a small cap splits a ring's edges into many groups, some empty
        cap = data.draw(st.sampled_from([costsurface._PAIRS, 1, 5]))
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(costsurface, "_PAIRS", cap)
            got = polys.contains(x, y)
        want = oracle_contains(polys, x, y)
        assert got.dtype == bool and got.shape == want.shape
        assert np.array_equal(got, want)

    def test_rings_are_read_only(self):
        polys = PolygonSet((square(0, 0, 1, 1),))
        with pytest.raises(ValueError):
            polys.rings[0][0, 0] = 5.0


class TestRasterizeLand:
    def test_empty_polygons_give_all_water(self):
        geom = GridGeometry(ncols=4, nrows=3, xll=0.0, yll=0.0, cellsize=10.0)
        cost = rasterize_land(PolygonSet.empty(), geom)
        assert cost.is_water.all()
        assert not cost.is_land.any()

    def test_center_point_rule(self):
        # 3x3 grid, cellsize 60; a polygon covering the middle cell's center
        # only turns that one cell to land.
        geom = GridGeometry(ncols=3, nrows=3, xll=0.0, yll=0.0, cellsize=60.0)
        polys = PolygonSet((square(70, 70, 110, 110),))
        cost = rasterize_land(polys, geom)
        assert cost.is_land[1, 1]
        assert np.count_nonzero(cost.is_land) == 1

    def test_vertical_barrier_column(self):
        # 3 rows x 5 cols, land polygon spanning the middle column.
        geom = GridGeometry(ncols=5, nrows=3, xll=0.0, yll=0.0, cellsize=10.0)
        polys = PolygonSet((square(20, -5, 30, 35),))
        cost = rasterize_land(polys, geom)
        assert np.array_equal(cost.is_land[:, 2], [True, True, True])
        assert np.count_nonzero(cost.is_land) == 3

    def test_costs_are_two_valued(self):
        geom = GridGeometry(ncols=3, nrows=3, xll=0.0, yll=0.0, cellsize=60.0)
        cost = rasterize_land(PolygonSet((square(70, 70, 110, 110),)), geom)
        assert set(np.unique(cost.raster.values)) == {DEFAULT_WATER_COST, DEFAULT_LAND_COST}

    def test_custom_costs(self):
        geom = GridGeometry(ncols=2, nrows=1, xll=0.0, yll=0.0, cellsize=10.0)
        polys = PolygonSet((square(-1, -1, 9, 11),))
        cost = rasterize_land(polys, geom, water_cost=2.0, land_cost=50.0)
        assert cost.raster.values[0, 0] == 50.0
        assert cost.raster.values[0, 1] == 2.0

    @given(data=st.data())
    def test_adding_a_ring_never_shrinks_land(self, data):
        geom = GridGeometry(ncols=8, nrows=8, xll=0.0, yll=0.0, cellsize=10.0)
        boxes = data.draw(
            st.lists(
                st.tuples(
                    st.floats(-5, 75), st.floats(-5, 75),
                    st.floats(5, 40), st.floats(5, 40),
                ),
                min_size=1,
                max_size=4,
            )
        )
        rings = [square(x, y, x + w, y + h) for x, y, w, h in boxes]
        extra = data.draw(
            st.tuples(st.floats(-5, 75), st.floats(-5, 75), st.floats(5, 40), st.floats(5, 40))
        )
        base = rasterize_land(PolygonSet(tuple(rings)), geom)
        x, y, w, h = extra
        more = rasterize_land(PolygonSet(tuple(rings) + (square(x, y, x + w, y + h),)), geom)
        assert np.all(more.is_land | ~base.is_land)


    @given(rings=lattice_rings(), data=st.data())
    def test_matches_scalar_oracle(self, rings, data):
        # centers on the lattice's half steps: on vertices and edges
        cs = data.draw(st.sampled_from([0.5, 1.0]))
        geom = GridGeometry(ncols=data.draw(st.integers(1, 16)),
                            nrows=data.draw(st.integers(1, 16)),
                            xll=-1.0 - cs / 2, yll=-1.0 - cs / 2, cellsize=cs)
        polys = PolygonSet(rings)
        cost = rasterize_land(polys, geom)
        assert np.array_equal(cost.is_land, oracle_contains(polys, *geom.cell_centers()))

    def test_ring_over_a_few_rows_of_a_large_grid(self):
        # Cell centers sit at half-integers. The first ring spans rows
        # 136-139 only, from a bottom edge on row 139's centers to a vertex
        # on row 136's; the second spans the grid's bottom row to its top.
        geom = GridGeometry(ncols=180, nrows=240, xll=0.0, yll=0.0, cellsize=1.0)
        rings = (np.array([[10.5, 100.5], [170.5, 100.5], [150.25, 103.5], [40.5, 102.5],
                           [10.5, 100.5]]),
                 np.array([[3.0, 0.5], [5.5, 0.5], [5.5, 239.5], [3.0, 239.5], [3.0, 0.5]]))
        polys = PolygonSet(rings)
        land = rasterize_land(polys, geom).is_land
        assert np.array_equal(land, oracle_contains(polys, *geom.cell_centers()))
        # bands are half-open: a ring's lowest y-level is in, its highest out
        assert land[139, 10:170].all() and not land[136, 6:].any()
        assert land[239, 3:5].all() and not land[0].any()
        assert land[137:140, 40:150].all()
        assert not land[:136, 6:].any() and not land[140:, 6:].any()


class TestCostSurface:
    def test_rejects_other_values(self):
        geom = GridGeometry(ncols=2, nrows=1, xll=0.0, yll=0.0, cellsize=1.0)
        grid = RasterGrid(geom, np.array([[1.0, 3.0]]))
        with pytest.raises(ValueError, match="two classes"):
            CostSurface(grid)

    def test_rejects_bad_cost_ordering(self):
        geom = GridGeometry(ncols=1, nrows=1, xll=0.0, yll=0.0, cellsize=1.0)
        grid = RasterGrid(geom, np.array([[1.0]]))
        with pytest.raises(ValueError):
            CostSurface(grid, water_cost=5.0, land_cost=5.0)
        with pytest.raises(ValueError):
            CostSurface(grid, water_cost=0.0, land_cost=10.0)

    def test_nodata_is_neither_class(self):
        geom = GridGeometry(ncols=3, nrows=1, xll=0.0, yll=0.0, cellsize=1.0)
        grid = RasterGrid(geom, np.array([[1.0, -9999.0, 10000.0]]))
        cost = CostSurface(grid)
        assert np.array_equal(cost.is_water, [[True, False, False]])
        assert np.array_equal(cost.is_land, [[False, False, True]])

