import hashlib

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
    make_scene,
    rasterize_land,
)
from pathidw import costsurface
from pathidw.cli import main
from pathidw.fileio import write_polygons


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


def oracle_land(polys, geometry):
    """The scalar even-odd oracle at every cell center of ``geometry``."""
    cx, cy = geometry.cell_centers()
    inside = oracles.even_odd_contains(polys.rings, cx.ravel(), cy.ravel())
    return np.array(inside, dtype=bool).reshape(cx.shape)


def rasterize_with_band(polys, geometry, band, **costs):
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(costsurface, "_BAND", band)
        return rasterize_land(polys, geometry, **costs)


def star_islands(seed, n=40, side=6000.0):
    """A wall and n star-shaped islands of 24-48 vertices, seeded."""
    rng = np.random.default_rng(seed)
    rings = [square(1190.0, -60.0, 1250.0, side + 60.0)]
    for _ in range(n):
        cx, cy = rng.uniform(0, side, size=2)
        radius = rng.uniform(120.0, 360.0)
        m = int(rng.integers(24, 49))
        theta = np.linspace(0.0, 2 * np.pi, m, endpoint=False)
        r = radius * (1 + 0.35 * np.sin(rng.integers(2, 6) * theta + rng.uniform(0, 6.3))
                      + 0.15 * rng.uniform(-1, 1, m))
        ring = np.column_stack([cx + r * np.cos(theta), cy + r * np.sin(theta)])
        rings.append(np.vstack([ring, ring[:1]]))
    return PolygonSet(tuple(rings))


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
        # half-step grids put centers on the lattice's vertices and edges;
        # drawn origins and cellsizes put them anywhere
        if data.draw(st.booleans()):
            cs = data.draw(st.sampled_from([0.5, 1.0]))
            xll = yll = -1.0 - cs / 2
        else:
            cs = data.draw(st.floats(0.05, 3.0))
            xll, yll = data.draw(st.floats(-4.0, 4.0)), data.draw(st.floats(-4.0, 4.0))
        geom = GridGeometry(ncols=data.draw(st.integers(1, 16)),
                            nrows=data.draw(st.integers(1, 16)), xll=xll, yll=yll, cellsize=cs)
        polys = PolygonSet(rings if data.draw(st.booleans()) else ())
        # a small cap makes every row, or every few rows, a band of its own
        band = data.draw(st.sampled_from([costsurface._BAND, 1, 5]))
        land = rasterize_with_band(polys, geom, band).is_land
        assert land.dtype == bool and land.shape == (geom.nrows, geom.ncols)
        assert np.array_equal(land, oracle_land(polys, geom))

    def test_square_burns_the_centers_it_covers(self):
        geom = GridGeometry(ncols=20, nrows=20, xll=0.0, yll=0.0, cellsize=1.0)
        land = rasterize_land(PolygonSet((square(0, 0, 10, 10),)), geom).is_land
        assert land[10:, :10].all()
        assert np.count_nonzero(land) == 100

    def test_overlapping_rings_unite(self):
        # the overlap stays land: a union, not a symmetric difference
        geom = GridGeometry(ncols=20, nrows=20, xll=0.0, yll=0.0, cellsize=1.0)
        polys = PolygonSet((square(0, 0, 10, 10), square(5, 5, 15, 15)))
        land = rasterize_land(polys, geom).is_land
        assert land[12, 7] and land[17, 2] and land[7, 12] and not land[0, 0]
        assert np.count_nonzero(land) == 175
        assert np.array_equal(land, oracle_land(polys, geom))

    def test_concave_ring(self):
        # U-shape: the notch in the middle is water
        u = np.array(
            [[0, 0], [9, 0], [9, 9], [6, 9], [6, 3], [3, 3], [3, 9], [0, 9], [0, 0]],
            dtype=float,
        )
        geom = GridGeometry(ncols=3, nrows=3, xll=0.0, yll=0.0, cellsize=3.0)
        land = rasterize_land(PolygonSet((u,)), geom).is_land
        assert np.array_equal(land, [[True, False, True], [True, False, True],
                                     [True, True, True]])

    def test_vertex_on_a_row_center(self):
        # the diamond's side vertices sit on row 2's centers (y = 2.5): the
        # row's crossings come from the two edges above them, at x 0.5 and 4.5
        geom = GridGeometry(ncols=5, nrows=5, xll=0.0, yll=0.0, cellsize=1.0)
        diamond = np.array([[2.5, 0.5], [4.5, 2.5], [2.5, 4.5], [0.5, 2.5], [2.5, 0.5]])
        polys = PolygonSet((diamond,))
        land = rasterize_land(polys, geom).is_land
        assert np.array_equal(land[2], [True, True, True, True, False])
        # at the bottom tip both edges cross at x = 2.5, an empty interval;
        # at the top tip neither edge's half-open span holds the row
        assert not land[4].any() and not land[0].any()
        assert np.array_equal(land, oracle_land(polys, geom))

    def test_crossing_at_a_center_x(self):
        # edges at x = 1.5 and x = 3.5 pass through centers: the left one's
        # center is in (x_1 <= x), the right one's out (x < x_2)
        geom = GridGeometry(ncols=5, nrows=2, xll=0.0, yll=0.0, cellsize=1.0)
        polys = PolygonSet((square(1.5, 0.0, 3.5, 2.0),))
        land = rasterize_land(polys, geom).is_land
        assert np.array_equal(land, [[False, True, True, False, False]] * 2)

    def test_sloped_crossing_at_a_center_x(self):
        # the slanted edge crosses row 0's center line at x = 2.5 exactly
        geom = GridGeometry(ncols=5, nrows=1, xll=0.0, yll=0.0, cellsize=1.0)
        tri = np.array([[0.0, 0.0], [2.0, 0.0], [3.0, 1.0], [0.0, 1.0], [0.0, 0.0]])
        polys = PolygonSet((tri,))
        land = rasterize_land(polys, geom).is_land
        assert np.array_equal(land, [[True, True, False, False, False]])
        assert np.array_equal(land, oracle_land(polys, geom))

    def test_horizontal_edges_on_row_centers(self):
        # a rectangle whose bottom and top edges lie on centers: half-open,
        # the bottom row is land and the top row water
        geom = GridGeometry(ncols=6, nrows=6, xll=0.0, yll=0.0, cellsize=1.0)
        polys = PolygonSet((square(0.2, 1.5, 4.2, 4.5),))
        land = rasterize_land(polys, geom).is_land
        assert land[2:5, :4].all() and np.count_nonzero(land) == 12
        assert np.array_equal(land, oracle_land(polys, geom))

    def test_bow_tie(self):
        # a self-intersecting ring: even-odd keeps both lobes
        geom = GridGeometry(ncols=8, nrows=8, xll=0.0, yll=0.0, cellsize=1.0)
        tie = np.array([[0.0, 0.0], [8.0, 8.0], [8.0, 0.0], [0.0, 8.0], [0.0, 0.0]])
        polys = PolygonSet((tie,))
        land = rasterize_land(polys, geom).is_land
        assert land[4, 0] and land[4, 7] and not land[0, 4] and not land[7, 4]
        assert np.array_equal(land, oracle_land(polys, geom))

    def test_ring_past_the_grid(self):
        # a ring that covers the grid and more burns every cell
        geom = GridGeometry(ncols=7, nrows=4, xll=10.0, yll=20.0, cellsize=2.0)
        land = rasterize_land(PolygonSet((square(-100, -100, 100, 100),)), geom).is_land
        assert land.all()
        # one cut by the grid's edges burns the part inside
        part = rasterize_land(PolygonSet((square(15, 15, 100, 23),)), geom).is_land
        assert np.array_equal(part, oracle_land(PolygonSet((square(15, 15, 100, 23),)), geom))
        assert np.count_nonzero(part[3, 2:]) == 5 and np.count_nonzero(part) == 5

    def test_zero_area_rings_burn_nothing(self):
        geom = GridGeometry(ncols=6, nrows=6, xll=0.0, yll=0.0, cellsize=1.0)
        line = np.array([[0.5, 0.5], [5.5, 5.5], [3.5, 3.5], [0.5, 0.5]])
        point = np.array([[2.5, 2.5]] * 4)
        assert not rasterize_land(PolygonSet((line, point)), geom).is_land.any()

    def test_comb_of_tall_edges_in_small_bands(self):
        # a comb whose teeth span every row; any band size gives one mask
        teeth = [[0.0, 0.0]]
        for i in range(30):
            x = 2 * i + 0.25
            teeth += [[x, 1.0], [x, 40.0], [x + 1.0, 40.0], [x + 1.0, 1.0]]
        teeth += [[60.0, 0.0], [0.0, 0.0]]
        polys = PolygonSet((np.array(teeth),))
        geom = GridGeometry(ncols=60, nrows=40, xll=0.0, yll=0.0, cellsize=1.0)
        want = rasterize_land(polys, geom).is_land
        assert want[:39, 0::2].all() and not want[:39, 1::2].any()
        assert np.array_equal(want, oracle_land(polys, geom))
        for band in (1, 7, 61, 200, 5000):
            assert np.array_equal(rasterize_with_band(polys, geom, band).is_land, want)

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
        assert np.array_equal(land, oracle_land(polys, geom))
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


    @pytest.mark.parametrize("nodata", [-9999.0, 0.5, 2.0, 12345.0])
    def test_raster_rebuilds_bitwise(self, nodata):
        geom = GridGeometry(ncols=4, nrows=2, xll=3.0, yll=-7.0, cellsize=2.5)
        for water, land in ((1.0, 10000.0), (2.0, 50.0)):
            values = np.array([[water, land, nodata, water], [nodata, land, water, land]])
            raster = RasterGrid(geom, values, nodata)
            back = CostSurface(raster, water, land).raster
            assert back.geometry == geom and back.nodata == raster.nodata
            assert back.values.dtype == np.float64
            assert back.values.tobytes() == raster.values.tobytes()
            assert not back.values.flags.writeable

    def test_rasterized_surface_rebuilds_its_raster(self):
        geom = GridGeometry(ncols=3, nrows=3, xll=0.0, yll=0.0, cellsize=60.0)
        cost = rasterize_land(PolygonSet((square(70, 70, 110, 110),)), geom,
                              water_cost=2.0, land_cost=50.0)
        want = np.full((3, 3), 2.0)
        want[1, 1] = 50.0
        assert cost.raster.values.tobytes() == want.tobytes()
        assert cost.raster.nodata == cost.nodata == -9999.0
        assert CostSurface(cost.raster, 2.0, 50.0).classes.tobytes() == cost.classes.tobytes()

    def test_holds_at_most_two_bytes_per_cell(self):
        geom = GridGeometry(ncols=200, nrows=150, xll=0.0, yll=0.0, cellsize=30.0)
        burned = rasterize_land(star_islands(0), geom)
        for cost in (burned, CostSurface(burned.raster)):
            held = [getattr(cost, name) for name in CostSurface.__slots__]
            nbytes = sum(v.nbytes for v in held if isinstance(v, np.ndarray))
            assert 0 < nbytes <= 2 * geom.n_cells

    def test_is_immutable(self):
        geom = GridGeometry(ncols=2, nrows=1, xll=0.0, yll=0.0, cellsize=1.0)
        cost = CostSurface(RasterGrid(geom, np.array([[1.0, 10000.0]])))
        for name in ("geometry", "water_cost", "land_cost", "nodata", "classes", "raster",
                     "extra"):
            with pytest.raises(AttributeError):
                setattr(cost, name, None)
        with pytest.raises(AttributeError):
            del cost.water_cost
        with pytest.raises(ValueError):
            cost.classes[0, 0] = 0
        assert cost.water_cost == 1.0 and cost.is_land[0, 1]

    @pytest.mark.parametrize("polygons, extent, cellsize, costs, digest", [
        ("two-basin", "0,0,6000,6000", "60", [],
         "28ab1c4a1f9a27d98507670e341a66153535e32a50f98397b36e8c600aa8d319"),
        ("islands", "0,0,6000,6000", "30", ["--water-cost", "2", "--land-cost", "500"],
         "977976552cd7239bbbb2486968ba6b207fa08b86368408eb00fa9b8f2f4e02a6"),
    ])
    def test_costraster_bytes_are_stable(self, tmp_path, polygons, extent, cellsize, costs,
                                         digest):
        # digests of the files written by the point-by-point rasterizer this
        # scanline replaced
        polys = make_scene("two-basin").polygons if polygons == "two-basin" else star_islands(0)
        write_polygons(polys, tmp_path / "land.txt")
        out = tmp_path / "cost.asc"
        assert main(["costraster", "--polygons", str(tmp_path / "land.txt"), "--extent", extent,
                     "--cellsize", cellsize, "--out", str(out), *costs]) == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == digest
