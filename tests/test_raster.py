import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from pathidw import DEFAULT_NODATA, GridGeometry, RasterGrid


def small_geometries():
    return st.builds(
        GridGeometry,
        ncols=st.integers(1, 12),
        nrows=st.integers(1, 12),
        xll=st.floats(-1e4, 1e4, allow_nan=False),
        yll=st.floats(-1e4, 1e4, allow_nan=False),
        cellsize=st.floats(0.5, 500.0, allow_nan=False),
    )


class TestGridGeometry:
    def test_cells_of_known_cells(self):
        geom = GridGeometry(ncols=2, nrows=2, xll=0.0, yll=0.0, cellsize=60.0)
        rows, cols = geom.cells_of([60.0, 30.0, -1.0], [60.0, 30.0, 30.0])
        assert rows.tolist() == [0, 1, -1]
        assert cols.tolist() == [1, 0, -1]

    def test_extent_is_half_open(self):
        geom = GridGeometry(ncols=2, nrows=2, xll=0.0, yll=0.0, cellsize=60.0)
        rows, cols = geom.cells_of([0.0, 120.0, 30.0, 119.999], [0.0, 30.0, 120.0, 119.999])
        assert rows.tolist() == [1, -1, -1, 0]
        assert cols.tolist() == [0, -1, -1, 1]

    def test_cells_of_edges_and_outside(self):
        geom = GridGeometry(ncols=3, nrows=2, xll=-30.0, yll=10.0, cellsize=20.0)
        # left and bottom edges belong to the cell; the extent's right
        # (x = 30) and top (y = 50) lines and anything beyond are outside
        x = np.array([-30.0, -10.0, 29.999, 30.0, -30.0, 0.0, -30.1, 0.0, 0.0, 1e300])
        y = np.array([10.0, 30.0, 49.999, 20.0, 50.0, 9.99, 20.0, 30.0, -1e300, 20.0])
        rows, cols = geom.cells_of(x, y)
        assert rows.tolist() == [1, 0, 0, -1, -1, -1, -1, 0, -1, -1]
        assert cols.tolist() == [0, 1, 2, -1, -1, -1, -1, 1, -1, -1]

    def test_cell_centers_known_cells(self):
        geom = GridGeometry(ncols=3, nrows=3, xll=0.0, yll=0.0, cellsize=10.0)
        xs, ys = geom.cell_centers()
        assert (xs[0, 0], ys[0, 0]) == (5.0, 25.0)
        assert (xs[2, 2], ys[2, 2]) == (25.0, 5.0)
        assert (xs[1, 1], ys[1, 1]) == (15.0, 15.0)

    def test_row_zero_is_top(self):
        geom = GridGeometry(ncols=1, nrows=4, xll=0.0, yll=0.0, cellsize=10.0)
        xs, ys = geom.cell_centers()
        assert ys[:, 0].tolist() == [35.0, 25.0, 15.0, 5.0]
        assert set(xs[:, 0].tolist()) == {5.0}

    def test_derived_properties(self):
        geom = GridGeometry(ncols=4, nrows=3, xll=10.0, yll=-20.0, cellsize=5.0)
        assert geom.width == 20.0
        assert geom.height == 15.0
        assert geom.xmax == 30.0
        assert geom.ymax == -5.0
        assert geom.n_cells == 12

    def test_validation(self):
        with pytest.raises(ValueError):
            GridGeometry(ncols=0, nrows=2, xll=0.0, yll=0.0, cellsize=1.0)
        with pytest.raises(ValueError):
            GridGeometry(ncols=2, nrows=-1, xll=0.0, yll=0.0, cellsize=1.0)
        for bad in (2.5, True, 3.0):
            with pytest.raises(ValueError, match="positive integer"):
                GridGeometry(ncols=bad, nrows=2, xll=0.0, yll=0.0, cellsize=1.0)
            with pytest.raises(ValueError, match="positive integer"):
                GridGeometry(ncols=2, nrows=bad, xll=0.0, yll=0.0, cellsize=1.0)
        with pytest.raises(ValueError):
            GridGeometry(ncols=2, nrows=2, xll=0.0, yll=0.0, cellsize=0.0)
        with pytest.raises(ValueError):
            GridGeometry(ncols=2, nrows=2, xll=np.nan, yll=0.0, cellsize=1.0)

    def test_cell_centers_match_scalar_formula(self):
        geom = GridGeometry(ncols=3, nrows=2, xll=-5.0, yll=7.0, cellsize=2.0)
        xs, ys = geom.cell_centers()
        assert xs.shape == ys.shape == (2, 3)
        for r in range(2):
            for c in range(3):
                assert xs[r, c] == -5.0 + (c + 0.5) * 2.0
                assert ys[r, c] == 7.0 + (2 - r - 0.5) * 2.0

    @given(geom=small_geometries(), data=st.data())
    def test_round_trip_center_to_cell(self, geom, data):
        row = data.draw(st.integers(0, geom.nrows - 1))
        col = data.draw(st.integers(0, geom.ncols - 1))
        xs, ys = geom.cell_centers()
        x, y = xs[row, col], ys[row, col]
        assert tuple(map(int, geom.cells_of(x, y))) == (row, col)

    @given(geom=small_geometries(), data=st.data())
    def test_cells_of_inside_extent_never_outside(self, geom, data):
        # Strictly interior points always land in some cell.
        fx = data.draw(st.floats(1e-6, 1 - 1e-6))
        fy = data.draw(st.floats(1e-6, 1 - 1e-6))
        x = geom.xll + fx * geom.width
        y = geom.yll + fy * geom.height
        row, col = geom.cells_of(x, y)
        assert 0 <= row < geom.nrows
        assert 0 <= col < geom.ncols


class TestRasterGrid:
    def geom(self):
        return GridGeometry(ncols=3, nrows=2, xll=0.0, yll=0.0, cellsize=1.0)

    def test_values_are_float64_and_read_only(self):
        grid = RasterGrid(self.geom(), np.arange(6).reshape(2, 3))
        assert grid.values.dtype == np.float64
        with pytest.raises(ValueError):
            grid.values[0, 0] = 99.0

    def test_copies_input(self):
        src = np.ones((2, 3))
        grid = RasterGrid(self.geom(), src)
        src[0, 0] = 42.0
        assert grid.values[0, 0] == 1.0

    def test_shape_must_match_geometry(self):
        with pytest.raises(ValueError):
            RasterGrid(self.geom(), np.ones((3, 2)))

    def test_rejects_non_finite(self):
        bad = np.ones((2, 3))
        bad[1, 2] = np.inf
        with pytest.raises(ValueError):
            RasterGrid(self.geom(), bad)
        bad[1, 2] = np.nan
        with pytest.raises(ValueError):
            RasterGrid(self.geom(), bad)

    def test_nodata_mask(self):
        vals = np.array([[1.0, DEFAULT_NODATA, 2.0], [DEFAULT_NODATA, 3.0, 4.0]])
        grid = RasterGrid(self.geom(), vals)
        assert grid.nodata == DEFAULT_NODATA
        expect = np.array([[False, True, False], [True, False, False]])
        assert np.array_equal(grid.is_nodata, expect)

    def test_custom_nodata(self):
        vals = np.array([[1.0, -1.0, 2.0], [-1.0, 3.0, 4.0]])
        grid = RasterGrid(self.geom(), vals, nodata=-1.0)
        assert np.count_nonzero(grid.is_nodata) == 2

    def test_full_constructor(self):
        grid = RasterGrid.full(self.geom(), 7.5)
        assert np.all(grid.values == 7.5)
        assert grid.nodata == DEFAULT_NODATA
