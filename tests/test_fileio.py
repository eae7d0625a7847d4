import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import pathidw.fileio
from pathidw import (
    ErrorReport,
    FormatError,
    GridGeometry,
    PointSet,
    PolygonSet,
    RasterGrid,
    Scalogram,
    cross_validate,
    wilcoxon_signed_rank,
)
from pathidw.fileio import (
    read_ascii_grid,
    read_error_report,
    read_points,
    read_polygons,
    write_ascii_grid,
    write_error_report,
    write_paired_test,
    write_points,
    write_polygons,
    write_scalogram,
)


def pts(xyv):
    arr = np.asarray(xyv, dtype=float)
    return PointSet(x=arr[:, 0], y=arr[:, 1], values=arr[:, 2])


def square(x0, y0, x1, y1):
    return np.array([[x0, y0], [x1, y0], [x1, y1], [x0, y1], [x0, y0]], dtype=float)


class _NoBulkParse:
    """numpy, except that ``array`` fails, so every reader parses row by row."""

    def __getattr__(self, name):
        return getattr(np, name)

    @staticmethod
    def array(*args, **kwargs):
        raise ValueError("bulk parse disabled")


def parsed_both_ways(read, monkeypatch):
    """``read()`` with the bulk parse, then row by row; a FormatError reads as its text."""

    def attempt():
        try:
            return read()
        except FormatError as err:
            return str(err)

    bulk = attempt()
    with monkeypatch.context() as patch:
        patch.setattr(pathidw.fileio, "np", _NoBulkParse())
        return bulk, attempt()


class TestPointsCsv:
    def test_round_trip(self, tmp_path):
        cloud = pts([[1.5, -2.25, 3.125], [1e-7, 2e9, -0.1]])
        path = tmp_path / "pts.csv"
        write_points(cloud, path)
        back, skipped = read_points(path)
        assert skipped == 0
        assert np.array_equal(back.x, cloud.x)
        assert np.array_equal(back.y, cloud.y)
        assert np.array_equal(back.values, cloud.values)

    def test_write_read_write_is_byte_identical(self, tmp_path):
        cloud = pts([[0.1, 0.2, 0.30000000000000004], [123456.789, -1e-12, 7.0]])
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        write_points(cloud, p1)
        back, _ = read_points(p1)
        write_points(back, p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_na_rows_skipped_and_counted(self, tmp_path):
        path = tmp_path / "pts.csv"
        path.write_text("x,y,value\n1,2,3\n4,5,NA\n6,7,8\n")
        cloud, skipped = read_points(path)
        assert skipped == 1
        assert len(cloud) == 2
        assert list(cloud.values) == [3.0, 8.0]

    @pytest.mark.parametrize("body", [
        " 1 , 2 ,3\n4,5, NA \n6 ,\t7,8.5\n1_0,\uff11\uff12,-0\n",
        "1,2,NA\n3,4,NA\n",
        "",
        "1,2,3\n4,5,NA\n6,7\n",
        "1,2,NA\n1,2\n",
        "1,2,3\n4, oops ,NA\n6,7,oops\n",
        "1,2,3\n4,5,6,7\n",
        "1,2,3\n4,5,1e400\n",
        "1,2,3\n nan ,5,6\n",
        # a ragged pair with the token count of two good rows
        "1,2,3,4\n5,6\n",
        "1,2,3\n4,5,NA\n6,7,8,9\n1,2\n",
        # a comment and a blank line among the rows, and NA rows around them
        "1,2,3\n# note: x\n\n4,5,NA\n  6 , 7 , 8  \nNA,1,2\n",
        "1,2,NA\n# note\n3,4,NA\n5,6,7\n",
        "1,NA,3\n",
        "1,2,3;4,5,6\n",
    ])
    def test_bulk_and_row_by_row_parses_agree(self, body, tmp_path, monkeypatch):
        path = tmp_path / "pts.csv"
        path.write_text("# survey: demo\nx, y, value\n" + body)

        def read():
            cloud, skipped = read_points(path)
            return cloud.x.tobytes(), cloud.y.tobytes(), cloud.values.tobytes(), skipped

        bulk, row_by_row = parsed_both_ways(read, monkeypatch)
        assert row_by_row == bulk

    def test_missing_header(self, tmp_path):
        path = tmp_path / "pts.csv"
        path.write_text("1,2,3\n")
        with pytest.raises(FormatError, match="header"):
            read_points(path)

    def test_malformed_row_reports_line(self, tmp_path):
        path = tmp_path / "pts.csv"
        path.write_text("x,y,value\n1,2,3\n1,2\n")
        with pytest.raises(FormatError, match="line 3"):
            read_points(path)

    def test_bad_number_reports_line_and_column(self, tmp_path):
        path = tmp_path / "pts.csv"
        path.write_text("x,y,value\n1,oops,3\n")
        with pytest.raises(FormatError, match="line 2, column 2"):
            read_points(path)

    def test_non_finite_rejected(self, tmp_path):
        path = tmp_path / "pts.csv"
        path.write_text("x,y,value\n1,2,inf\n")
        with pytest.raises(FormatError, match="non-finite"):
            read_points(path)

    def test_comment_preamble_ignored(self, tmp_path):
        path = tmp_path / "pts.csv"
        path.write_text("# survey: demo\n# seed: 3\nx,y,value\n1,2,3\n")
        cloud, _ = read_points(path)
        assert len(cloud) == 1

    def test_metadata_written_as_comments(self, tmp_path):
        path = tmp_path / "pts.csv"
        write_points(pts([[1, 2, 3]]), path, metadata={"survey": "demo"})
        text = path.read_text()
        assert text.startswith("# survey: demo\n")
        cloud, _ = read_points(path)
        assert len(cloud) == 1

    @given(
        records=st.lists(
            st.tuples(
                st.floats(-1e12, 1e12, allow_nan=False),
                st.floats(-1e12, 1e12, allow_nan=False),
                st.floats(-1e12, 1e12, allow_nan=False),
            ),
            min_size=0,
            max_size=20,
        )
    )
    def test_round_trip_any_finite_floats(self, records, tmp_path_factory):
        tmp = tmp_path_factory.mktemp("pts")
        path = tmp / "pts.csv"
        if not records:
            return
        cloud = pts(records)
        write_points(cloud, path)
        back, _ = read_points(path)
        assert np.array_equal(back.x, cloud.x)
        assert np.array_equal(back.y, cloud.y)
        assert np.array_equal(back.values, cloud.values)


class TestAsciiGrid:
    def test_exact_file_layout(self, tmp_path):
        geom = GridGeometry(ncols=1, nrows=1, xll=0.0, yll=0.0, cellsize=60.0)
        path = tmp_path / "g.asc"
        write_ascii_grid(RasterGrid(geom, np.array([[5.0]])), path)
        assert path.read_text() == (
            "ncols 1\nnrows 1\nxllcorner 0\nyllcorner 0\ncellsize 60\n"
            "NODATA_value -9999\n5.000000\n"
        )

    def test_round_trip(self, tmp_path):
        geom = GridGeometry(ncols=3, nrows=2, xll=-10.5, yll=20.25, cellsize=2.5)
        vals = np.array([[1.0, -9999.0, 2.5], [0.125, 3.0, -4.75]])
        path = tmp_path / "g.asc"
        write_ascii_grid(RasterGrid(geom, vals), path)
        back = read_ascii_grid(path)
        assert back.geometry == geom
        assert np.array_equal(back.values, vals)
        assert back.nodata == -9999.0

    def test_write_read_write_is_byte_identical(self, tmp_path):
        rng = np.random.default_rng(1)
        geom = GridGeometry(ncols=4, nrows=3, xll=1.25, yll=-3.75, cellsize=30.0)
        vals = np.round(rng.uniform(-100, 100, size=(3, 4)), 3)
        p1, p2 = tmp_path / "a.asc", tmp_path / "b.asc"
        write_ascii_grid(RasterGrid(geom, vals), p1)
        write_ascii_grid(read_ascii_grid(p1), p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_header_keys_case_insensitive(self, tmp_path):
        path = tmp_path / "g.asc"
        path.write_text(
            "NCOLS 2\nNROWS 1\nXLLCORNER 0\nYLLCORNER 0\nCELLSIZE 10\n"
            "NODATA_VALUE -1\n3 4\n"
        )
        grid = read_ascii_grid(path)
        assert np.array_equal(grid.values, [[3.0, 4.0]])
        assert grid.nodata == -1.0

    def test_missing_header_line(self, tmp_path):
        path = tmp_path / "g.asc"
        path.write_text("ncols 2\nnrows 1\n")
        with pytest.raises(FormatError, match="xllcorner"):
            read_ascii_grid(path)

    def test_wrong_header_key(self, tmp_path):
        path = tmp_path / "g.asc"
        path.write_text("ncols 2\nrows 1\nxllcorner 0\nyllcorner 0\ncellsize 10\nNODATA_value -1\n")
        with pytest.raises(FormatError, match="line 2"):
            read_ascii_grid(path)

    def test_fractional_ncols_rejected(self, tmp_path):
        path = tmp_path / "g.asc"
        path.write_text(
            "ncols 2.5\nnrows 1\nxllcorner 0\nyllcorner 0\ncellsize 10\nNODATA_value -1\n1 2\n"
        )
        with pytest.raises(FormatError, match="positive integer"):
            read_ascii_grid(path)

    def test_row_count_mismatch(self, tmp_path):
        path = tmp_path / "g.asc"
        path.write_text(
            "ncols 2\nnrows 2\nxllcorner 0\nyllcorner 0\ncellsize 10\nNODATA_value -1\n1 2\n"
        )
        with pytest.raises(FormatError, match="expected 2 data rows"):
            read_ascii_grid(path)

    def test_column_count_mismatch(self, tmp_path):
        path = tmp_path / "g.asc"
        path.write_text(
            "ncols 3\nnrows 1\nxllcorner 0\nyllcorner 0\ncellsize 10\nNODATA_value -1\n1 2\n"
        )
        with pytest.raises(FormatError, match="expected 3 values"):
            read_ascii_grid(path)

    def test_bad_token_reports_position(self, tmp_path):
        path = tmp_path / "g.asc"
        path.write_text(
            "ncols 2\nnrows 1\nxllcorner 0\nyllcorner 0\ncellsize 10\nNODATA_value -1\n1 x\n"
        )
        with pytest.raises(FormatError, match="line 7, column 2"):
            read_ascii_grid(path)

    # float() spellings numpy might have parsed differently
    TOKENS = ["1_0", "\uff11\uff12", "1e400", "Infinity", "-0", "0x10", "1d3", "nan",
              "1__0", "\u0663", ".5", "+1.5e+3"]

    def test_numpy_parses_tokens_as_float_does(self):
        # The bulk parse relies on numpy agreeing with float() on every token,
        # failures included.
        for token in self.TOKENS:
            try:
                want = np.float64(float(token)).tobytes()
            except ValueError:
                want = None
            try:
                got = np.array([[token]], dtype=float).tobytes()
            except ValueError:
                got = None
            assert got == want or (want is not None and np.isnan(float(token))), token

    def test_rows_read_in_bulk_match_float_per_token(self, tmp_path):
        path = tmp_path / "g.asc"
        path.write_text("ncols 3\nnrows 2\nxllcorner 0\nyllcorner 0\ncellsize 10\n"
                        "NODATA_value -1\n1_0 \uff11\uff12 -0\n\u0663 .5 +1.5e+3\n")
        values = read_ascii_grid(path).values
        want = [[float(t) for t in row] for row in (["1_0", "\uff11\uff12", "-0"],
                                                  ["\u0663", ".5", "+1.5e+3"])]
        assert values.tobytes() == np.array(want).tobytes()

    @pytest.mark.parametrize("token, message", [
        ("1e400", "line 8, column 3: non-finite value '1e400'"),
        ("Infinity", "line 8, column 3: non-finite value 'Infinity'"),
        ("0x10", "line 8, column 3: not a number: '0x10'"),
        ("1d3", "line 8, column 3: not a number: '1d3'"),
        ("1 2", "line 8: row 1: expected 3 values, got 4"),
    ])
    def test_bad_token_in_a_later_row_reports_position(self, tmp_path, token, message):
        path = tmp_path / "g.asc"
        path.write_text("ncols 3\nnrows 3\nxllcorner 0\nyllcorner 0\ncellsize 10\n"
                        f"NODATA_value -1\n1 2 3\n4 5 {token}\n7 8 9\n")
        with pytest.raises(FormatError) as err:
            read_ascii_grid(path)
        assert message in str(err.value)

    @pytest.mark.parametrize("body", [
        "1_0 \uff11\uff12 -0\n\u0663 .5 +1.5e+3\n",
        "1 2 3\n4 5 1e400\n",
        "1 2 3\n4 x 6\n",
        "1 2\n4 5 x\n",
        "1 2 3\nnan 5 6\n",
        # a ragged pair with the token count of two good rows
        "1 2 3 4\n5 6\n",
        "1 2\n3 4 5 6\n",
        # spaces and tabs around the tokens, and a blank line among the rows
        "  1\t 2  3 \n\n\t4 5   6\t\n",
        "1 2 3\n# note\n4 5 6\n",
        "1 2 3\n4 ; 6\n",
    ])
    def test_bulk_and_row_by_row_parses_agree(self, body, tmp_path, monkeypatch):
        path = tmp_path / "g.asc"
        path.write_text("ncols 3\nnrows 2\nxllcorner 0\nyllcorner 0\ncellsize 10\n"
                        "NODATA_value -1\n" + body)
        bulk, row_by_row = parsed_both_ways(lambda: read_ascii_grid(path).values.tobytes(),
                                            monkeypatch)
        assert row_by_row == bulk

    def test_nodata_finer_than_the_decimals_is_rejected(self, tmp_path):
        # -9999.1234567 would be written as -9999.123457 and read back as data;
        # a sentinel with 6 decimals reads back as itself
        geom = GridGeometry(ncols=2, nrows=1, xll=0.0, yll=0.0, cellsize=1.0)
        raster = RasterGrid(geom, np.array([[1.0, -9999.1234567]]), -9999.1234567)
        path = tmp_path / "g.asc"
        with pytest.raises(ValueError, match="nodata mask"):
            write_ascii_grid(raster, path)
        assert not path.exists()
        raster = RasterGrid(geom, np.array([[1.0, -9999.123457]]), -9999.123457)
        write_ascii_grid(raster, path)
        assert np.array_equal(read_ascii_grid(path).is_nodata, raster.is_nodata)

    def test_data_rounding_onto_nodata_is_rejected(self, tmp_path):
        # 2.0000004 would be written as 2.000000 and read back as nodata;
        # 2.000002 is written as itself and stays data
        geom = GridGeometry(ncols=3, nrows=1, xll=0.0, yll=0.0, cellsize=1.0)
        raster = RasterGrid(geom, np.array([[2.0000004, 2.0, 5.0]]), 2.0)
        path = tmp_path / "g.asc"
        with pytest.raises(ValueError, match="nodata mask"):
            write_ascii_grid(raster, path)
        assert not path.exists()
        raster = RasterGrid(geom, np.array([[2.000002, 2.0, 5.0]]), 2.0)
        write_ascii_grid(raster, path)
        assert np.array_equal(read_ascii_grid(path).is_nodata, raster.is_nodata)


class TestPolygonText:
    def test_round_trip(self, tmp_path):
        polys = PolygonSet((square(0, 0, 10, 10), square(20, 20, 25, 30)))
        path = tmp_path / "land.txt"
        write_polygons(polys, path)
        back = read_polygons(path)
        assert len(back) == 2
        for a, b in zip(back.rings, polys.rings):
            assert np.array_equal(a, b)

    def test_write_read_write_is_byte_identical(self, tmp_path):
        polys = PolygonSet((square(0.1, 0.2, 10.33, 10.44),))
        p1, p2 = tmp_path / "a.txt", tmp_path / "b.txt"
        write_polygons(polys, p1)
        write_polygons(read_polygons(p1), p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_empty_file_is_empty_set(self, tmp_path):
        path = tmp_path / "land.txt"
        path.write_text("")
        assert len(read_polygons(path)) == 0

    def test_tiny_endpoint_gap_snaps_closed(self, tmp_path):
        path = tmp_path / "land.txt"
        path.write_text("0 0\n10 0\n10 10\n0 10\n0 1e-12\nEND\n")
        polys = read_polygons(path)
        ring = polys.rings[0]
        assert np.array_equal(ring[0], ring[-1])

    def test_wide_endpoint_gap_is_an_error(self, tmp_path):
        path = tmp_path / "land.txt"
        path.write_text("0 0\n10 0\n10 10\n0 10\n0 0.5\nEND\n")
        with pytest.raises(FormatError, match="not closed"):
            read_polygons(path)

    def test_unterminated_ring(self, tmp_path):
        path = tmp_path / "land.txt"
        path.write_text("0 0\n10 0\n10 10\n0 10\n0 0\n")
        with pytest.raises(FormatError, match="unterminated"):
            read_polygons(path)

    def test_degenerate_ring_names_its_index(self, tmp_path):
        path = tmp_path / "land.txt"
        path.write_text("0 0\n1 0\n0 0\nEND\n")
        with pytest.raises(FormatError, match="ring 0"):
            read_polygons(path)

    def test_bad_coordinate_line(self, tmp_path):
        path = tmp_path / "land.txt"
        path.write_text("0 0\n1 zero\n")
        with pytest.raises(FormatError, match="line 2"):
            read_polygons(path)

    def test_bad_vertex_before_a_missing_end_is_reported_first(self, tmp_path):
        path = tmp_path / "land.txt"
        path.write_text("0 0\n1 zero\n1 1\n0 0\n")
        with pytest.raises(FormatError, match="line 2") as err:
            read_polygons(path)
        assert "unterminated" not in str(err.value)

    @pytest.mark.parametrize("body", [
        "0 0\n10 0\n10 10\n0 0\nEND\n# hole\n1 1\n2 1\n2 2\n1 1\nEND\n",
        "0 0\n10 0\n10 10\n0 1e-12\nEND\nEND\n",
        "0 0\n10 0\n10 1e400\n0 0\nEND\n",
        "0 0\n10 x\n",
        "0 0\n10 0\n10 10\n0 0\n",
        "0 0\n1 0\n0 0\nEND\n",
        "",
        # a ragged pair with the token count of two good rows
        "0 0 10\n0\n10 10\n0 0\nEND\n",
        # spaces around the tokens, and comments and blank lines among them
        "  0 0 \n\t10   0\n# note: x\n\n10 10\t\n 0 0\nEND\n",
        "0 0\n10 0 ;\n10 10\n0 0\nEND\n",
    ])
    def test_bulk_and_row_by_row_parses_agree(self, body, tmp_path, monkeypatch):
        path = tmp_path / "land.txt"
        path.write_text(body)

        def read():
            return tuple(ring.tobytes() for ring in read_polygons(path).rings)

        bulk, row_by_row = parsed_both_ways(read, monkeypatch)
        assert row_by_row == bulk

    def test_comments_allowed(self, tmp_path):
        path = tmp_path / "land.txt"
        path.write_text("# source: digitized\n0 0\n10 0\n10 10\n0 10\n0 0\nEND\n")
        assert len(read_polygons(path)) == 1


class TestReportCsv:
    def make_report(self):
        geom = GridGeometry(ncols=2, nrows=1, xll=0.0, yll=0.0, cellsize=10.0)
        predicted = RasterGrid(geom, np.array([[1.0, -9999.0]]))
        cloud = pts([[5, 5, 0.8], [5, 6, 1.3], [15, 5, 2.0]])
        return cross_validate(predicted, cloud)

    def test_error_report_round_trip(self, tmp_path):
        report = self.make_report()
        path = tmp_path / "report.csv"
        write_error_report(report, path)
        back = read_error_report(path)
        for column in ("index", "observed", "predicted", "residual"):
            got, want = getattr(back, column), getattr(report, column)
            assert got.dtype == want.dtype and np.array_equal(got, want)
        assert back.mae == report.mae
        assert back.rmse == report.rmse
        assert back.n_evaluated == report.n_evaluated
        assert back.n_nodata == report.n_nodata

    def test_error_report_preamble(self, tmp_path):
        path = tmp_path / "report.csv"
        write_error_report(self.make_report(), path, metadata={"method": "ipdw"})
        text = path.read_text()
        assert "# report: cross-validation\n" in text
        assert "# mae: " in text and "# rmse: " in text
        assert "# method: ipdw\n" in text
        assert "point_index,observed,predicted,residual" in text

    def test_error_report_missing_header(self, tmp_path):
        path = tmp_path / "report.csv"
        path.write_text("1,2,3,4\n")
        with pytest.raises(FormatError):
            read_error_report(path)

    def test_error_report_empty_rows(self, tmp_path):
        path = tmp_path / "report.csv"
        path.write_text("point_index,observed,predicted,residual\n")
        with pytest.raises(FormatError, match="no residual rows"):
            read_error_report(path)

    def test_negative_n_nodata_is_a_format_error(self, tmp_path):
        path = tmp_path / "report.csv"
        path.write_text("# n_nodata: -3\npoint_index,observed,predicted,residual\n"
                        "0,1.0,1.5,0.5\n")
        with pytest.raises(FormatError, match="n_nodata must not be negative, got -3") as err:
            read_error_report(path)
        assert err.value.path == str(path) and str(err.value).startswith(str(path))
        path.write_text(path.read_text().replace("-3", "0"))
        assert read_error_report(path).n_nodata == 0

    @pytest.mark.parametrize("column", [2, 3, 4])
    @pytest.mark.parametrize("token", ["nan", "inf", "-inf"])
    def test_error_report_non_finite_field_reports_position(self, tmp_path, token, column):
        fields = ["1", "1.0", "2.0", "1.0"]
        fields[column - 1] = token
        path = tmp_path / "report.csv"
        path.write_text("point_index,observed,predicted,residual\n0,1.0,1.5,0.5\n"
                        + ",".join(fields) + "\n")
        with pytest.raises(FormatError, match=f"line 3, column {column}: non-finite value"):
            read_error_report(path)

    @pytest.mark.parametrize("index", ["1.5", "x", "1.0"])
    def test_error_report_bad_index_reports_position(self, tmp_path, index):
        path = tmp_path / "report.csv"
        path.write_text(f"point_index,observed,predicted,residual\n{index},1.0,1.5,0.5\n")
        with pytest.raises(FormatError, match="line 2, column 1: "):
            read_error_report(path)

    @pytest.mark.parametrize("index", [
        " 7 ", "+3", "-2", "007", "1_0", "1234567890123456789012345", "1.0", "1e3",
    ])
    def test_index_parses_as_int_does(self, tmp_path, index):
        path = tmp_path / "report.csv"
        path.write_text("point_index,observed,predicted,residual\n"
                        f"0,1.0,1.5,0.5\n{index},2.0,2.5,0.5\n")
        try:
            want = int(index)
        except ValueError:
            want = None
        # the index column is int64, so an index beyond it is an error too
        if want is None or not -2**63 <= want < 2**63:
            with pytest.raises(FormatError, match="line 3, column 1: point index") as err:
                read_error_report(path)
            assert (err.value.line, err.value.column) == (3, 1)
        else:
            got = read_error_report(path).index
            assert got.dtype == np.int64 and got[1] == want

    @pytest.mark.parametrize("body", [
        "0,1.0,1.5,0.5\n3, 2.0 ,2.5,0.5\n",
        "0,1.0,1.5,0.5\n1,2.0,oops,0.5\n",
        "0,1.0,1.5,0.5\n1.5,2.0,2.5,0.5\n",
        "0,1.0,1.5,0.5\n1,2.0,inf,0.5\n",
        "0,1.0\n",
        "",
        # a ragged pair with the token count of two good rows
        "0,1.0,1.5,0.5,9\n1,2.0,2.5\n",
        "0,1.0,1.5,0.5\n# note: x\n\n 1 , 2.0 , 2.5 , 0.5 \n",
        "0,1.0,1.5,0.5\n1e3,2.0,2.5,0.5\n",
    ])
    def test_bulk_and_row_by_row_parses_agree(self, body, tmp_path, monkeypatch):
        path = tmp_path / "report.csv"
        path.write_text("# n_nodata: 2\npoint_index,observed,predicted,residual\n" + body)

        def read():
            report = read_error_report(path)
            columns = (report.index, report.observed, report.predicted, report.residual)
            return [c.tolist() for c in columns], report.mae, report.rmse, report.n_nodata

        bulk, row_by_row = parsed_both_ways(read, monkeypatch)
        assert row_by_row == bulk

    def seeded_report(self, n, seed):
        rng = np.random.default_rng(seed)
        obs = rng.normal(20.0, 5.0, n) * 10.0 ** rng.integers(-3, 9, n)
        pred = obs + rng.normal(0.0, 1.0, n)
        pred[::7] = obs[::7]
        index = np.sort(rng.choice(10 * n, n, replace=False))
        return ErrorReport(index, obs, pred, pred - obs, int(seed))

    @pytest.mark.parametrize("n, seed", [(1, 0), (2, 1), (1790, 2)])
    def test_write_read_write_is_byte_identical(self, tmp_path, n, seed):
        first, second = tmp_path / "a.csv", tmp_path / "b.csv"
        write_error_report(self.seeded_report(n, seed), first, metadata={"method": "ipdw"})
        write_error_report(read_error_report(first), second, metadata={"method": "ipdw"})
        assert first.read_bytes() == second.read_bytes()

    @given(
        rows=st.lists(st.tuples(st.integers(-2**63, 2**63 - 1),
                                *[st.floats(-1e100, 1e100, allow_nan=False)] * 3),
                      min_size=1, max_size=30),
        n_nodata=st.integers(0, 10**6),
    )
    def test_written_summaries_are_those_of_the_rows(self, rows, n_nodata, tmp_path_factory):
        first = tmp_path_factory.mktemp("report") / "a.csv"
        second = first.with_name("b.csv")
        write_error_report(ErrorReport(*zip(*rows), n_nodata), first)
        back = read_error_report(first)
        meta = dict(line[2:].split(": ", 1) for line in first.read_text().splitlines()
                    if line.startswith("# "))
        assert (meta["mae"], meta["rmse"], meta["n_evaluated"]) == (
            repr(back.mae), repr(back.rmse), str(back.n_evaluated))
        write_error_report(back, second)
        assert first.read_bytes() == second.read_bytes()

    @given(
        rows=st.lists(st.tuples(st.integers(-2**63, 2**63 - 1),
                                *[st.floats(-1e100, 1e100, allow_nan=False)] * 3),
                      max_size=30),
        at=st.tuples(st.integers(0, 29), st.integers(1, 3)),
        bad=st.sampled_from([np.inf, -np.inf, np.nan]),
    )
    def test_reports_that_cannot_be_read_back_cannot_be_built(self, rows, at, bad):
        # no rows, or one row with an inf or nan, would write a file the reader rejects
        columns = [list(c) for c in zip(*rows)] or [[], [], [], []]
        if rows:
            columns[at[1]][at[0] % len(rows)] = bad
        with pytest.raises(ValueError):
            ErrorReport(*columns, 0)

    def test_metadata_below_the_header_is_not_read(self, tmp_path):
        path = tmp_path / "report.csv"
        path.write_text("# n_nodata: 0\npoint_index,observed,predicted,residual\n"
                        "0,1.0,1.5,0.5\n# n_nodata: 7\n1,2.0,2.5,0.5\n")
        report = read_error_report(path)
        assert report.n_nodata == 0
        assert report.index.tolist() == [0, 1]

    @pytest.mark.parametrize("row, line, column", [
        ("17,1.0x,2.0,1.0", 3 + 40, 2),     # a bad observed value
        ("1.5,1.0,2.0,1.0", 3 + 40, 1),     # an index that is not an integer
        ("17,1.0,2.0", 3 + 40, None),       # a short row
        ("# note\n17,1.0,oops,1.0", 4 + 40, 3),  # a comment among the rows, then a bad value
    ])
    def test_bulk_parse_places_errors_as_the_row_walk_does(self, tmp_path, monkeypatch,
                                                            row, line, column):
        good = "".join(f"{i},{i}.5,{i}.25,-0.25\n" for i in range(40))
        path = tmp_path / "report.csv"
        path.write_text(f"# n_nodata: 0\npoint_index,observed,predicted,residual\n"
                        f"{good}{row}\n{good}")

        def place():
            with pytest.raises(FormatError) as err:
                read_error_report(path)
            return str(err.value), err.value.line, err.value.column

        bulk = place()
        with monkeypatch.context() as patch:
            patch.setattr(pathidw.fileio, "np", _NoBulkParse())
            walked = place()
        assert bulk == walked
        assert bulk[1:] == (line, column)

    def test_paired_test_layout(self, tmp_path):
        result = wilcoxon_signed_rank([1.0, 2.0, 3.0], [0.0, 0.0, 0.0])
        path = tmp_path / "test.csv"
        write_paired_test(result, path)
        lines = path.read_text().splitlines()
        assert "# report: wilcoxon-signed-rank" in lines
        assert "# statistic_convention: W = sum of signed ranks (W+ minus W-)" in lines
        assert lines[-2] == "statistic,p_value,n_pairs,n_zero_diffs,method"
        assert lines[-1] == "6.0,0.25,3,0,exact"

    def test_scalogram_layout(self, tmp_path):
        s = Scalogram(((50.0, 10.0), (60.0, 9.5)))
        path = tmp_path / "scalo.csv"
        write_scalogram(s, path)
        lines = path.read_text().splitlines()
        assert "# report: scalogram" in lines
        assert "# metric: edge_density_m_per_ha" in lines
        assert lines[-3] == "cellsize,edge_density_m_per_ha"
        assert lines[-2] == "50,10.0"
        assert lines[-1] == "60,9.5"

    def test_writers_are_deterministic(self, tmp_path):
        report = self.make_report()
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        write_error_report(report, p1)
        write_error_report(report, p2)
        assert p1.read_bytes() == p2.read_bytes()


# (file body with the token in its second data row, that token's line and column)
LATER_ROW = {
    "points": (read_points, "x,y,value\n1,2,3\n4,{},6\n", 3, 2),
    "grid": (read_ascii_grid, "ncols 2\nnrows 2\nxllcorner 0\nyllcorner 0\ncellsize 10\n"
                              "NODATA_value -1\n1 2\n3 {}\n", 8, 2),
    "polygons": (read_polygons, "0 0\n10 0\n10 {}\n0 0\nEND\n", 3, 2),
    "report": (read_error_report, "point_index,observed,predicted,residual\n"
                                  "0,1.0,1.5,0.5\n1,2.0,{},0.5\n", 3, 3),
}


@pytest.mark.parametrize("fmt", sorted(LATER_ROW))
@pytest.mark.parametrize("token, message", [
    ("oops", "not a number: 'oops'"),
    ("1e400", "non-finite value '1e400'"),
])
def test_bad_number_in_a_later_row_reports_line_and_column(tmp_path, fmt, token, message):
    read, body, line, column = LATER_ROW[fmt]
    path = tmp_path / "input"
    path.write_text(body.format(token))
    with pytest.raises(FormatError, match=f"line {line}, column {column}: {message}") as err:
        read(path)
    assert (err.value.line, err.value.column) == (line, column)
