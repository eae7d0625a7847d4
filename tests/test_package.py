import dataclasses
import inspect
import os
import subprocess
import sys
from pathlib import Path

import pathidw
import pathidw.fileio

REMOVED = ("DistanceField", "distance_field", "fields_for_cells", "distances_to_points",
           "neighbor_table")
# (module, name): retired public functions that only tests called
RETIRED = (("interpolate", "idw_estimate"), ("interpolate", "Prediction"),
           ("pathdist", "snap_to_water"), ("costsurface", "reclassify"))


def test_every_exported_name_resolves():
    for name in pathidw.__all__:
        assert hasattr(pathidw, name), name


def test_exports_have_no_duplicates():
    assert len(pathidw.__all__) == len(set(pathidw.__all__))


def test_dense_path_api_is_gone():
    for name in REMOVED:
        assert name not in pathidw.__all__
        assert not hasattr(pathidw, name)
        assert not hasattr(pathidw.pathdist, name)


def test_test_only_api_is_gone():
    for module, name in RETIRED:
        assert name not in pathidw.__all__
        assert not hasattr(pathidw, name)
        assert not hasattr(getattr(pathidw, module), name)
    assert not hasattr(pathidw.GridGeometry, "cell_of")
    assert not hasattr(pathidw.GridGeometry, "center_of")
    assert not hasattr(pathidw.InterpConfig, "mode")
    assert not hasattr(pathidw.PointSet, "value_range")
    assert not hasattr(pathidw.PointSet, "from_records")


def test_interp_config_fields():
    assert [f.name for f in dataclasses.fields(pathidw.InterpConfig)] == [
        "power", "n_nearest", "max_distance"]


def test_retired_options_stay_gone():
    # snap_radius, nodata, xll, yll, Scalogram.metric_name, snap_points'
    # radius, write_ascii_grid's decimals and wilcoxon_signed_rank's method
    # had no caller outside tests
    def params(f):
        return list(inspect.signature(f).parameters)

    assert params(pathidw.interpolate_ipdw) == ["points", "cost", "config", "threads"]
    assert params(pathidw.interpolate_idw) == ["points", "geometry", "config", "mask"]
    assert params(pathidw.snapped_sources) == ["points", "cost"]
    assert params(pathidw.snap_points) == ["cost", "points"]
    assert params(pathidw.fileio.write_ascii_grid) == ["raster", "path"]
    assert params(pathidw.wilcoxon_signed_rank) == ["a", "b"]
    assert params(pathidw.rasterize_land) == ["polygons", "geometry", "water_cost",
                                              "land_cost"]
    assert params(pathidw.make_scene) == ["kind", "ncols", "nrows", "cellsize", "step",
                                          "noise_sd", "seed"]
    assert [f.name for f in dataclasses.fields(pathidw.Scalogram)] == ["rows"]


def test_cli_import_loads_no_scipy_stats():
    # Every CLI call is a fresh process, and scipy.stats would cost it more
    # start-up time and memory than numpy and the rest of scipy together.
    src = str(Path(pathidw.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p)}
    code = ("import sys, pathidw.cli; "
            "print(sorted(m for m in sys.modules if m.startswith('scipy.stats')))")
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True).stdout
    assert out.strip() == "[]"
