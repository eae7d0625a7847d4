"""Command-line pipeline around the library.

Subcommands cover the full workflow: ``synth`` fabricates a test scene,
``costraster`` burns polygons into a cost surface, ``split`` thins a survey
into train/validation sets, ``interpolate`` produces a prediction raster
with either method, ``crossval`` scores it, ``compare`` runs the paired test
across surveys, and ``scalogram`` supports grain selection.

Every command is a pure function of its flags: rerunning with the same
arguments writes byte-identical files. Data goes to files only; stderr
carries diagnostics. Exit status is 0 on success, 1 on input errors, 2 on
internal consistency failures.
"""

from __future__ import annotations

import argparse
import functools
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .costsurface import (DEFAULT_LAND_COST, DEFAULT_WATER_COST, CostSurface,
                          rasterize_land)
from .errors import ConsistencyError, InputError
from .fileio import (read_ascii_grid, read_error_report, read_points,
                     read_polygons, write_ascii_grid, write_csv_table,
                     write_error_report, write_paired_test, write_points,
                     write_polygons, write_scalogram)
from .interpolate import InterpConfig, interpolate_idw, interpolate_ipdw
from .metrics import knee_candidate, scalogram
from .pathdist import DEFAULT_SNAP_RADIUS
from .raster import DEFAULT_NODATA, GridGeometry
from .scenes import SCENE_KINDS, make_scene
from .validation import cross_validate, grid_split, range_vs_error, \
    wilcoxon_signed_rank

_DEFAULT_CONFIG = InterpConfig()
_VERSION_TEXT = (
    f"pathidw {__version__}\n"
    f"defaults: power={_DEFAULT_CONFIG.power} neighbors={_DEFAULT_CONFIG.n_nearest} "
    f"water-cost={DEFAULT_WATER_COST:g} land-cost={DEFAULT_LAND_COST:g} "
    f"snap-radius={DEFAULT_SNAP_RADIUS} nodata={DEFAULT_NODATA:g}"
)


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    if args.command is None:
        parser.print_usage(sys.stderr)
        return 1
    try:
        # each subcommand NAME runs _cmd_NAME, looked up at call time
        return globals()[f"_cmd_{args.command}"](args)
    except (InputError, ValueError, OSError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    except ConsistencyError as err:
        print(f"internal consistency failure: {err}", file=sys.stderr)
        return 2


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pathidw",
        description="Interpolate water measurements along in-water path distances.")
    parser.add_argument("--version", action="version", version=_VERSION_TEXT)
    sub = parser.add_subparsers(dest="command")

    p = sub.add_parser("costraster", help="burn land polygons into a cost raster")
    p.add_argument("--polygons", required=True, help="polygon text file")
    p.add_argument("--extent", required=True, help="xmin,ymin,xmax,ymax in meters")
    p.add_argument("--cellsize", type=float, required=True)
    p.add_argument("--water-cost", type=float, default=DEFAULT_WATER_COST)
    p.add_argument("--land-cost", type=float, default=DEFAULT_LAND_COST)
    p.add_argument("--out", required=True, help="output ASCII grid")

    p = sub.add_parser("scalogram", help="edge density across cellsizes")
    p.add_argument("--polygons", required=True)
    p.add_argument("--extent", required=True, help="xmin,ymin,xmax,ymax in meters")
    p.add_argument("--cellsizes", required=True,
                   help="range start..stop:step (inclusive) or comma list")
    p.add_argument("--out", required=True, help="output CSV")

    p = sub.add_parser("split", help="grid-stratified train/validation split")
    p.add_argument("--points", required=True, help="survey CSV")
    p.add_argument("--mesh-cellsize", type=float, required=True)
    p.add_argument("--per-cell", type=int, default=1)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--train-out", default="train.csv")
    p.add_argument("--valid-out", default="valid.csv")

    p = sub.add_parser("interpolate", help="predict a raster from training points")
    p.add_argument("--method", choices=("ipdw", "idw"), required=True)
    p.add_argument("--train", required=True, help="training CSV")
    p.add_argument("--cost", required=True, help="cost raster (ASCII grid)")
    p.add_argument("--power", type=float, default=_DEFAULT_CONFIG.power)
    p.add_argument("--neighbors", type=int, default=_DEFAULT_CONFIG.n_nearest)
    p.add_argument("--out", required=True, help="output ASCII grid")

    p = sub.add_parser("crossval", help="score a prediction against held-out points")
    p.add_argument("--pred", required=True, help="prediction raster (ASCII grid)")
    p.add_argument("--valid", required=True, help="validation CSV")
    p.add_argument("--out", required=True, help="output CSV")

    p = sub.add_parser("compare", help="paired test between two report sets")
    p.add_argument("--reports-a", nargs="+", required=True,
                   help="cross-validation CSVs for method A, one per survey")
    p.add_argument("--reports-b", nargs="+", required=True,
                   help="cross-validation CSVs for method B, paired with A")
    p.add_argument("--out-test", required=True, help="paired test CSV")
    p.add_argument("--out-table", required=True, help="range-vs-error CSV")

    p = sub.add_parser("synth", help="generate a synthetic scene")
    p.add_argument("--scene", choices=SCENE_KINDS, required=True)
    p.add_argument("--step", type=float, default=10.0,
                   help="truth value range across the scene")
    p.add_argument("--noise", type=float, default=0.5,
                   help="track noise standard deviation in value units")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--ncols", type=int, default=100)
    p.add_argument("--nrows", type=int, default=100)
    p.add_argument("--cellsize", type=float, default=60.0)
    p.add_argument("--out-dir", required=True,
                   help="directory for polygons.txt, truth.asc, track.csv")

    return parser


def _parse_extent(text: str) -> tuple[float, float, float, float]:
    parts = text.split(",")
    if len(parts) != 4:
        raise InputError(f"--extent wants xmin,ymin,xmax,ymax, got {text!r}")
    try:
        xmin, ymin, xmax, ymax = (float(p) for p in parts)
    except ValueError:
        raise InputError(f"--extent has a non-numeric part: {text!r}") from None
    if not (xmax > xmin and ymax > ymin):
        raise InputError(f"--extent must satisfy xmax > xmin and ymax > ymin: {text!r}")
    return xmin, ymin, xmax, ymax


def _extent_geometry(extent: str, cellsize: float) -> GridGeometry:
    """Grid anchored at the extent's lower-left, covering at least the extent."""
    xmin, ymin, xmax, ymax = _parse_extent(extent)
    if cellsize <= 0:
        raise InputError(f"cellsize must be positive, got {cellsize}")
    return GridGeometry.covering(xmin, ymin, xmax - xmin, ymax - ymin, cellsize)


def _parse_cellsizes(text: str) -> list[float]:
    if ".." in text:
        head, _, step_text = text.partition(":")
        start_text, _, stop_text = head.partition("..")
        try:
            start, stop = float(start_text), float(stop_text)
            step = float(step_text) if step_text else 1.0
        except ValueError:
            raise InputError(f"bad --cellsizes range {text!r}") from None
        if step <= 0 or stop < start:
            raise InputError(f"bad --cellsizes range {text!r}")
        sizes = []
        value = start
        while value <= stop + 1e-9:
            sizes.append(round(value, 9))
            value += step
        return sizes
    try:
        return [float(p) for p in text.split(",")]
    except ValueError:
        raise InputError(f"bad --cellsizes list {text!r}") from None


def _note(message: str):
    print(message, file=sys.stderr)


def _cmd_costraster(args) -> int:
    polygons = read_polygons(args.polygons)
    geom = _extent_geometry(args.extent, args.cellsize)
    cost = rasterize_land(polygons, geom, water_cost=args.water_cost,
                          land_cost=args.land_cost)
    write_ascii_grid(cost.raster, args.out)
    _note(f"wrote {args.out} ({geom.nrows}x{geom.ncols} cells)")
    return 0


def _cmd_scalogram(args) -> int:
    polygons = read_polygons(args.polygons)
    sizes = _parse_cellsizes(args.cellsizes)
    geom = _extent_geometry(args.extent, min(sizes))
    result = scalogram(polygons, geom, sizes)
    knee = knee_candidate(result)
    meta = {
        "command": "scalogram",
        "polygons": args.polygons,
        "extent": args.extent,
        "cellsizes": args.cellsizes,
    }
    if knee is not None:
        meta["knee_candidate_cellsize"] = f"{knee.cellsize:g}"
        meta["knee_score"] = repr(knee.score)
        if not knee.pronounced:
            meta["knee_note"] = "score 0: no pronounced slope break"
    meta["grain_choice"] = "advisory only; pick the final grain by inspecting the rows"
    write_scalogram(result, args.out, metadata=meta)
    _note(f"wrote {args.out} ({len(result.rows)} rows)")
    return 0


def _read_points(path):
    points, skipped = read_points(path)
    if skipped:
        _note(f"skipped {skipped} NA row(s) in {path}")
    return points


def _cmd_split(args) -> int:
    points = _read_points(args.points)
    result = grid_split(points, args.mesh_cellsize, args.per_cell, args.seed)
    meta = {
        "command": "split",
        "points": args.points,
        "mesh_cellsize": f"{args.mesh_cellsize:g}",
        "per_cell": args.per_cell,
        "seed": args.seed,
    }
    write_points(result.training, args.train_out,
                 metadata={**meta, "role": "training"})
    write_points(result.validation, args.valid_out,
                 metadata={**meta, "role": "validation"})
    _note(f"wrote {args.train_out} ({len(result.training)} points) and "
          f"{args.valid_out} ({len(result.validation)} points)")
    return 0


def _load_cost_surface(path) -> CostSurface:
    """Rebuild a CostSurface from a written cost raster.

    The two class costs are recovered from the distinct data values (low is
    water). A single-valued raster is treated as all water.
    """
    raster = read_ascii_grid(path)
    distinct = np.unique(raster.values[~raster.is_nodata])
    if len(distinct) == 2:
        return CostSurface(raster, float(distinct[0]), float(distinct[1]))
    if len(distinct) == 1:
        water = float(distinct[0])
        return CostSurface(raster, water, water * 10000.0)
    raise InputError(
        f"{path}: expected a two-valued cost raster, found {len(distinct)} distinct values")


def _cmd_interpolate(args) -> int:
    points = _read_points(args.train)
    cost = _load_cost_surface(args.cost)
    config = InterpConfig(power=args.power, n_nearest=args.neighbors)
    if args.method == "ipdw":
        pred = interpolate_ipdw(points, cost, config)
    else:
        pred = interpolate_idw(points, cost.geometry, config, mask=cost)
    write_ascii_grid(pred, args.out)
    _note(f"wrote {args.out} ({args.method}, {len(points)} training points)")
    return 0


def _cmd_crossval(args) -> int:
    pred = read_ascii_grid(args.pred)
    valid = _read_points(args.valid)
    report = cross_validate(pred, valid)
    meta = {"command": "crossval", "pred": args.pred, "valid": args.valid}
    write_error_report(report, args.out, metadata=meta)
    _note(f"wrote {args.out} (mae={report.mae:.6g} rmse={report.rmse:.6g} "
          f"n={report.n_evaluated} nodata={report.n_nodata})")
    return 0


def _mae_and_range(path) -> tuple[float, float]:
    """One report's MAE and observed value range; the report is freed on return."""
    report = read_error_report(path)
    return report.mae, report.observed_range()


def _cmd_compare(args) -> int:
    if len(args.reports_a) != len(args.reports_b):
        raise InputError("--reports-a and --reports-b must pair up one-to-one")
    # one report in memory at a time: each is reduced to its summary as it is read
    maes_a, ranges = zip(*[_mae_and_range(p) for p in args.reports_a])
    maes_b = [read_error_report(p).mae for p in args.reports_b]
    test = wilcoxon_signed_rank(maes_a, maes_b)
    meta = {
        "command": "compare",
        "n_surveys": len(maes_a),
        "pairing": "per-survey MAE, A minus B",
    }
    write_paired_test(test, args.out_test, metadata=meta)

    table_a = range_vs_error(zip(ranges, maes_a))
    table_b = range_vs_error(zip(ranges, maes_b))
    table_meta = {
        "command": "compare",
        "range_source": "observed values of the A-side reports",
        "rank_correlation_a": repr(table_a.rank_correlation),
        "rank_correlation_b": repr(table_b.rank_correlation),
    }
    rows = (f"{i},{rng!r},{mae_a!r},{mae_b!r}"
            for i, (rng, mae_a, mae_b) in enumerate(zip(ranges, maes_a, maes_b)))
    write_csv_table(args.out_table, table_meta, "survey,range,mae_a,mae_b", rows)
    _note(f"wrote {args.out_test} (p={test.p_value:.6g}, {test.method}) "
          f"and {args.out_table}")
    return 0


def _cmd_synth(args) -> int:
    scene = make_scene(args.scene, ncols=args.ncols, nrows=args.nrows,
                       cellsize=args.cellsize, step=args.step,
                       noise_sd=args.noise, seed=args.seed)
    out = Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    meta = {
        "command": "synth",
        "scene": args.scene,
        "step": f"{args.step:g}",
        "noise": f"{args.noise:g}",
        "seed": args.seed,
        "ncols": args.ncols,
        "nrows": args.nrows,
        "cellsize": f"{args.cellsize:g}",
    }
    write_polygons(scene.polygons, out / "polygons.txt", metadata=meta)
    write_ascii_grid(scene.truth, out / "truth.asc")
    write_points(scene.track, out / "track.csv", metadata=meta)
    _note(f"wrote {out}/polygons.txt, truth.asc, track.csv "
          f"({len(scene.track)} track points)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
