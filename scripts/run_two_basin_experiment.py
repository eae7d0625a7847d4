"""Run the walled two-basin benchmark end to end through the CLI.

Each seed gets its own survey over a pair of basins separated by a land
wall. The script splits the survey, interpolates with the in-water path
method and the straight-line method, scores both on the held-out points,
and finishes with a paired signed-rank comparison across all seeds.

Artifacts land under --out-dir, one scene_NNN directory per seed plus the
comparison CSVs.

Example:
    python3 scripts/run_two_basin_experiment.py --out-dir runs/two_basin --scenes 20
"""

import argparse
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from pathidw import wilcoxon_signed_rank
from pathidw.cli import main as pathidw
from pathidw.fileio import read_error_report

SCENE_CELLS = 100
CELLSIZE = 60.0
MESH_CELLSIZE = 1095.4


def cli(*args):
    argv = [str(a) for a in args]
    rc = pathidw(argv)
    if rc != 0:
        raise SystemExit(f"pathidw {argv[0]} exited with {rc}")


def run_scene(scene_dir: Path, seed: int, step: float, noise: float):
    """Drive one survey from synthesis to both cross-validation reports."""
    scene_dir.mkdir(parents=True, exist_ok=True)
    cli("synth", "--scene", "two-basin", "--step", step, "--noise", noise,
        "--seed", seed, "--out-dir", scene_dir)
    extent = f"0,0,{SCENE_CELLS * CELLSIZE:g},{SCENE_CELLS * CELLSIZE:g}"
    cli("costraster", "--polygons", scene_dir / "polygons.txt",
        "--extent", extent, "--cellsize", CELLSIZE, "--out", scene_dir / "cost.asc")
    cli("split", "--points", scene_dir / "track.csv",
        "--mesh-cellsize", MESH_CELLSIZE, "--per-cell", 1, "--seed", seed,
        "--train-out", scene_dir / "train.csv",
        "--valid-out", scene_dir / "valid.csv")
    for method in ("ipdw", "idw"):
        cli("interpolate", "--method", method, "--train", scene_dir / "train.csv",
            "--cost", scene_dir / "cost.asc", "--out", scene_dir / f"pred_{method}.asc")
        cli("crossval", "--pred", scene_dir / f"pred_{method}.asc",
            "--valid", scene_dir / "valid.csv",
            "--out", scene_dir / f"report_{method}.csv")


def parse_args():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--out-dir", type=Path, required=True)
    ap.add_argument("--scenes", type=int, default=20,
                    help="number of seeded scenes (seeds 0..N-1)")
    ap.add_argument("--step", type=float, default=10.0,
                    help="value offset between the two basins")
    ap.add_argument("--noise", type=float, default=0.5,
                    help="survey noise standard deviation")
    return ap.parse_args()


def main():
    args = parse_args()
    started = time.perf_counter()
    rows = []
    for seed in range(args.scenes):
        scene_dir = args.out_dir / f"scene_{seed:03d}"
        run_scene(scene_dir, seed, args.step, args.noise)
        mae_ipdw = read_error_report(scene_dir / "report_ipdw.csv").mae
        mae_idw = read_error_report(scene_dir / "report_idw.csv").mae
        rows.append((seed, mae_ipdw, mae_idw))
        print(f"scene {seed:03d}  mae ipdw {mae_ipdw:.4f}  idw {mae_idw:.4f}")

    # reports-a holds the straight-line runs, so a positive statistic means
    # the routed method had the smaller errors
    cli("compare",
        "--reports-a", *(args.out_dir / f"scene_{s:03d}" / "report_idw.csv"
                         for s, _, _ in rows),
        "--reports-b", *(args.out_dir / f"scene_{s:03d}" / "report_ipdw.csv"
                         for s, _, _ in rows),
        "--out-test", args.out_dir / "compare_test.csv",
        "--out-table", args.out_dir / "compare_table.csv")

    wins = sum(mi < me for _, mi, me in rows)
    test = wilcoxon_signed_rank([me for _, _, me in rows],
                                [mi for _, mi, _ in rows])
    elapsed = time.perf_counter() - started
    print(f"\nin-water routing wins {wins}/{len(rows)} scenes")
    print(f"paired signed-rank: W={test.statistic:g} p={test.p_value:.3g} "
          f"({test.method}, {test.n_pairs} pairs)")
    print(f"artifacts in {args.out_dir}  ({elapsed:.1f} s)")


if __name__ == "__main__":
    main()
