"""Sweep the basin contrast and watch both methods' errors grow with it.

Reruns the two-basin pipeline at several contrast steps with survey noise
proportional to the step (constant signal-to-noise), then prints the MAE of
the in-water path method, the straight-line method, and the gap between
them at each step. Larger contrasts mean larger errors for both methods,
with the straight-line method falling behind faster.

Example:
    python3 scripts/sweep_step_sizes.py --out-dir runs/step_sweep
"""

import argparse
import time
from pathlib import Path

# the script's own directory is on sys.path, so the experiment script imports
# as a module, and it puts src/ on the path before importing pathidw
from run_two_basin_experiment import run_scene

from pathidw.fileio import read_error_report


def run_step(step_dir: Path, seed: int, step: float, noise: float):
    run_scene(step_dir, seed, step, noise)
    return {method: read_error_report(step_dir / f"report_{method}.csv").mae
            for method in ("ipdw", "idw")}


def parse_args():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--out-dir", type=Path, required=True)
    ap.add_argument("--steps", default="5,10,20,40",
                    help="comma-separated contrast steps")
    ap.add_argument("--noise-frac", type=float, default=0.05,
                    help="survey noise as a fraction of the step")
    ap.add_argument("--seed", type=int, default=0)
    return ap.parse_args()


def main():
    args = parse_args()
    steps = [float(s) for s in args.steps.split(",") if s.strip()]
    if not steps:
        raise SystemExit("no steps given")
    started = time.perf_counter()
    print(f"{'step':>6}  {'mae ipdw':>9}  {'mae idw':>9}  {'gap':>7}")
    for step in steps:
        maes = run_step(args.out_dir / f"step_{step:g}", args.seed, step,
                        args.noise_frac * step)
        gap = maes["idw"] - maes["ipdw"]
        print(f"{step:>6g}  {maes['ipdw']:>9.4f}  {maes['idw']:>9.4f}  {gap:>7.4f}")
    elapsed = time.perf_counter() - started
    print(f"artifacts in {args.out_dir}  ({elapsed:.1f} s)")


if __name__ == "__main__":
    main()
