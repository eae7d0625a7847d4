"""One benchmark process: set up one workload, run its timed ops, check them.

Started by ``run.py``; not meant to be run by hand. ``--mode setup`` stops
at the point where the first timed op would start, so the parent can time
set-up several times. The result goes to ``--out`` as JSON.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
# the library is taken from the checkout's source tree and nowhere else
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import spans  # noqa: E402

# a run that has not reached its minimum op count stops timing here anyway
MAX_TIMED_S = 120.0


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--mode", choices=("setup", "run"), required=True)
    parser.add_argument("--t0", type=float, required=True,
                        help="time.monotonic() of the parent just before this process started")
    parser.add_argument("--out", required=True)
    parser.add_argument("--trace-out")
    args = parser.parse_args()

    import numpy
    import scipy
    import pathidw
    src = (ROOT / "src").resolve()
    if src not in Path(pathidw.__file__).resolve().parents:
        raise SystemExit(f"pathidw was imported from {pathidw.__file__}, not from {src}")
    import workloads

    workload = workloads.WORKLOADS[args.workload]()
    tracer = None
    if args.trace:
        tracer = spans.Tracer()
        spans.install(tracer)
        tracer.phase = spans.SETUP

    work = ROOT / ".perfbench_out" / f"work-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        workload.setup(args.seed, work)
        result = {"setup_s": time.monotonic() - args.t0}
        if tracer:
            tracer.phase = None
        if args.mode == "run":
            result.update(_timed_run(workload, args.seconds, tracer))
            result["versions"] = {"python": sys.version.split()[0],
                                  "numpy": numpy.__version__, "scipy": scipy.__version__,
                                  "pathidw": pathidw.__version__}
            if tracer:
                result["layers"] = spans.layer_metrics(tracer, len(result["op_s"]))
                result["layer_table"] = spans.layer_table(tracer, len(result["op_s"]))
                result["missing"] = tracer.missing
                if args.trace_out:
                    Path(args.trace_out).write_text(json.dumps(
                        {"workload": args.workload, "seed": args.seed,
                         "spans": tracer.dump(),
                         "counts": [[str(p), n, c] for (p, n), c in tracer.counts.items()]}))
    finally:
        shutil.rmtree(work, ignore_errors=True)
    Path(args.out).write_text(json.dumps(result))
    return 0


def _timed_run(workload, seconds: float, tracer) -> dict:
    outputs, op_s, errors = [], [], []
    start = time.perf_counter()
    i = 0
    while i < workload.min_ops or time.perf_counter() - start < seconds:
        if time.perf_counter() - start > MAX_TIMED_S:
            break
        if tracer:
            tracer.phase = i
        t = time.perf_counter()
        try:
            out = workload.op(i)
        except Exception:
            out = None
            errors.append(traceback.format_exc())
        op_s.append(time.perf_counter() - t)
        outputs.append(out)
        i += 1
    closing = None
    has_close = workload.has_close
    if has_close:
        if tracer:
            tracer.phase = spans.CLOSE
        try:
            closing = workload.close(outputs)
        except Exception:
            errors.append(traceback.format_exc())
    timed_wall = time.perf_counter() - start
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    if tracer:
        tracer.phase = None

    checked = workload.check(outputs, closing)
    check_s = time.perf_counter() - start - timed_wall
    failed_ops = [i for i, p in enumerate(checked.problems) if p]
    failed = len(failed_ops) + (1 if has_close and (closing is None or checked.close_problems) else 0)
    problems = [f"op {i}: {p}" for i in failed_ops[:5] for p in checked.problems[i][:3]]
    problems += [f"close: {p}" for p in checked.close_problems]
    if not checked.self_test:
        problems.append("self-test: a perturbed prediction was not caught")
    for err in errors[:3]:
        print(err, file=sys.stderr)
    return {"op_s": op_s, "timed_wall": timed_wall, "peak_rss_mb": peak_rss_mb,
            "check_s": check_s,
            "attempted": len(outputs) + (1 if has_close else 0), "failed": failed,
            "correct": failed == 0 and checked.self_test, "problems": problems,
            "cv_mae": checked.cv_mae, "digests": checked.digests, "notes": checked.notes}


if __name__ == "__main__":
    sys.exit(main())
