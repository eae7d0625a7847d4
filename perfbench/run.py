"""pathidw benchmark: end-to-end metrics per workload, or per-layer spans.

    python3 perfbench/run.py --workload ipdw-dense --seed 0 --seconds 15 --trace 0
    python3 perfbench/run.py --workload all          # every workload, one after another

Each workload runs in child processes of its own (``worker.py``). With
``--trace 0`` set-up is timed in several children and one of them runs the
timed ops, untraced. With ``--trace 1`` an untraced child and a traced child
run the same workload; the traced one gives the per-layer metrics and the
difference of their median op times is the tracing overhead. Every op's
output is checked against the benchmark's own reference.

Human-readable lines come first; the last line of standard output is one
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``.
The exit code is non-zero, with no JSON line, when the run could not finish.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

from spans import LAYER_METRICS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench_out"
WORKLOADS = ("ipdw-dense", "idw-dense", "survey-batch", "fragmented-sparse")
SETUP_RUNS = 3      # set-up is timed this many times per run; the median is reported
RUN_BUDGET_S = 170  # every child of one workload run must end within this


class RunFailed(Exception):
    pass


def _child(workload, seed, seconds, trace, mode, deadline, tag) -> dict:
    OUT.mkdir(exist_ok=True)
    out = OUT / f"child-{os.getpid()}-{tag}.json"
    out.unlink(missing_ok=True)
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace),
           "--mode", mode, "--out", str(out)]
    if trace:
        cmd += ["--trace-out", str(OUT / f"trace-{workload}-seed{seed}.json")]
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise RunFailed(f"{workload}: out of time before the {mode} child")
    cmd += ["--t0", repr(time.monotonic())]
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=remaining)
    except subprocess.TimeoutExpired:
        raise RunFailed(f"{workload}: {mode} child ran past the time budget") from None
    if proc.stderr:
        sys.stderr.write(proc.stderr)
    if proc.returncode != 0 or not out.exists():
        raise RunFailed(f"{workload}: {mode} child exited {proc.returncode}")
    result = json.loads(out.read_text())
    out.unlink()
    return result


def _machine(versions: dict) -> dict:
    cpu = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {"nproc": len(os.sched_getaffinity(0)), "cpu": cpu,
            "platform": platform.platform(), **versions}


def _end_to_end(workload, seed, seconds) -> tuple[dict, dict]:
    deadline = time.monotonic() + RUN_BUDGET_S
    setups = [_child(workload, seed, seconds, 0, "setup", deadline, f"setup{i}")["setup_s"]
              for i in range(SETUP_RUNS - 1)]
    run = _child(workload, seed, seconds, 0, "run", deadline, "run")
    setups.append(run["setup_s"])
    op_s = run["op_s"]
    metrics = {
        "op_s.p50": (statistics.median(op_s), "s"),
        "ops_per_s": (len(op_s) / run["timed_wall"], "1/s"),
        "peak_rss_mb": (run["peak_rss_mb"], "MB"),
        "cv_mae": (run["cv_mae"], "value"),
        "setup_s": (statistics.median(setups), "s"),
    }
    info = {"op count": len(op_s), "check_s": f"{run['check_s']:.3f}",
            "error_rate": run["failed"] / run["attempted"],
            "setup_s runs": ", ".join(f"{s:.3f}" for s in setups)}
    if len(op_s) >= 100:
        info["op_s.p90"] = f"{statistics.quantiles(op_s, n=10)[-1]:.6f} s (n={len(op_s)})"
    return metrics, {**run, "info": info}


def _per_layer(workload, seed, seconds) -> tuple[dict, dict]:
    deadline = time.monotonic() + RUN_BUDGET_S
    plain = _child(workload, seed, seconds, 0, "run", deadline, "plain")
    traced = _child(workload, seed, seconds, 1, "run", deadline, "traced")
    overhead = statistics.median(traced["op_s"]) - statistics.median(plain["op_s"])
    metrics = {name: (traced["layers"][name], unit)
               for name, (unit, _) in LAYER_METRICS.items()}
    metrics["trace.overhead_s"] = (overhead, "s")
    traced["attempted"] += plain["attempted"]
    traced["failed"] += plain["failed"]
    traced["correct"] = traced["correct"] and plain["correct"]
    traced["problems"] = plain["problems"] + traced["problems"]
    traced["info"] = {"op count": len(traced["op_s"]),
                      "untraced op_s.p50": f"{statistics.median(plain['op_s']):.6f} s",
                      "traced op_s.p50": f"{statistics.median(traced['op_s']):.6f} s",
                      "missing wrapped names": ", ".join(traced["missing"]) or "none"}
    return metrics, traced


def run_one(workload, seed, seconds, trace) -> dict:
    measure = _per_layer if trace else _end_to_end
    metrics, run = measure(workload, seed, seconds)
    machine = _machine(run["versions"])
    print(f"== {workload} seed={seed} seconds={seconds} trace={trace}")
    print("machine: " + ", ".join(f"{k}={v}" for k, v in machine.items()))
    for name, (value, unit) in metrics.items():
        moves = f"  moves {LAYER_METRICS[name][1]}" if name in LAYER_METRICS else ""
        print(f"  {name:36s} {value:>16.6f} {unit:8s}{moves}")
    for key, value in run["info"].items():
        print(f"  {key}: {value}")
    if trace:
        print(f"  {'phase':7s} {'layer':12s} {'calls':>7s} {'total_s':>11s} {'self_s':>11s}")
        for phase, layer, calls, total, own in run["layer_table"]:
            print(f"  {phase:7s} {layer:12s} {calls:7d} {total:11.6f} {own:11.6f}")
    for note in run["notes"]:
        print(f"  check: {note}")
    digests = [d for d in run["digests"] if d]
    if digests:
        print(f"  prediction digests: {len(set(digests))} distinct over {len(digests)} ops, "
              f"first {digests[0]}")
    for problem in run["problems"]:
        print(f"  FAILED {problem}")
    OUT.mkdir(exist_ok=True)
    record = {"workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
              "machine": machine, "metrics": {k: v[0] for k, v in metrics.items()},
              "op_s": run["op_s"], "digests": run["digests"], "problems": run["problems"]}
    (OUT / f"result-{workload}-seed{seed}-trace{trace}.json").write_text(
        json.dumps(record, indent=1))
    return {"correct": run["correct"], "attempted": run["attempted"], "failed": run["failed"],
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=15)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    try:
        results = [run_one(name, args.seed, args.seconds, args.trace) for name in names]
    except RunFailed as err:
        print(f"benchmark failed: {err}", file=sys.stderr)
        return 1
    for result in results:
        print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
