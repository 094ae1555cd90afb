"""Benchmark of the iabplan planner: one workload per run, one JSON line out.

    python3 bench/run.py --workload grid_plan --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout; iabplan is imported from `src/`.
With `--trace 0` the last line of standard output holds the end-to-end
metrics (`plan_s`, `setup_s`, `peak_rss_mb`), with `--trace 1` the
per-layer ones.  See bench/README.md for the workloads and the metrics.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

from tracing import Tracer

ROOT = Path(__file__).resolve().parent.parent
WORKLOAD_NAMES = ("grid_plan", "fiber_sweep", "city_assemble")
# set-up is timed this many times per run (this process plus fresh ones)
SETUP_SAMPLES = 5


def _parse(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    p.add_argument("--seed", type=int, required=True,
                   help="draws the order in which a pass runs the operations")
    p.add_argument("--seconds", type=float, default=20.0,
                   help="measure whole passes until this much time has gone by")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--instance-seed", type=int, default=None,
                   help="UE-drop, anchor and tie-break seed in place of the "
                        "workload's own (grid_plan 1, fiber_sweep 5, city_assemble 1)")
    p.add_argument("--setup-only", action="store_true",
                   help="print this process's set-up seconds and exit")
    return p.parse_args(argv)


def _setup(args, tracer):
    """Import iabplan and build the shared inputs; returns (workload, topo, links, s)."""
    t0 = time.perf_counter()
    import workloads    # imports iabplan, NumPy and SciPy

    w = workloads.WORKLOADS[args.workload]
    if args.instance_seed is not None:
        w = dataclasses.replace(w, instance_seed=args.instance_seed)
    topo, links = workloads.build(w, w.instance_seed, tracer)
    return w, topo, links, time.perf_counter() - t0


def _setup_in_fresh_process(args) -> float:
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--setup-only"]
    if args.instance_seed is not None:
        cmd += ["--instance-seed", str(args.instance_seed)]
    done = subprocess.run(cmd, capture_output=True, text=True, timeout=120, check=True)
    return float(done.stdout.split()[-1])


def main(argv=None) -> int:
    args = _parse(argv)
    if not (ROOT / "src" / "iabplan" / "__init__.py").is_file():
        print(f"error: no iabplan sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"     # single-threaded BLAS, also in fresh processes
    sys.path.insert(0, str(ROOT / "src"))

    setup_tracer = Tracer(bool(args.trace))
    w, topo, links, setup_s = _setup(args, setup_tracer)
    if args.setup_only:
        print(repr(setup_s))
        return 0
    import workloads

    samples = [setup_s] + [_setup_in_fresh_process(args)
                           for _ in range(SETUP_SAMPLES - 1)]
    m = workloads.measure(w, topo, links, args.seed, args.seconds, bool(args.trace))

    for reason in m.errors:
        print(f"failed operation: {reason}", file=sys.stderr)
    for msg in m.messages[:20]:
        print(f"check failed: {msg}", file=sys.stderr)
    if args.trace:
        metrics = workloads.layer_metrics(setup_tracer, m)
    else:
        metrics = {
            "plan_s": (statistics.fmean(m.plan_s), "s"),
            "setup_s": (statistics.median(samples), "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        }
    print(json.dumps({
        "correct": not m.messages,
        "attempted": m.attempted,
        "failed": m.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
