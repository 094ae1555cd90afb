"""Run one workload once per seed and report each metric's run-to-run spread.

    python3 bench/spread.py --workload grid_plan --seeds 1-10 [--trace 0]

Each run is `bench/run.py` in a fresh process, one after the other, with the
run length from BENCHMARK.json.  For every metric it prints the median, the
quartiles (`statistics.quantiles(values, n=4)`) and the spread, the
quartile distance as a share of the median, next to the metric's bound.
The raw result lines go to `.bench_results/<workload>-trace<t>.jsonl`.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _seeds(text: str) -> list:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seeds", default="1-10", help="an inclusive range, like 1-10")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"] + spec["per_layer"]}
    out_dir = ROOT / ".bench_results"
    out_dir.mkdir(exist_ok=True)
    results = []
    with open(out_dir / f"{args.workload}-trace{args.trace}.jsonl", "w") as log:
        for seed in _seeds(args.seeds):
            cmd = [sys.executable, str(ROOT / "bench" / "run.py"), "--workload",
                   args.workload, "--seed", str(seed), "--seconds",
                   str(spec["run_seconds"]), "--trace", str(args.trace)]
            done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                                  timeout=600, check=True)
            result = json.loads(done.stdout.strip().splitlines()[-1])
            result["seed"] = seed
            log.write(json.dumps(result) + "\n")
            log.flush()
            results.append(result)
            print(f"seed {seed}: correct={result['correct']} "
                  f"failed={result['failed']}/{result['attempted']}", flush=True)

    shares = sorted({r["failed"] / r["attempted"] for r in results})
    print(f"failed shares: {shares}; all correct: {all(r['correct'] for r in results)}")
    print(f"{'metric':<34} {'median':>12} {'q1':>12} {'q3':>12} {'spread':>8} {'bound':>6}")
    for name in results[0]["metrics"]:
        vals = [r["metrics"][name]["value"] for r in results]
        med = statistics.median(vals)
        q1, _q2, q3 = statistics.quantiles(vals, n=4) if len(vals) > 1 else (med, med, med)
        spread = (q3 - q1) / med if med else float("nan")
        bound = bounds.get(name)
        print(f"{name:<34} {med:>12.6g} {q1:>12.6g} {q3:>12.6g} {spread:>8.3f} "
              f"{'' if bound is None else bound:>6}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
