"""Run alternating benchmark pairs on two checkouts and apply the gain rule.

    python3 tools/pairs.py --parent DIR --change DIR --workload W [--pairs 10] [--instance-seed N]

Each pair runs `bench/run.py` once in the parent checkout and once in the
change's, each from its own directory in a fresh process, with the run
length from the change's BENCHMARK.json and the pair's number as the run
seed.  The side that runs first alternates from pair to pair.  For every
end-to-end metric it prints each side's median and quartiles
(`statistics.quantiles(values, n=4)`), the pairs the change won (ties count
for neither side) and whether the gain rule holds: the change wins at
least nine tenths of the pairs, and its median beats the parent's by more
than the distance between the parent's quartiles.  The verdict is printed,
not exited on: the exit status is 1 when any run is incorrect or the two
sides fail different shares of their operations, and 0 otherwise.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path
from typing import NamedTuple


class Verdict(NamedTuple):
    wins: int          # pairs the change won
    gap: float         # parent median minus change median, positive when better
    iqr: float         # the parent's quartile distance
    holds: bool


def gain_rule(parent: list, change: list, better: str = "lower") -> Verdict:
    """The gain rule over paired samples of one metric, pair i being
    (parent[i], change[i])."""
    sign = 1.0 if better == "lower" else -1.0
    wins = sum(sign * (p - c) > 0 for p, c in zip(parent, change, strict=True))
    q1, _, q3 = statistics.quantiles(parent, n=4)
    gap = sign * (statistics.median(parent) - statistics.median(change))
    return Verdict(wins, gap, q3 - q1, wins >= 0.9 * len(parent) and gap > q3 - q1)


def run(checkout: Path, args, seed: int, seconds: float) -> dict:
    cmd = [sys.executable, str(checkout / "bench" / "run.py"), "--workload", args.workload,
           "--seed", str(seed), "--seconds", str(seconds)]
    if args.instance_seed is not None:
        cmd += ["--instance-seed", str(args.instance_seed)]
    done = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True, timeout=900,
                          check=True)
    return json.loads(done.stdout.strip().splitlines()[-1])


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--parent", type=Path, required=True)
    p.add_argument("--change", type=Path, required=True)
    p.add_argument("--workload", required=True)
    p.add_argument("--pairs", type=int, default=10)
    p.add_argument("--instance-seed", type=int, default=None)
    args = p.parse_args(argv)

    spec = json.loads((args.change / "BENCHMARK.json").read_text())
    sides = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    results = {side: [] for side in sides}
    for i in range(1, args.pairs + 1):
        for side in (("parent", "change") if i % 2 else ("change", "parent")):
            result = run(sides[side], args, i, spec["run_seconds"])
            results[side].append(result)
            values = {k: round(m["value"], 6) for k, m in result["metrics"].items()}
            print(f"pair {i} {side}: correct={result['correct']} "
                  f"failed={result['failed']}/{result['attempted']} {values}", flush=True)

    print(f"{'metric':<12} {'side':<7} {'median':>9} {'q1':>9} {'q3':>9}   verdict")
    for metric in spec["end_to_end"]:
        name = metric["name"]
        vals = {side: [r["metrics"][name]["value"] for r in results[side]] for side in sides}
        v = gain_rule(vals["parent"], vals["change"], metric["better"])
        for side in sides:
            q1, med, q3 = statistics.quantiles(vals[side], n=4)
            note = (f"change won {v.wins}/{args.pairs}, median gain {v.gap:.4g} "
                    f"{'>' if v.gap > v.iqr else '<='} parent IQR {v.iqr:.4g}: "
                    f"rule {'holds' if v.holds else 'does not hold'}") if side == "change" else ""
            print(f"{name:<12} {side:<7} {med:9.4g} {q1:9.4g} {q3:9.4g}   {note}")

    shares = {side: sum(r["failed"] for r in results[side])
              / sum(r["attempted"] for r in results[side]) for side in sides}
    correct = all(r["correct"] for side in sides for r in results[side])
    print(f"all correct: {correct}; failed shares: parent {shares['parent']:.4g}, "
          f"change {shares['change']:.4g}")
    return 0 if correct and shares["parent"] == shares["change"] else 1


if __name__ == "__main__":
    sys.exit(main())
