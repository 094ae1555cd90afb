"""Solve a fixed ladder of grid instances and summarize each set in one line.

    python3 tools/ladder.py [--sets small mid city] [--gms OUT.json] [--against REF.json]
                            [--expect tools/ladder_expected.json]

Run from the root of a source checkout; iabplan is imported from `src/`.
Every instance is built as `iabplan run` builds it and solved for all five
scenarios at the default solver settings.  The sets:

    small  3x6/60 UEs seeds 1, 2, 5, k=7; 2x3/30 UEs seeds 1-7, k=1..6  (225 solves)
    mid    3x6/600 UEs seeds 1-3, k=7; 4x8/1000 UEs seed 1, k=10         (20 solves)
    city   6x12/2400 UEs seeds 1-2, k=18                                  (10 solves)

Each set prints one JSON line:

    solves, certified        solves, and those that return a certified answer
    newton_steps             inner_iters + outer_iters, summed
    worst_stationarity       over the certified solves
    largest_inner_iters      the most inner Newton steps of any one solve
    lam_min                  the smallest returned multiplier
    comp_gap_over_gap_rel_max  check_kkt's comp_gap_rel over gap_rel, largest
    trace_dip_max            the largest relative dip of an objective trace
    gm_digest                the GMs, rounded to 9 significant digits
    hop_digest               the bytes of the certified IAB solves'
                             `hop_counts` reports (`hops`, `peeled_bps`,
                             `residual_rel`), in solve order
    start_digest             every start point's bytes, in solve order
    problem_digest           the bytes of every assembled problem's arrays
                             (PROBLEM_ARRAYS), in solve order
    seconds                  wall time to build, solve and count hops
    dense_side_max           the largest dense block the solver factors
                             (its resource, fiber and conservation rows)

`--gms` writes every GM to a JSON file, and `--against` adds the largest
relative GM difference from such a file (`gm_rel_diff_max`, over
`gm_compared` GMs).  `--expect` checks each printed line against the
file's line for its set, a JSON object of lines by set name: any key that
differs but `seconds` and `--against`'s two makes the run exit 1, naming
the set and the key.  `tools/ladder_expected.json` holds the lines of the
current solver; a change that moves them on purpose rewrites it from the
new printed lines and says why.  The solver's one kernel that OpenBLAS
threads, the packed factor `dpptrf`, is threaded from a block side of
about 100 and rounds alike at any thread count, so every line but
`seconds` is the same at any BLAS thread count under one BLAS build;
`seconds` of the mid and city sets depends on it.  The ladder is tooling,
not a test.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
import time
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import iabplan as ip  # noqa: E402

INTER_SITE_M = 200.0

# (rows, cols, n_ues, seed, anchor counts) per instance
SETS = {
    "small": [(3, 6, 60, seed, (7,)) for seed in (1, 2, 5)]
    + [(2, 3, 30, seed, tuple(range(1, 7))) for seed in range(1, 8)],
    "mid": [(3, 6, 600, seed, (7,)) for seed in (1, 2, 3)] + [(4, 8, 1000, 1, (10,))],
    "city": [(6, 12, 2400, seed, (18,)) for seed in (1, 2)],
}


# the arrays of an assembled problem that problem_digest hashes, in this order
PROBLEM_ARRAYS = ("anchors_y", "ul_access", "dl_access", "ul_backhaul", "dl_backhaul", "cap",
                  "m_bs", "m_ul", "R_row", "R_val", "h", "eq_ul", "ue_ids", "start")


def solves(instances):
    """Yield (label, problem, solution or None, certificate, hop report or
    None, start point) per scenario solve; the certified IAB solves carry
    their `hop_counts`."""
    for rows, cols, n_ues, seed, counts in instances:
        topo = ip.generate_grid(rows, cols, INTER_SITE_M, n_ues, seed)
        links = ip.build_link_table(ip.synthetic_gains(topo))
        for k in counts:
            anchors = ip.select_anchors(topo, k, "greedy-coverage", links=links, seed=seed)
            for v in ip.Variant:
                prob = ip.assemble(links, ip.make_scenario(v, links, anchors, seed=seed),
                                   anchors)
                label = f"{rows}x{cols}/{n_ues}/s{seed}/k{k}/{v.value}"
                start = ip.strictly_feasible_point(prob)
                try:
                    sol, cert = ip.solve(prob)
                except ip.ConvergenceError as err:
                    sol, cert = None, err.certificate
                hops = (ip.hop_counts(prob, sol, anchors)
                        if sol is not None and v.value.startswith("iab") else None)
                yield label, prob, sol, cert, hops, start


def summarize(name, instances, reference):
    # solve returns only certified answers; a failure leaves sol None
    gms = {}
    steps, worst_stat, longest, lam_min, gap_ratio, dip = 0, 0.0, 0, np.inf, 0.0, 0.0
    side = 0
    start = time.perf_counter()
    results, problem_digest = [], hashlib.sha256()
    for label, prob, *outcome in solves(instances):
        for field in PROBLEM_ARRAYS:
            problem_digest.update(getattr(prob, field).tobytes())
        # the solver's dense block spans these rows, and every solve factors it
        side = max(side, sum(prob.r_blocks[1:]))
        results.append((label, *outcome))
    seconds = time.perf_counter() - start
    start_digest, hop_digest = hashlib.sha256(), hashlib.sha256()
    for label, sol, cert, hops, start in results:
        start_digest.update(start.tobytes())
        steps += cert.inner_iters + cert.outer_iters
        longest = max(longest, cert.inner_iters)
        trace = np.asarray(cert.objective_trace)
        if trace.size > 1:
            dip = max(dip, float(np.max(-np.diff(trace) / np.abs(trace[:-1]))))
        if sol is None:
            continue
        worst_stat = max(worst_stat, cert.kkt.stationarity)
        lam_min = min(lam_min, float(sol.lam.min()))
        gap_ratio = max(gap_ratio, cert.kkt.comp_gap_rel / cert.gap_rel)
        gms[label] = sol.gm_bps
        if hops is not None:
            for a in (hops.hops, hops.peeled_bps, np.float64(hops.residual_rel)):
                hop_digest.update(a.tobytes())
    digest = hashlib.sha256(
        "\n".join(f"{k} {v:.8e}" for k, v in sorted(gms.items())).encode()).hexdigest()
    line = {"set": name, "solves": sum(5 * len(i[4]) for i in instances),
            "certified": len(gms), "newton_steps": steps,
            "worst_stationarity": worst_stat, "largest_inner_iters": longest,
            "lam_min": lam_min, "comp_gap_over_gap_rel_max": gap_ratio,
            "trace_dip_max": dip, "gm_digest": digest[:16],
            "hop_digest": hop_digest.hexdigest()[:16],
            "start_digest": start_digest.hexdigest()[:16],
            "problem_digest": problem_digest.hexdigest()[:16],
            "seconds": round(seconds, 2), "dense_side_max": side}
    if reference is not None:
        ref = reference.get(name, {})
        common = sorted(set(gms) & set(ref))
        line["gm_rel_diff_max"] = max((abs(gms[k] / ref[k] - 1) for k in common), default=None)
        line["gm_compared"] = len(common)
    return line, gms


# keys that say how a run went rather than what it answered
UNCHECKED = ("seconds", "gm_rel_diff_max", "gm_compared")


def differences(line: dict, expected: dict) -> list:
    """'set: key is X, expected Y' for every key of a summary line, or of
    its expected line, that differs, but those in UNCHECKED."""
    keys = sorted((set(line) | set(expected)) - set(UNCHECKED))
    return [f"{line.get('set')}: {key} is {line.get(key)!r}, expected {expected.get(key)!r}"
            for key in keys if line.get(key) != expected.get(key)]


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--sets", nargs="+", choices=tuple(SETS), default=list(SETS))
    p.add_argument("--gms", type=Path, help="write every GM (bps) to this JSON file")
    p.add_argument("--against", type=Path, help="a --gms file to compare GMs with")
    p.add_argument("--expect", type=Path,
                   help="exit 1 unless each line matches this file's line for its set")
    args = p.parse_args(argv)
    reference = json.loads(args.against.read_text()) if args.against else None
    expected = json.loads(args.expect.read_text()) if args.expect else None
    all_gms, failed = {}, []
    for name in args.sets:
        line, all_gms[name] = summarize(name, SETS[name], reference)
        print(json.dumps(line), flush=True)
        if expected is not None:
            failed += differences(json.loads(json.dumps(line)), expected.get(name, {}))
    if args.gms:
        args.gms.write_text(json.dumps(all_gms, indent=1, sort_keys=True) + "\n")
    for message in failed:
        print(f"ladder: {message}", file=sys.stderr)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
