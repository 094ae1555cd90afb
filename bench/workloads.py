"""The benchmark's three workloads, driven through iabplan's public API.

An operation is one scenario planned on one anchor set.  A pass runs every
operation of the workload once, in an order drawn from the run's seed, and
its `plan_s` is the wall time of the calls into iabplan only: the checks
that follow each operation run outside the timed region.
"""

from __future__ import annotations

import random
import statistics
import time
import warnings
from dataclasses import dataclass

import numpy as np

import iabplan as ip

import checks
from tracing import Tracer, factor_spans

INTER_SITE_M = 200.0
SCENARIOS = tuple(v.value for v in ip.Variant)
IAB = ("iab_st", "iab_mesh_ss", "iab_mesh_lb")
# The solver settings every solve uses; the defaults, as `iabplan run` uses.
SOLVER = ip.SolverConfig()


@dataclass(frozen=True)
class Workload:
    rows: int
    cols: int
    n_ues: int
    anchor_counts: tuple     # one greedy anchor set per count
    instance_seed: int       # UE drop, anchor and tie-break seed
    solve: bool              # solve and certify, or stop at the start point
    reports: bool            # make_report for all, hop_counts for IAB scenarios
    analytic: bool = False   # also check testkit's closed-form optima


WORKLOADS = {
    # The paper's five-way comparison; SuperLU's factorization dominates.
    "grid_plan": Workload(3, 6, 60, (7,), 1, solve=True, reports=True),
    # Incremental fiber: 30 small solves that share one link table.
    "fiber_sweep": Workload(2, 3, 30, (1, 2, 3, 4, 5, 6), 5, solve=True,
                            reports=False, analytic=True),
    # A city-sized assemble and start point, with no solve.
    "city_assemble": Workload(6, 12, 2400, (18,), 1, solve=False, reports=False),
}

SPAN_LAYERS = ("geometry.select_anchors", "connectivity.make_scenario",
               "problem.assemble", "solver.start_point", "solver.solve",
               "solver.factor", "solver.check_kkt", "metrics.make_report",
               "metrics.hop_counts")
SETUP_LAYERS = ("geometry.generate_grid", "linkbudget.synthetic_gains",
                "linkbudget.build_link_table")
COUNTS = ("solver.newton_steps", "problem.n_var", "problem.n_eq_rows")


def build(w: Workload, seed: int, tr: Tracer):
    """Topology, gains and link table: the inputs every operation shares."""
    topo = tr.call("geometry.generate_grid", ip.generate_grid, w.rows, w.cols,
                   INTER_SITE_M, w.n_ues, seed)
    gains = tr.call("linkbudget.synthetic_gains", ip.synthetic_gains, topo)
    links = tr.call("linkbudget.build_link_table", ip.build_link_table, gains)
    return topo, links


def operation_order(w: Workload, run_seed: int) -> list:
    ops = [(k, name) for k in w.anchor_counts for name in SCENARIOS]
    random.Random(run_seed).shuffle(ops)
    return ops


@dataclass
class Outcome:
    k: int
    scenario: str
    anchors: object
    failed: bool = False
    error: str = ""
    pattern: object = None
    problem: object = None
    solution: object = None
    start: object = None
    report: object = None
    hops: object = None


def _operation(w, links, anchors, name, seed, tr) -> Outcome:
    op = Outcome(k=anchors.k, scenario=name, anchors=anchors)
    try:
        op.pattern = tr.call("connectivity.make_scenario", ip.make_scenario,
                             name, links, anchors, seed=seed)
        op.problem = tr.call("problem.assemble", ip.assemble, links, op.pattern, anchors)
        tr.add("problem.n_var", op.problem.n_var)
        tr.add("problem.n_eq_rows", op.problem.A.shape[0])
        if not w.solve:
            op.start = tr.call("solver.start_point", ip.strictly_feasible_point,
                               op.problem)
            return op
        op.solution, cert = tr.call("solver.solve", ip.solve, op.problem, SOLVER)
        tr.add("solver.newton_steps", cert.inner_iters + cert.outer_iters)
        kkt = tr.call("solver.check_kkt", ip.check_kkt, op.problem, op.solution,
                      tol=SOLVER.duality_gap_tol, feas_tol=SOLVER.feasibility_tol)
        if not kkt.ok:
            op.failed = True
            op.error = (f"check_kkt failed: stationarity {kkt.stationarity:.2e}, "
                        f"primal_eq {kkt.primal_eq:.2e}, primal_ineq {kkt.primal_ineq:.2e}")
        if w.reports:
            op.report = tr.call("metrics.make_report", ip.make_report, op.solution,
                                op.problem, name, anchors)
            if name in IAB:
                op.hops = tr.call("metrics.hop_counts", ip.hop_counts, op.problem,
                                  op.solution, anchors)
    except ip.IabPlanError as exc:
        op.failed = True
        op.error = f"{type(exc).__name__}: {exc}"
    return op


def _check_operation(links, op: Outcome) -> list:
    """Checks of one operation; decides failure of a start point."""
    if op.problem is None:
        return []
    msgs = checks.link_lists(links, op.pattern, op.anchors, op.problem)
    served = checks.served_ues(links, op.pattern, op.anchors)
    if not np.array_equal(served, op.problem.ue_ids):
        msgs.append(f"serves {op.problem.n_included} UEs, reachability gives {served.size}")
    if op.start is not None:
        interior = checks.feasibility(links, op.problem, op.start,
                                      SOLVER.feasibility_tol, strict=True)
        if interior:
            op.failed = True
            op.error = "start point not strictly interior: " + "; ".join(interior)
        msgs += checks.full_row_rank(op.problem)
    elif op.solution is not None and not op.failed:
        msgs += checks.feasibility(links, op.problem, op.solution.x,
                                   2 * SOLVER.feasibility_tol)
        msgs += checks.rates(links, op.problem, op.solution)
        if op.report is not None and (
                op.report.gm_bps != op.solution.gm_bps
                or op.report.n_excluded != links.n_ue - served.size):
            msgs.append("report disagrees with the solution")
        if op.hops is not None:
            msgs += checks.hops(links, op.pattern, op.anchors, op.hops,
                                tree=op.scenario == "iab_st")
    return [f"k={op.k} {op.scenario}: {m}" for m in msgs]


def _check_pass(outcomes: list) -> list:
    """Checks across operations: nested orderings and fiber monotonicity."""
    gap = SOLVER.duality_gap_tol
    by_k = {}
    for op in outcomes:
        if not op.failed and op.solution is not None:
            by_k.setdefault(op.k, {})[op.scenario] = op
    msgs = []
    for k, results in sorted(by_k.items()):
        msgs += [f"k={k}: {m}" for m in checks.orderings(results, gap)]
    mesh = [(k, by_k[k].get("iab_mesh_lb")) for k in sorted(by_k)]
    for (k0, a), (k1, b) in zip(mesh, mesh[1:]):
        if (a is None or b is None or (a.anchors.y & ~b.anchors.y).any()
                or not np.array_equal(a.solution.ue_ids, b.solution.ue_ids)):
            continue
        if b.solution.gm_bps * (1 + 2 * gap) < a.solution.gm_bps:
            msgs.append(f"iab_mesh_lb GM falls from k={k0} to k={k1}")
    return msgs


def analytic_checks() -> list:
    """testkit's single-UE and two-hop-chain instances meet their optima."""
    from iabplan import testkit

    cfg = ip.SolverConfig()
    tol = max(1e-6, 4 * cfg.duality_gap_tol)
    msgs = []
    prob, c = testkit.analytic_single_instance()
    chain, expected = testkit.analytic_chain_instance()
    for name, problem, optimum in (("single-UE", prob, c / 2),
                                   ("two-hop chain", chain, expected)):
        try:
            sol, _cert = ip.solve(problem, cfg)
        except ip.IabPlanError as exc:
            msgs.append(f"{name}: {type(exc).__name__}: {exc}")
            continue
        err = abs(sol.gm_bps - optimum) / optimum
        if err > tol:
            msgs.append(f"{name} GM off its closed form by {err:.2e}")
    return msgs


def plan_pass(w: Workload, topo, links, order: list, tr: Tracer):
    """Runs every operation once; returns (plan seconds, outcomes, messages)."""
    seed = w.instance_seed
    t0 = time.perf_counter()
    anchor_sets = {k: tr.call("geometry.select_anchors", ip.select_anchors, topo, k,
                              "greedy-coverage", links=links, seed=seed)
                   for k in w.anchor_counts}
    plan_s = time.perf_counter() - t0
    outcomes, msgs = [], []
    for k, name in order:
        t0 = time.perf_counter()
        op = _operation(w, links, anchor_sets[k], name, seed, tr)
        plan_s += time.perf_counter() - t0
        msgs += _check_operation(links, op)
        op.problem = op.start = None      # checked; free them as a caller would
        outcomes.append(op)
    return plan_s, outcomes, msgs + _check_pass(outcomes)


@dataclass
class Measurement:
    attempted: int
    failed: int
    errors: list             # distinct failure reasons
    messages: list           # violated checks
    plan_s: list             # untraced passes
    traced_plan_s: list
    tracers: list            # one per traced pass


def measure(w: Workload, topo, links, run_seed: int, seconds: float,
            trace: bool) -> Measurement:
    """Whole passes until `seconds` have gone by; with `trace`, every
    untraced pass is followed by a traced one."""
    order = operation_order(w, run_seed)
    m = Measurement(0, 0, [], [], [], [], [])
    start = time.perf_counter()
    while True:
        modes = (False, True) if trace else (False,)
        for on in modes:
            tr = Tracer(on)
            with factor_spans(tr), warnings.catch_warnings():
                # assemble warns when it excludes starved UEs; served sets are checked
                warnings.filterwarnings("ignore", message=r".*starved")
                plan_s, outcomes, msgs = plan_pass(w, topo, links, order, tr)
            (m.traced_plan_s if on else m.plan_s).append(plan_s)
            if on:
                m.tracers.append(tr)
            m.messages += msgs
            m.attempted += len(outcomes)
            for op in outcomes:
                if op.failed:
                    m.failed += 1
                    reason = f"k={op.k} {op.scenario}: {op.error}"
                    if reason not in m.errors:
                        m.errors.append(reason)
        if time.perf_counter() - start >= seconds:
            break
    if w.analytic:
        m.messages += analytic_checks()
    return m


def layer_metrics(setup: Tracer, m: Measurement) -> dict:
    """Per-layer figures, per pass, averaged over the traced passes."""
    n = len(m.tracers)
    out = {}
    for name in SETUP_LAYERS:
        out[f"{name}_s"] = (setup.seconds(name), "s")
    for name in SPAN_LAYERS:
        out[f"{name}_s"] = (sum(t.seconds(name) for t in m.tracers) / n, "s")
    out["solver.factor_calls"] = (sum(t.calls("solver.factor") for t in m.tracers) / n,
                                  "count")
    out["solver.factor_nnz_max"] = (max(t.counts.get("solver.factor_nnz_max", 0)
                                        for t in m.tracers), "count")
    for name in COUNTS:
        out[name] = (sum(t.counts.get(name, 0) for t in m.tracers) / n, "count")
    steps = out["solver.newton_steps"][0]
    out["solver.s_per_newton_step"] = (out["solver.solve_s"][0] / steps if steps else 0.0,
                                       "s")
    out["trace_overhead_s"] = (statistics.fmean(m.traced_plan_s)
                               - statistics.fmean(m.plan_s), "s")
    return out
