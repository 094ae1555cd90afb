"""Evaluation artifacts: rate reports, CDFs, hop counts, fiber sweeps."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .artifacts import write_csv
from .connectivity import Variant, make_scenario, out_edges, search
from .errors import DecompositionError, MetricsError
from .geometry import AnchorSet, Topology, select_anchors
from .linkbudget import LinkTable
from .problem import RateProblem, assemble
from .solver import Solution, SolverConfig, solve


@dataclass
class RateReport:
    """Per-UE rates and the geometric mean for one solved scenario."""

    scenario: str
    anchor_count: int
    ue_ids: np.ndarray
    r_ul_bps: np.ndarray
    r_dl_bps: np.ndarray
    gm_bps: float
    n_excluded: int

    def to_csv(self, path, header_meta: dict | None = None) -> None:
        meta = {**(header_meta or {}), "scenario": self.scenario,
                "anchors": self.anchor_count, "gm_mbps": f"{self.gm_bps / 1e6:.9g}",
                "excluded_ues": self.n_excluded}
        write_csv(path, meta, ["ue_id", "rate_ul_mbps", "rate_dl_mbps"], "%d,%.9g,%.9g",
                  [self.ue_ids.tolist(), (self.r_ul_bps / 1e6).tolist(),
                   (self.r_dl_bps / 1e6).tolist()])


def _check_anchors(problem: RateProblem, anchors: AnchorSet) -> None:
    """Raise MetricsError unless `anchors` is the set `problem` was
    assembled with."""
    if not np.array_equal(anchors.y, problem.anchors_y):
        raise MetricsError(
            f"anchor set {np.flatnonzero(anchors.y).tolist()} is not the problem's "
            f"{np.flatnonzero(problem.anchors_y).tolist()}")


def make_report(solution: Solution, problem: RateProblem, scenario: str,
                anchors: AnchorSet) -> RateReport:
    _check_anchors(problem, anchors)
    return RateReport(
        scenario=scenario, anchor_count=anchors.k,
        ue_ids=solution.ue_ids.copy(),
        r_ul_bps=solution.r_ul_bps.copy(), r_dl_bps=solution.r_dl_bps.copy(),
        gm_bps=solution.gm_bps, n_excluded=len(problem.excluded),
    )


def rate_cdf(report: RateReport, direction: str = "combined",
             include_excluded: bool = False):
    """Empirical CDF points (sorted rates in bps, percentile at-or-below).

    direction "combined" pools the UL and DL samples.  With
    `include_excluded`, unserved UEs enter at rate 0 (both directions).
    """
    if direction == "ul":
        rates = report.r_ul_bps
        zeros = report.n_excluded
    elif direction == "dl":
        rates = report.r_dl_bps
        zeros = report.n_excluded
    elif direction == "combined":
        rates = np.concatenate([report.r_ul_bps, report.r_dl_bps])
        zeros = 2 * report.n_excluded
    else:
        raise MetricsError(f"unknown direction {direction!r}")
    if include_excluded:
        rates = np.concatenate([np.zeros(zeros), rates])
    if rates.size == 0:
        raise MetricsError("no rates to build a CDF from")
    rates = np.sort(rates)
    pct = np.arange(1, rates.size + 1) / rates.size
    return rates, pct


def top_decile_mean(report: RateReport, direction: str = "combined") -> float:
    rates, _ = rate_cdf(report, direction)
    k = max(1, rates.size // 10)
    return float(rates[-k:].mean())


@dataclass
class HopReport:
    """Rate-weighted mean backhaul hop count per BS (anchors are 0).

    `hops[b]` is NaN when BS b is neither an anchor nor a destination of any
    downlink backhaul flow (nothing to average).  `residual_rel` is the
    fraction of downlink backhaul flow left un-peeled (interior-point
    leftovers on unused links).
    """

    hops: np.ndarray          # (n_bs,)
    peeled_bps: np.ndarray    # (n_bs,) total path rate ending at each BS
    residual_rel: float

    @property
    def mass_at_zero(self) -> float:
        defined = ~np.isnan(self.hops)
        return float((self.hops[defined] == 0).sum() / defined.sum())

    def mean_hops(self) -> float:
        defined = ~np.isnan(self.hops)
        return float(self.hops[defined].mean())

    def cdf(self):
        vals = np.sort(self.hops[~np.isnan(self.hops)])
        return vals, np.arange(1, vals.size + 1) / vals.size


def hop_counts(problem: RateProblem, solution: Solution, anchors: AnchorSet,
               residual_tol: float = 1e-3) -> HopReport:
    """Decompose downlink backhaul flow into anchor-rooted paths and average.

    Iterative shortest-path peeling on the positive-flow subgraph: while any
    non-anchor BS still has unmet delivered demand, peel the globally
    shortest (then lexicographically least) anchor-to-demand path at the
    bottleneck rate.  Each round is one `connectivity.search` from the
    anchors over the out-edge lists of the edges with flow left, whose
    order gives those paths.  Each node with demand left is peeled as the
    search yields it, and the round ends at the first peel that empties an
    edge, the only change that can alter the search: the emptied edges
    leave the lists and the next round searches afresh.  Each BS's hop
    count is the rate-weighted mean hop count of the paths that end there;
    anchors are exactly 0.  `anchors` must be the set `problem` was
    assembled with, or MetricsError is raised.

    Interior-point solutions leave small circulating flows on links the
    optimum does not use; a balanced leftover field is harmless and only
    reported (`residual_rel`).  Peeling stops early when demand is left
    with no path of flow above the peeling threshold, as at tight duality
    gaps a few 1e-10 of it can be; that demand goes unpeeled.
    Unmet demand, or a residual *imbalanced* at some relay, beyond
    `residual_tol` of the backhaul or delivered total means the input
    violates flow conservation, which raises a DecompositionError.
    """
    _check_anchors(problem, anchors)
    B = problem.n_bs
    cls = problem.flow_class_slices()
    edges = problem.dl_backhaul
    x = solution.x

    delivered = np.bincount(problem.dl_access[:, 0], weights=x[cls["dl_access"]],
                            minlength=B)
    flow = x[cls["dl_backhaul"]].copy()
    total_bh = sum(flow.tolist())     # summed left to right, in edge order

    eps = float(1e-12 + 1e-9 * max(np.max(flow, initial=1e-30), delivered.max()))
    # the peeling loop runs on Python floats, whose arithmetic is NumPy's float64
    demand = np.where(anchors.y, 0.0, delivered).tolist()
    rest, weighted, peeled = flow.tolist(), [0.0] * B, [0.0] * B

    tail, head = edges[:, 0].tolist(), edges[:, 1].tolist()
    out = [[e for e in es if rest[e] > eps] for es in out_edges(B, edges)]
    # a seed's pred stays -1; a round rewrites pred on every other node it reaches
    seeds, pred = anchors.y.tolist(), [-1] * B

    while max(demand) > eps:
        for v in search(out, head, seeds, pred):
            if demand[v] > eps:
                path, node = [], v
                while pred[node] >= 0:
                    path.append(pred[node])
                    node = tail[path[-1]]
                q = min(demand[v], min(rest[e] for e in path))
                for e in path:
                    rest[e] -= q
                demand[v] -= q
                weighted[v] += q * len(path)
                peeled[v] += q
                emptied = [e for e in path if rest[e] <= eps]
                for e in emptied:
                    out[tail[e]].remove(e)
                if emptied:
                    break
        else:
            break                    # no path of flow left: the unmet demand is checked below

    flow, weighted, peeled = np.array(rest), np.array(weighted), np.array(peeled)
    hops = np.full(B, np.nan)
    hops[anchors.y] = 0.0
    has = peeled > 0
    hops[has] = weighted[has] / peeled[has]

    leftover = sum(flow.tolist())
    residual_rel = leftover / total_bh if total_bh > eps else 0.0
    imbalance = np.bincount(edges[:, ::-1].ravel(), weights=np.c_[flow, -flow].ravel(),
                            minlength=B)
    worst = float(np.abs(imbalance[~anchors.y]).max()) if (~anchors.y).any() else 0.0
    scale = max(total_bh, delivered.sum(), eps)
    unmet = max(demand)
    if unmet / scale > residual_tol:
        raise DecompositionError(
            "unmet downlink demand with no remaining flow path "
            f"(residual demand {unmet:.3e})")
    if worst / scale > residual_tol:
        raise DecompositionError(
            f"residual backhaul flow is imbalanced at a relay "
            f"({worst / scale:.3e} relative, tolerance {residual_tol:.1e}); "
            "the input violates flow conservation")
    return HopReport(hops=hops, peeled_bps=peeled * solution.scale_bps,
                     residual_rel=residual_rel)


@dataclass
class SweepRow:
    k: int
    variant: str
    seed: int
    gm_bps: float
    n_excluded: int


def fiber_sweep(topology: Topology, links: LinkTable, variants, k_values,
                seeds, *, policy: str = "greedy-coverage",
                solver_cfg: SolverConfig | None = None) -> list[SweepRow]:
    """GM versus anchor count, per variant and seed.

    Anchor sets for growing k are nested for a fixed seed under both the
    greedy policy (prefix of the greedy order) and the seeded-random policy
    (prefix of one permutation).
    """
    rows = []
    for seed in seeds:
        for k in k_values:
            anchors = select_anchors(topology, k, policy, links=links, seed=seed)
            for variant in variants:
                variant = Variant(variant)
                pattern = make_scenario(variant, links, anchors, seed=seed)
                prob = assemble(links, pattern, anchors)
                solution, _ = solve(prob, solver_cfg)
                rows.append(SweepRow(k=int(k), variant=variant.value,
                                     seed=int(seed), gm_bps=solution.gm_bps,
                                     n_excluded=len(prob.excluded)))
    return rows


def sweep_to_csv(rows: list[SweepRow], path, header_meta: dict | None = None) -> None:
    write_csv(path, header_meta, ["k", "variant", "gm_mbps", "seed"], "%d,%s,%.9g,%d",
              [[r.k for r in rows], [r.variant for r in rows],
               [r.gm_bps / 1e6 for r in rows], [r.seed for r in rows]])


def sweep_summary(rows: list[SweepRow]) -> str:
    """Mean and spread of GM across seeds, one line per (k, variant)."""
    if not rows:
        raise MetricsError("empty sweep")
    groups = {}
    for row in rows:
        groups.setdefault((row.k, row.variant), []).append(row.gm_bps / 1e6)
    lines = [f"{'k':>4}  {'variant':<14} {'gm_mbps_mean':>12} {'gm_min':>10} {'gm_max':>10}"]
    for (k, variant) in sorted(groups):
        vals = np.asarray(groups[(k, variant)])
        lines.append(f"{k:>4}  {variant:<14} {vals.mean():>12.3f} "
                     f"{vals.min():>10.3f} {vals.max():>10.3f}")
    return "\n".join(lines)


def compare_table(reports: list[RateReport]) -> str:
    """Aligned text table of scenario GMs, in the order given."""
    if not reports:
        raise MetricsError("no reports to compare")
    header = f"{'scenario':<14} {'anchors':>7} {'gm_mbps':>10} {'served':>7} {'excluded':>9}"
    lines = [header, "-" * len(header)]
    for rep in reports:
        lines.append(f"{rep.scenario:<14} {rep.anchor_count:>7} "
                     f"{rep.gm_bps / 1e6:>10.3f} {rep.ue_ids.size:>7} "
                     f"{rep.n_excluded:>9}")
    return "\n".join(lines)
