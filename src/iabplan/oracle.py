"""Brute-force lower-bound oracle for tiny rate problems.

Independent of the interior-point solver: enumerate time allocations on a
lattice, set every access flow to its capacity bound, propagate flows along
the unique backhaul route of each UE by exact conservation, discard lattice
points that violate a backhaul capacity, fiber or resource row, and keep the
best geometric mean found.

Instances must have at most 6 time variables and a forest-shaped backhaul
with one anchor per tree at most (two would give a UE a route to each), so
each UE has a single simple route per direction.  The routes follow the
shared `connectivity.bfs_tree`; `assemble` routes along the same trees
only to seed the start point, so the bracket stays independent of the
solver's answer.
Reverse-direction backhaul variables (present because availability is
symmetric on tree edges) can only carry circulating flow, which never
increases any rate; the oracle pins them to zero and searches the remaining
dimensions.

The search is exhaustive per lattice, with multiresolution refinement above
two effective dimensions: the map from a time allocation to the best
achievable rates is concave, so re-gridding a shrinking window around the
incumbent converges to the global optimum at the requested final spacing.
The returned bracket is [best found, best * (1 + slack)] with a slack
estimated from the final grid spacing.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .connectivity import bfs_tree
from .errors import OracleError
from .problem import RateProblem

MAX_TIME_VARS = 6
_MAX_POINTS = 600_000


@dataclass
class OracleBracket:
    gm_lo_bps: float
    gm_hi_bps: float

    def contains(self, gm_bps: float, rel_slack: float = 1e-9) -> bool:
        return (self.gm_lo_bps * (1 - rel_slack) <= gm_bps
                <= self.gm_hi_bps * (1 + rel_slack))


def _routes(problem: RateProblem):
    """Per-UE access var ids, backhaul path matrices and fiber roots."""
    n_inc, B = problem.n_included, problem.n_bs
    ul_acc, dl_acc = problem.ul_access, problem.dl_access
    if ul_acc.shape[0] != n_inc or dl_acc.shape[0] != n_inc:
        raise OracleError("oracle needs exactly one UL and one DL access link per UE")

    # assemble keeps only edges an anchor reaches, so the pairs join only
    # sites the anchors reach; those sites number the pairs plus the
    # anchors exactly when the pairs form trees of one anchor each
    pairs = np.unique(np.sort(np.vstack([problem.ul_backhaul.reshape(-1, 2),
                                         problem.dl_backhaul.reshape(-1, 2)]),
                              axis=1), axis=0)
    anchors = np.flatnonzero(problem.anchors_y)
    _, reached = bfs_tree(B, np.vstack([pairs, pairs[:, ::-1]]), anchors)
    if len(pairs) != reached.size - anchors.size:
        raise OracleError("oracle needs a forest-shaped backhaul with at most one "
                          "anchor per backhaul tree")

    def paths(edges, bs, ue, reverse):
        """Per included UE (in id order): its access variable, the indicator
        column of its backhaul walk and the anchor the walk ends at."""
        pred, order = bfs_tree(B, edges, problem.anchors_y, reverse)
        stuck = np.setdiff1d(bs, order)
        if stuck.size:
            raise OracleError(f"site {stuck[0]} has no route to an anchor")
        var = np.argsort(ue)
        up = edges[:, 1 if reverse else 0]
        walk, end = np.zeros((edges.shape[0], bs.size)), bs[var]
        for k, b in enumerate(end.tolist()):
            while pred[b] >= 0:
                walk[pred[b], k] = 1.0
                b = up[pred[b]]
            end[k] = b
        return var, walk, end

    ul_var, p_ul, root_ul = paths(problem.ul_backhaul, ul_acc[:, 1], ul_acc[:, 0], True)
    dl_var, p_dl, root_dl = paths(problem.dl_backhaul, dl_acc[:, 0], dl_acc[:, 1], False)
    return ul_var, n_inc + dl_var, p_ul, p_dl, root_ul, root_dl


def brute_force_oracle(problem: RateProblem, grid_resolution: int = 1000) -> OracleBracket:
    """Grid-search bracket on the optimal geometric mean (bps)."""
    nt = problem.n_flow
    if nt > MAX_TIME_VARS:
        raise OracleError(f"oracle limited to {MAX_TIME_VARS} time variables, got {nt}")
    if grid_resolution < 1:
        raise OracleError("grid_resolution must be at least 1")

    ul_var, dl_var, p_ul, p_dl, root_ul, root_dl = _routes(problem)
    n_inc = problem.n_included
    cls = problem.flow_class_slices()
    cap = problem.cap

    ul_bh0 = cls["ul_backhaul"].start
    dl_bh0 = cls["dl_backhaul"].start
    used_bh_ul = np.flatnonzero(p_ul.any(axis=1))
    used_bh_dl = np.flatnonzero(p_dl.any(axis=1))
    used = np.concatenate([ul_var, dl_var, ul_bh0 + used_bh_ul,
                           dl_bh0 + used_bh_dl]).astype(int)
    used = np.unique(used)
    dims = used.size

    res_rows = problem.G[problem.row_slices["resource"], :]
    r_time = (res_rows[:, problem.sl_time].toarray()[:, used]
              if res_rows.shape[0] else np.zeros((0, dims)))

    roots = sorted(set(root_ul.tolist()) | set(root_dl.tolist()))
    root_idx = {a: i for i, a in enumerate(roots)}
    agg_ul = np.zeros((len(roots), n_inc))
    agg_dl = np.zeros((len(roots), n_inc))
    for k in range(n_inc):
        agg_ul[root_idx[root_ul[k]], k] = 1.0
        agg_dl[root_idx[root_dl[k]], k] = 1.0

    col_of = {int(v): c for c, v in enumerate(used)}
    ul_cols = np.array([col_of[int(v)] for v in ul_var])
    dl_cols = np.array([col_of[int(v)] for v in dl_var])
    bhu_cols = np.array([col_of[int(ul_bh0 + e)] for e in used_bh_ul], dtype=int)
    bhd_cols = np.array([col_of[int(dl_bh0 + e)] for e in used_bh_dl], dtype=int)
    c_ul = cap[ul_var]
    c_dl = cap[dl_var]
    c_bhu = cap[ul_bh0 + used_bh_ul]
    c_bhd = cap[dl_bh0 + used_bh_dl]
    p_ul_used = p_ul[used_bh_ul]
    p_dl_used = p_dl[used_bh_dl]

    def evaluate(t_batch: np.ndarray):
        """Best log-objective per lattice point; -inf where infeasible."""
        f_ul = t_batch[:, ul_cols] * c_ul
        f_dl = t_batch[:, dl_cols] * c_dl
        feas = np.all(r_time @ t_batch.T <= 1.0 + 1e-12, axis=0)
        if bhu_cols.size:
            flow = f_ul @ p_ul_used.T
            feas &= np.all(flow <= t_batch[:, bhu_cols] * c_bhu + 1e-15, axis=1)
        if bhd_cols.size:
            flow = f_dl @ p_dl_used.T
            feas &= np.all(flow <= t_batch[:, bhd_cols] * c_bhd + 1e-15, axis=1)
        m_tot = f_ul @ agg_ul.T + f_dl @ agg_dl.T
        feas &= np.all(m_tot <= problem.fiber_norm + 1e-12, axis=1)
        with np.errstate(divide="ignore"):
            obj = np.log(f_ul).sum(axis=1) + np.log(f_dl).sum(axis=1)
        return np.where(feas, obj, -np.inf)

    target = 1.0 / grid_resolution
    per_dim = {1: grid_resolution, 2: grid_resolution, 3: 40, 4: 16, 5: 10, 6: 8}
    q0 = per_dim[dims]
    while (q0 + 1) ** dims > _MAX_POINTS and q0 > 2:
        q0 -= 1
    spacing = 1.0 / q0

    axes = [np.linspace(0.0, 1.0, q0 + 1)] * dims
    best_obj = -np.inf
    best_t = None
    while True:
        pts = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, dims)
        obj = evaluate(pts)
        k = int(np.argmax(obj))
        if obj[k] > best_obj or best_t is None:
            best_obj = max(obj[k], best_obj)
            best_t = pts[k]
        if spacing <= target + 1e-15:
            break
        spacing /= 2.0
        axes = [np.unique(np.clip(best_t[d] + spacing * np.arange(-4, 5), 0.0, 1.0))
                for d in range(dims)]

    if not np.isfinite(best_obj):
        # degenerate lattice (e.g. resolution 1): every feasible point has a
        # zero rate, which is still a valid lower bound of 0
        return OracleBracket(gm_lo_bps=0.0, gm_hi_bps=np.inf)

    gm = float(np.exp(best_obj / (2 * n_inc)) * problem.scale_bps)
    t_pos = best_t[best_t > 0]
    t_min = float(t_pos.min()) if t_pos.size else spacing
    slack = dims * spacing / max(t_min, spacing)
    return OracleBracket(gm_lo_bps=gm, gm_hi_bps=gm * (1.0 + slack))
