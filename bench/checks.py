"""Output checks that do not trust the program's own matrices.

Feasibility is recomputed from the link table and the problem's link lists
(never from `G` or `A`), served sets from a `scipy.sparse.csgraph`
reachability count over the pattern, and every comparison between scenarios
is a theorem of the model: it is asserted only where the patterns nest and
the served sets are equal.  Each function returns a list of messages, one
per violated property; an empty list means the check holds.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp
from scipy.sparse import csgraph

# (smaller, larger): the first pattern is a subpattern of the second
NESTED_PAIRS = (("access_ss", "access_lb"), ("iab_st", "iab_mesh_ss"),
                ("iab_mesh_ss", "iab_mesh_lb"))


def _classes(problem):
    return (problem.ul_access, problem.dl_access, problem.ul_backhaul,
            problem.dl_backhaul)


def _capacities_bps(links, problem):
    ula, dla, ulb, dlb = _classes(problem)
    return np.concatenate([links.cap_ub[ula[:, 0], ula[:, 1]],
                           links.cap_bu[dla[:, 0], dla[:, 1]],
                           links.cap_bb[ulb[:, 0], ulb[:, 1]],
                           links.cap_bb[dlb[:, 0], dlb[:, 1]]]).astype(float)


def link_lists(links, pattern, anchors, problem) -> list:
    """Every active link is in the pattern and exists in the link table;
    fiber variables sit only at anchors."""
    ula, dla, ulb, dlb = _classes(problem)
    bh = pattern.backhaul & links.exists_bb
    out = []
    if not (pattern.access[ula[:, 0], ula[:, 1]] & links.exists_ub[ula[:, 0], ula[:, 1]]).all():
        out.append("an uplink access variable is not an active existing link")
    if not (pattern.access[dla[:, 1], dla[:, 0]] & links.exists_bu[dla[:, 0], dla[:, 1]]).all():
        out.append("a downlink access variable is not an active existing link")
    for name, edges in (("uplink", ulb), ("downlink", dlb)):
        if edges.size and not (bh[edges[:, 0], edges[:, 1]].all()
                               and (edges[:, 0] != edges[:, 1]).all()):
            out.append(f"a {name} backhaul variable is not an active existing link")
    if any(not anchors.y[b] for b, _d in problem.m_vars):
        out.append("a fiber variable sits at a site without fiber")
    return out


def feasibility(links, problem, x, tol: float, strict: bool = False) -> list:
    """Constraint residuals of the normalized point `x`, from the link lists.

    With `strict`, every inequality slack and every variable must be
    positive (an interior point); otherwise each may be violated by `tol`,
    relative to max(1, |rhs|) as in the program's certificate.
    """
    ula, dla, ulb, dlb = _classes(problem)
    na, nd, nbu = len(ula), len(dla), len(ulb)
    nf, nm = na + nd + nbu + len(dlb), len(problem.m_vars)
    if x.shape != (2 * nf + nm,):
        return [f"point has shape {x.shape}, expected ({2 * nf + nm},)"]
    cap_bps = _capacities_bps(links, problem)
    scale = float(cap_bps.max())
    out = []
    if abs(scale - problem.scale_bps) > 1e-12 * scale:
        out.append(f"flow scale {problem.scale_bps:.9g} is not the largest "
                   f"active capacity {scale:.9g}")
    f, t, m = x[:nf], x[nf:2 * nf], x[2 * nf:]

    B = links.n_bs
    load = np.zeros(B)
    used = np.zeros(B, dtype=bool)
    ends = [(ula[:, 1], slice(0, na)), (dla[:, 0], slice(na, na + nd)),
            (ulb[:, 0], slice(na + nd, na + nd + nbu)),
            (ulb[:, 1], slice(na + nd, na + nd + nbu)),
            (dlb[:, 0], slice(na + nd + nbu, nf)), (dlb[:, 1], slice(na + nd + nbu, nf))]
    for bs, slc in ends:
        np.add.at(load, bs, t[slc])
        used[bs] = True

    fiber_norm = links.cfg.fiber_capacity_bps / scale
    fiber_load = np.zeros(B)
    for k, (b, _d) in enumerate(problem.m_vars):
        fiber_load[b] += m[k]
    fiber_sites = np.unique([b for b, _d in problem.m_vars]).astype(int)

    slacks = {
        "flow_capacity": cap_bps / scale * t - f,
        "resource": 1.0 - load[used],
        "fiber": (fiber_norm - fiber_load[fiber_sites]) / max(1.0, fiber_norm),
        "nonneg": x,
    }
    for family, slack in slacks.items():
        if not slack.size:
            continue
        worst = float(slack.min())
        if (strict and worst <= 0) or (not strict and worst < -tol):
            out.append(f"{family}: smallest slack {worst:.3e}")

    # conservation per BS: DL out - in - fiber = 0, UL in - out - fiber = 0
    net = {"D": np.zeros(B), "U": np.zeros(B)}
    mag = {"D": np.zeros(B), "U": np.zeros(B)}
    terms = {"D": [(dla[:, 0], f[na:na + nd], 1.0),
                   (dlb[:, 0], f[na + nd + nbu:], 1.0),
                   (dlb[:, 1], f[na + nd + nbu:], -1.0)],
             "U": [(ula[:, 1], f[:na], 1.0),
                   (ulb[:, 1], f[na + nd:na + nd + nbu], 1.0),
                   (ulb[:, 0], f[na + nd:na + nd + nbu], -1.0)]}
    for k, (b, d) in enumerate(problem.m_vars):
        terms[d].append((np.array([b]), m[k:k + 1], -1.0))
    for d, parts in terms.items():
        for bs, val, sign in parts:
            np.add.at(net[d], bs, sign * val)
            np.add.at(mag[d], bs, np.abs(val))
        resid = float((np.abs(net[d]) / np.maximum(1.0, mag[d])).max())
        if resid > tol:
            out.append(f"conservation_{d}: relative residual {resid:.3e}")
    return out


def _depth_from(adj: np.ndarray, seeds: np.ndarray) -> np.ndarray:
    """Hop distance from the nearest seed along adj[i, j] edges (inf if none)."""
    graph = sp.csr_matrix(adj.astype(float))
    dist = csgraph.shortest_path(graph, directed=True, unweighted=True,
                                 indices=np.flatnonzero(seeds))
    return np.atleast_2d(dist).min(axis=0)


def backhaul_depth(links, pattern, anchors) -> np.ndarray:
    """Downlink hop distance from the nearest anchor over the active backhaul."""
    bh = pattern.backhaul & links.exists_bb
    np.fill_diagonal(bh, False)
    return _depth_from(bh, anchors.y)


def served_ues(links, pattern, anchors) -> np.ndarray:
    """UEs with an uplink to a site that reaches fiber and a downlink from a
    site that fiber reaches, both over active existing links."""
    bh = pattern.backhaul & links.exists_bb
    np.fill_diagonal(bh, False)
    dl_reach = np.isfinite(_depth_from(bh, anchors.y))
    ul_reach = np.isfinite(_depth_from(bh.T, anchors.y))
    ul = pattern.access & links.exists_ub & ul_reach[None, :]
    dl = pattern.access & links.exists_bu.T & dl_reach[None, :]
    return np.flatnonzero(ul.any(axis=1) & dl.any(axis=1))


def rates(links, problem, solution) -> list:
    """Per-UE rates and the GM, summed again from the access flows."""
    ula, dla = problem.ul_access, problem.dl_access
    x = solution.x
    scale = solution.scale_bps
    r_ul = np.zeros(links.n_ue)
    r_dl = np.zeros(links.n_ue)
    np.add.at(r_ul, ula[:, 0], x[:len(ula)] * scale)
    np.add.at(r_dl, dla[:, 1], x[len(ula):len(ula) + len(dla)] * scale)
    ue = solution.ue_ids
    out = []
    for name, mine, theirs in (("uplink", r_ul[ue], solution.r_ul_bps),
                               ("downlink", r_dl[ue], solution.r_dl_bps)):
        if not np.allclose(mine, theirs, rtol=1e-9, atol=0.0):
            out.append(f"{name} rates differ from the summed access flows")
    both = np.concatenate([r_ul[ue], r_dl[ue]])
    if (both <= 0).any():
        out.append("a served UE has a zero rate")
    else:
        gm = float(np.exp(np.log(both).mean()))
        if abs(gm - solution.gm_bps) > 1e-9 * gm:
            out.append(f"GM {solution.gm_bps:.9g} is not the rates' GM {gm:.9g}")
    return out


def _nests(small, large) -> bool:
    return not ((small.access & ~large.access).any()
                or (small.backhaul & ~large.backhaul).any())


def orderings(results: dict, gap_tol: float) -> list:
    """GM orderings between nested scenarios that serve the same UEs.

    `results` maps scenario name to an object with a `pattern` and a
    `solution`; failed scenarios are left out by the caller.
    """
    out = []
    for lo, hi in NESTED_PAIRS:
        a, b = results.get(lo), results.get(hi)
        if a is None or b is None or not _nests(a.pattern, b.pattern):
            continue
        ga, gb = a.solution.gm_bps, b.solution.gm_bps
        if not np.array_equal(a.solution.ue_ids, b.solution.ue_ids):
            continue
        if ga > gb * (1 + 2 * gap_tol):
            out.append(f"{lo} GM {ga:.9g} above {hi} GM {gb:.9g}")
    return out


def hops(links, pattern, anchors, report, tree: bool) -> list:
    """Tree hop counts equal the depth in the spanning forest; mesh hop
    counts are at least the BFS depth; anchors are at 0 hops."""
    depth = backhaul_depth(links, pattern, anchors)
    h = report.hops
    defined = ~np.isnan(h)
    out = []
    if not (h[anchors.y] == 0).all():
        out.append("an anchor has a nonzero hop count")
    if tree and not np.allclose(h[defined], depth[defined], rtol=0, atol=1e-9):
        out.append("tree hop counts differ from the spanning-forest depth")
    if not tree and (h[defined] < depth[defined] - 1e-9).any():
        out.append("a mesh hop count is below the BFS depth")
    return out


def full_row_rank(problem) -> list:
    """The kept conservation rows are independent: A A' is nonsingular."""
    p = problem.A.shape[0]
    if p == 0:
        return []
    gram = (problem.A @ problem.A.T).toarray()
    rank = int(np.linalg.matrix_rank(gram))
    return [] if rank == p else [f"A A' has rank {rank} < {p} rows"]
