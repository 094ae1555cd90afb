"""Assembly of the geometric-mean rate maximization program.

Variables are per-direction flows and time fractions on every active link,
plus the downlink/uplink split of each anchor's fiber pipe.  Constraints:

  * flow capacity        f_e <= c_e * t_e             (per active link)
  * flow conservation    (per BS, per direction)      (equalities)
  * fiber pipe           M_i^D + M_i^U <= M           (per anchor)
  * TDM resource         sum of incident t_e <= 1     (per BS)
  * nonnegativity        on every variable

and the objective is sum over served UEs of log(UL rate) + log(DL rate),
whose maximizer also maximizes the geometric mean of the rates.

A link variable is created only when the link is available in the pattern,
exists in the link table, AND can actually carry flow between an anchor and
a served UE; flow variables that conservation would force to zero are
eliminated rather than kept at the boundary, so the feasible region has a
nonempty interior whenever any UE is servable.  UEs that end up with no
usable uplink or downlink are excluded from the objective and reported
(`excluded`), with reason "no_link" or "starved".

The rate rows U, the resource and fiber rows G_c and the conservation rows
A make up R = [U; G_c; A], and every variable sits in at most two of its
rows, as an arc of a node-arc incidence matrix does.  `assemble` writes R
once, by column, from each flow's BS ends; `U_mat`, `G` and `A` are grouped
from it on first use, and the solver reads it.  The conservation rows are the
node-arc incidence matrix of each direction's backhaul digraph, with the
UE ends of access flows and the fiber variables as a deleted "ground" node,
and they have full row rank, so no row needs dropping.  A vector y with
y'A = 0 is constant across every backhaul edge and zero at every row that
holds an access flow or a fiber variable (a column with one entry), so it
vanishes on every weakly connected component of kept rows that touches
one.  Every component does: a kept DL edge (i, j) has an anchor-rooted path
to i whose edges are all kept (each node on it reaches j and so a
UE-serving BS), and that anchor has a DL fiber variable; UL is the mirror
image, and a row with no kept backhaul edge holds an access flow or a fiber
variable itself (see Ahuja, Magnanti and Orlin, Network Flows, 1993, ch. 11).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np
import scipy.sparse as sp
from scipy.sparse._sparsetools import csc_matvec, csr_matvec

from .connectivity import ConnectivityPattern, out_edges, search
from .errors import InfeasibleProblemError
from .geometry import AnchorSet
from .linkbudget import LinkTable


@dataclass
class RateProblem:
    """Immutable assembled program in capacity-normalized units."""

    n_bs: int
    n_ue: int
    anchors_y: np.ndarray
    # active directed links, one row per variable pair (f, t)
    ul_access: np.ndarray    # (nA, 2) rows of (ue, bs)
    dl_access: np.ndarray    # (nD, 2) rows of (bs, ue)
    ul_backhaul: np.ndarray  # (nBU, 2) rows of (i, j)
    dl_backhaul: np.ndarray  # (nBD, 2) rows of (i, j)
    m_bs: np.ndarray         # (nM,) anchor of each fiber variable
    m_ul: np.ndarray         # (nM,) bool: the uplink half of that anchor's pipe
    cap: np.ndarray          # (nf,) normalized link capacities
    scale_bps: float         # bps per normalized flow unit
    fiber_norm: float        # normalized fiber pipe capacity
    # R = [U_mat; G_c; A] by column, G_c being G's resource and fiber rows:
    # each variable's rows, ascending and -1 past the last, and its entries
    R_row: np.ndarray        # (n, 2) int32
    R_val: np.ndarray        # (n, 2)
    h: np.ndarray            # rhs of G x <= h
    eq_ul: np.ndarray        # bool per kept equality row: an uplink row
    ue_ids: np.ndarray       # (N',) included UE ids
    excluded: dict           # ue id -> "no_link" | "starved"
    start: np.ndarray        # strictly feasible point, read by strictly_feasible_point
    row_slices: dict = field(default_factory=dict)  # G row family -> slice

    @property
    def r_blocks(self) -> tuple:
        """The row counts of U_mat, G_c and A in R."""
        rs = self.row_slices
        return 2 * self.n_included, rs["fiber"].stop - rs["resource"].start, self.eq_ul.size

    @cached_property
    def _r_csr(self) -> list:
        """CSR arrays (indptr, indices, data) of U_mat, G_c and A, grouped
        from R's column table by one stable sort, so each row lists its
        columns in order; the table's -1 slots sort into a last row that no
        view reads."""
        o = np.cumsum([0, *self.r_blocks])
        row = np.where(self.R_row < 0, o[-1], self.R_row).ravel()
        ptr, ind, dat = sorted_rows(row, o[-1] + 1, np.arange(row.size) >> 1, self.R_val.ravel())
        return [(ptr[lo:hi + 1], ind, dat) for lo, hi in zip(o[:-1], o[1:])]

    @cached_property
    def U_mat(self) -> sp.csr_matrix:
        """(2 N', n) rate aggregation; rows: UL block, DL block."""
        return csr(*self._r_csr[0], self.n_var)

    @cached_property
    def A(self) -> sp.csr_matrix:
        """Equality lhs (full row rank), A x = 0."""
        return csr(*self._r_csr[2], self.n_var)

    @cached_property
    def G(self) -> sp.csr_matrix:
        """Inequality lhs, G x <= h: the capacity rows f_k - c_k t_k, G_c and
        the nonnegativity rows -x."""
        ptr, ind, dat = self._r_csr[1]
        nf, j, lo, hi = self.n_flow, np.arange(self.n_var), ptr[0], ptr[-1]
        k = j[:nf]
        return csr(np.concatenate([2 * k, 2 * nf - lo + ptr, 2 * nf - lo + hi + 1 + j]),
                   np.concatenate([np.stack([k, nf + k], axis=1).ravel(), ind[lo:hi], j]),
                   np.concatenate([np.stack([np.ones(nf), -self.cap], axis=1).ravel(),
                                   dat[lo:hi], -np.ones(j.size)]), j.size)

    @cached_property
    def abs_A(self) -> sp.csr_matrix:
        """|A|, built once for `validate`."""
        return abs(self.A)

    @property
    def n_flow(self) -> int:
        return self.cap.size

    @property
    def n_var(self) -> int:
        return 2 * self.n_flow + self.m_bs.size

    @property
    def m_vars(self) -> list:
        """[(bs, "D"|"U"), ...] per fiber variable."""
        return [(bs, "DU"[ul]) for bs, ul in zip(self.m_bs.tolist(), self.m_ul.tolist())]

    @property
    def n_included(self) -> int:
        return self.ue_ids.size

    @property
    def sl_time(self) -> slice:
        return slice(self.n_flow, 2 * self.n_flow)

    def flow_class_slices(self) -> dict:
        """Slices of the flow block per link class."""
        na, nd = self.ul_access.shape[0], self.dl_access.shape[0]
        nbu, nbd = self.ul_backhaul.shape[0], self.dl_backhaul.shape[0]
        o = np.cumsum([0, na, nd, nbu, nbd])
        return {
            "ul_access": slice(o[0], o[1]),
            "dl_access": slice(o[1], o[2]),
            "ul_backhaul": slice(o[2], o[3]),
            "dl_backhaul": slice(o[3], o[4]),
        }

    def rates_bps(self, x: np.ndarray):
        r = matvec(self.U_mat, x) * self.scale_bps
        return r[:self.n_included], r[self.n_included:]

    def objective_log(self, x: np.ndarray) -> float:
        """Sum of log rates in normalized units (-inf if any rate is 0)."""
        r = matvec(self.U_mat, x)
        if np.any(r <= 0):
            return -np.inf
        return float(np.log(r).sum())

    def gm_bps(self, x: np.ndarray) -> float:
        obj = self.objective_log(x)
        if not np.isfinite(obj):
            return 0.0
        return float(np.exp(obj / (2 * self.n_included)) * self.scale_bps)

    def dump(self, path) -> None:
        """Sparse text dump (variables, constraint triplets, objective groups)."""
        cls = self.flow_class_slices()
        with open(path, "w") as fh:
            fh.write(f"# rate problem: {self.n_var} variables, "
                     f"{self.G.shape[0]} inequalities, {self.A.shape[0]} equalities\n")
            fh.write(f"# flow scale: {self.scale_bps:.9e} bps per unit\n")
            fh.write("[variables]\n")
            for name, slc in cls.items():
                links = getattr(self, name)
                for k in range(slc.start, slc.stop):
                    i, j = links[k - slc.start]
                    fh.write(f"f{k} {name} {i} {j} cap={self.cap[k]:.12g}\n")
            for k in range(self.n_flow):
                fh.write(f"t{k} time_for_f{k}\n")
            for idx, (bs, d) in enumerate(self.m_vars):
                fh.write(f"m{idx} fiber_{d} bs={bs}\n")
            fh.write("[inequalities] # rows of G x <= h\n")
            gcoo = self.G.tocoo()
            for r, c, v in zip(gcoo.row, gcoo.col, gcoo.data):
                fh.write(f"{r} {c} {v:.12g}\n")
            fh.write("[rhs]\n")
            for r, v in enumerate(self.h):
                fh.write(f"{r} {v:.12g}\n")
            fh.write("[equalities] # rows of A x = 0\n")
            acoo = self.A.tocoo()
            for r, c, v in zip(acoo.row, acoo.col, acoo.data):
                fh.write(f"{r} {c} {v:.12g}\n")
            fh.write("[objective] # served UE id: ul var ids / dl var ids\n")
            umat = self.U_mat.tolil()
            n = self.n_included
            for k, ue in enumerate(self.ue_ids):
                ul = " ".join(str(c) for c in umat.rows[k])
                dl = " ".join(str(c) for c in umat.rows[n + k])
                fh.write(f"ue{ue}: {ul} / {dl}\n")


def csr(indptr, indices, data, n_col: int) -> sp.csr_matrix:
    """CSR matrix of the rows (indptr, indices, data), an indptr possibly a
    slice, with int32 indices as in SciPy's own."""
    lo, hi = indptr[0], indptr[-1]
    return sp.csr_matrix((data[lo:hi], indices[lo:hi].astype(np.intc, copy=False),
                          (indptr - lo).astype(np.intc, copy=False)),
                         shape=(indptr.size - 1, n_col))


def matvec(M: sp.csr_matrix, x) -> np.ndarray:
    """M x for a CSR matrix M: SciPy's compiled loop that `M @ x` runs, called
    without `@`'s Python dispatch, so it sums the same products in the same
    order.  The loop reads x unchecked, so a wrong length is a ValueError."""
    n_row, n_col = M.shape
    if np.shape(x) != (n_col,):
        raise ValueError(f"x has shape {np.shape(x)}, expected ({n_col},)")
    out = np.zeros(n_row)
    csr_matvec(n_row, n_col, M.indptr, M.indices, M.data, x, out)
    return out


def rmatvec(M: sp.csr_matrix, x) -> np.ndarray:
    """M'x for a CSR matrix M, whose CSR arrays are the CSC arrays of M': the
    compiled loop that `M.T @ x` runs, checked as `matvec` is."""
    n_row, n_col = M.shape
    if np.shape(x) != (n_row,):
        raise ValueError(f"x has shape {np.shape(x)}, expected ({n_row},)")
    out = np.zeros(n_col)
    csc_matvec(n_col, n_row, M.indptr, M.indices, M.data, x, out)
    return out


def sorted_rows(rows, n_rows: int, indices, data):
    """CSR arrays (indptr, indices, data) of entries at `rows`, by one
    stable sort: each row keeps its entries in the order given.  The sort
    key is the smallest unsigned type that holds a row, so that NumPy
    radix-sorts up to 65,536 rows.  The indices are int32, as `csr` keeps
    them."""
    order = np.argsort(rows.astype(np.min_scalar_type(n_rows)), kind="stable")
    indptr = np.concatenate([[0], np.cumsum(np.bincount(rows, minlength=n_rows))])
    return indptr, indices[order].astype(np.intc), data[order]


def assemble(links: LinkTable, pattern: ConnectivityPattern,
             anchors: AnchorSet) -> RateProblem:
    """Build the RateProblem for one scenario.

    Also builds the strictly feasible start point (`start`).  Raises
    InfeasibleProblemError when no UE is servable, or when a kept link or
    the fiber pipe has zero capacity, which leaves no interior.  UEs
    attached only to sites with no route to a fiber drop are excluded as
    "starved", and UEs with no eligible link at all as "no_link"; both are
    reported only in `excluded`.
    """
    B, U = links.n_bs, links.n_ue
    y = anchors.y
    if y.shape[0] != B:
        raise InfeasibleProblemError("anchor vector length does not match link table")
    if pattern.access.shape != (U, B) or pattern.backhaul.shape != (B, B):
        raise InfeasibleProblemError("connectivity pattern shape does not match link table")

    def mask(ids, size):
        """(size,) bool, set at `ids`."""
        out = np.zeros(size, dtype=bool)
        out[ids] = True
        return out

    bh_ok = pattern.backhaul & links.exists_bb      # (B, B)
    np.fill_diagonal(bh_ok, False)
    bh_edges = np.argwhere(bh_ok)                   # (E, 2) rows (i, j), sorted
    # each BS's edges along bh_edges and against them, and each edge's far end
    lists = out_edges(B, bh_edges), out_edges(B, bh_edges, reverse=True)
    heads = bh_edges[:, 1].tolist(), bh_edges[:, 0].tolist()

    def reach(seeds, reverse=False):
        """Mask of the BSs that the `seeds` mask reaches along bh_edges
        (against them with `reverse`), and the tree (pred, order) that
        reaches them, as lists, as `bfs_tree` would give it."""
        pred = [-1] * B
        order = list(search(lists[reverse], heads[reverse], seeds.tolist(), pred))
        return mask(order, B), (pred, order)

    dl_reach, dl_tree = reach(y)                 # can receive DL from some anchor
    ul_reach, ul_tree = reach(y, reverse=True)   # can forward UL to some anchor

    # the pattern's access pairs in (ue, bs) order, by flat index into the
    # (U, B) uplink tables (ub) and the (B, U) downlink ones (bu)
    ub = np.flatnonzero(pattern.access)
    ue, bs = np.divmod(ub, B)
    bu = bs * U + ue
    ul_cand, dl_cand = links.exists_ub.ravel()[ub], links.exists_bu.ravel()[bu]
    ul_ok, dl_ok = ul_cand & ul_reach[bs], dl_cand & dl_reach[bs]
    included = mask(ue[ul_ok], U) & mask(ue[dl_ok], U)

    had_any = mask(ue[ul_cand | dl_cand], U)
    excluded = {int(u): "starved" if had_any[u] else "no_link"
                for u in np.flatnonzero(~included)}
    if not included.any():
        raise InfeasibleProblemError(
            "no servable UEs: the network has no UEs" if U == 0 else
            f"no servable UEs: {np.count_nonzero(had_any)} of {U} starved "
            "(attached to sites with no route to fiber)")
    ul_ok &= included[ue]
    dl_ok &= included[ue]
    ul_access = np.stack([ue[ul_ok], bs[ul_ok]]).T               # (ue, bs)
    # (bs, ue) order by a stable sort on bs, keyed as in sorted_rows
    dl_bs, dl_ue = bs[dl_ok], ue[dl_ok]
    by_bs = np.argsort(dl_bs.astype(np.min_scalar_type(B)), kind="stable")
    dl_access = np.stack([dl_bs[by_bs], dl_ue[by_bs]]).T         # (bs, ue)
    na, nd = ul_access.shape[0], dl_access.shape[0]

    # backhaul usability: DL needs an anchor upstream and a UE-serving BS
    # downstream; UL is the mirror image.
    dl_sinkable, dl_sink_tree = reach(mask(dl_access[:, 0], B), reverse=True)
    ul_sourceable, ul_source_tree = reach(mask(ul_access[:, 1], B))
    i, j = bh_edges.T
    ul_keep, dl_keep = ul_sourceable[i] & ul_reach[j], dl_reach[i] & dl_sinkable[j]
    ul_backhaul, dl_backhaul = bh_edges[ul_keep], bh_edges[dl_keep]

    # BS ends in variable order: one per access flow, (tail, head) per backhaul flow
    acc_bs = np.concatenate([ul_access[:, 1], dl_access[:, 0]])
    bh = np.concatenate([ul_backhaul, dl_backhaul])
    is_ul = np.repeat([1, 0, 1, 0], [na, nd, ul_backhaul.shape[0], dl_backhaul.shape[0]])

    cap_bps = np.concatenate([links.cap_ub.ravel()[ub[ul_ok]],
                              links.cap_bu.ravel()[bu[dl_ok][by_bs]],
                              links.cap_bb[bh[:, 0], bh[:, 1]]]).astype(float)
    if cap_bps.size == 0 or cap_bps.max() <= 0:
        raise InfeasibleProblemError("no usable link capacity")
    scale = float(cap_bps.max())
    cap = cap_bps / scale
    fiber_norm = links.cfg.fiber_capacity_bps / scale

    nf = cap.size
    m_d, m_u = np.flatnonzero(y & dl_sinkable), np.flatnonzero(y & ul_sourceable)
    m_bs = np.concatenate([m_d, m_u])
    m_ul = np.repeat([False, True], [m_d.size, m_u.size])
    nm = m_bs.size
    n = 2 * nf + nm

    # --- R = [U; G_c; A], by column ----------------------------------------
    # An access flow enters its UE's rate row and conservation row 2b (DL)
    # or 2b + 1 (UL) at its BS b, and its time that BS's resource row.  A
    # backhaul flow enters the conservation rows at both ends, with +1 at a
    # DL tail or an UL head and -1 at the other end (DL rows count outflow
    # minus inflow, UL rows inflow minus outflow), and its time the resource
    # rows at both ends.  A fiber variable enters its anchor's fiber row
    # and, with -1, its conservation row.
    con_acc, con_bh = 2 * acc_bs + is_ul[:na + nd], 2 * bh + is_ul[na + nd:, None]
    m_con = 2 * m_bs + m_ul
    n_incident = np.bincount(np.concatenate([acc_bs, bh.ravel()]), minlength=B)
    con_used = np.bincount(np.concatenate([con_acc, con_bh.ravel(), m_con]), minlength=2 * B) > 0
    fiber_bs, fiber_row = np.unique(m_bs, return_inverse=True)
    ue_ids = np.flatnonzero(included)
    n_u, n_res, n_fib = 2 * ue_ids.size, np.count_nonzero(n_incident), fiber_bs.size
    n_c = n_res + n_fib
    # B-sized maps onto the kept resource and conservation rows
    res_of = n_u - 1 + np.cumsum(n_incident > 0)
    con_of = n_u + n_c - 1 + np.cumsum(con_used)
    ue_pos = np.cumsum(included) - 1                # UE id -> its index in ue_ids
    ue_row = np.concatenate([ue_pos[ul_access[:, 0]], ue_pos[dl_access[:, 1]] + ue_ids.size])
    # rows ascending per column, -1 past the last: a rate row comes first.
    # Both tables are written in place, column by column: stacking 1-d
    # arrays on axis 1 would copy them entry by entry.
    c_bh, r_bh = con_of[con_bh], res_of[bh]
    R_row, R_val = np.empty((n, 2), dtype=np.int32), np.ones((n, 2))
    np.concatenate([ue_row, c_bh.min(axis=1), res_of[acc_bs], r_bh.min(axis=1),
                    n_u + n_res + fiber_row], out=R_row[:, 0])
    np.concatenate([con_of[con_acc], c_bh.max(axis=1), np.full(na + nd, -1),
                    r_bh.max(axis=1), con_of[m_con]], out=R_row[:, 1])
    out = np.where(c_bh[:, 0] < c_bh[:, 1], 1.0, -1.0) * (1 - 2 * is_ul[na + nd:])
    R_val[na + nd:nf, 0], R_val[na + nd:nf, 1] = out, -out
    R_val[2 * nf:, 1] = -1.0

    # --- G x <= h: f - c t <= 0, resource and fiber rows, -x <= 0 ---------
    o = np.cumsum([0, nf, n_res, n_fib, n]).tolist()
    row_slices = {family: slice(start, stop) for family, start, stop
                  in zip(("flow_capacity", "resource", "fiber", "nonneg"), o[:-1], o[1:])}
    h = np.zeros(o[-1])
    h[row_slices["resource"]], h[row_slices["fiber"]] = 1.0, fiber_norm

    # --- interior point: a unit per variable on an anchor<->UE walk -------
    # The walks follow the reach trees: a node on a walk reaches its ends
    # and is reached from them, so its tree path is all kept edges, the
    # same path as over the kept edges alone.
    def route(tree, reverse, starts):
        """One unit from each start (with repeats) along its tree walk:
        per-edge unit counts over bh_edges, and per seed the walks that end
        there (tree accumulation, children before parents)."""
        pred, order = tree
        up = heads[not reverse]
        count = np.bincount(starts, minlength=B).tolist()
        on_edge = [0] * len(up)
        for v in reversed(order):
            e = pred[v]
            if e >= 0:
                on_edge[e] = count[v]
                count[up[e]] += count[v]
        return np.array(on_edge, dtype=int), np.where(np.array(pred) < 0, count, 0)

    def walks(anchor_tree, sink_tree, reverse, acc_bs, keep, fiber_bs):
        """One direction: a unit down `anchor_tree` to every access BS and
        kept edge's near end, one from every far end and fiber BS on along
        `sink_tree`.  Returns the units per access and kept backhaul flow,
        and per BS the anchor walks that end there."""
        near, far = (bh_edges[keep][:, ::-1] if reverse else bh_edges[keep]).T
        down_e, down_end = route(anchor_tree, reverse, np.concatenate([acc_bs, near]))
        sink_e, sink_end = route(sink_tree, not reverse, np.concatenate([far, fiber_bs]))
        # keyed on the smallest type that holds a BS, as in sorted_rows
        sinks, first = np.unique(acc_bs.astype(np.min_scalar_type(B)), return_index=True)
        acc = np.ones(acc_bs.size)
        acc[first] += sink_end[sinks]     # a sink walk ends in its BS's first access flow
        return acc, (1.0 + down_e + sink_e)[keep], down_end

    acc_u, bh_u, end_u = walks(ul_tree, ul_source_tree, True, ul_access[:, 1], ul_keep, m_u)
    acc_d, bh_d, end_d = walks(dl_tree, dl_sink_tree, False, dl_access[:, 0], dl_keep, m_d)
    flow = np.concatenate([acc_u, acc_d, bh_u, bh_d])
    m_cnt = 1.0 + np.concatenate([end_d[m_d], end_u[m_u]])
    # times take 0.9 of a uniform share of the busiest incident BS budget,
    # flows half the tightest capacity bound
    t = 0.9 / np.concatenate([n_incident[acc_bs], n_incident[bh].max(axis=1)])
    sigma = min(0.5 * np.min(t * cap / flow),
                0.45 * fiber_norm / np.bincount(m_bs, weights=m_cnt).max())
    if sigma <= 0:
        raise InfeasibleProblemError(
            "cannot construct interior point: zero-capacity link in the active set")

    return RateProblem(
        n_bs=B, n_ue=U, anchors_y=y.copy(),
        ul_access=ul_access, dl_access=dl_access,
        ul_backhaul=ul_backhaul, dl_backhaul=dl_backhaul,
        m_bs=m_bs, m_ul=m_ul, cap=cap, scale_bps=scale, fiber_norm=fiber_norm,
        R_row=R_row, R_val=R_val, h=h, eq_ul=np.flatnonzero(con_used) % 2 == 1,
        ue_ids=ue_ids, excluded=excluded, start=np.concatenate([sigma * flow, t, sigma * m_cnt]),
        row_slices=row_slices,
    )


@dataclass
class ValidationReport:
    """Max violation per constraint family, in capacity-normalized units."""

    violations: dict
    tol: float

    @property
    def max_violation(self) -> float:
        return max(self.violations.values()) if self.violations else 0.0

    @property
    def ok(self) -> bool:
        return self.max_violation <= self.tol


def validate(problem: RateProblem, candidate, tol: float = 1e-8) -> ValidationReport:
    """Residual report for a candidate point (Solution or normalized vector).

    Since the problem is capacity-normalized, inequality violations are
    reported relative to max(1, |rhs|): a resource row with time fractions
    summing to 1.5 reports exactly 0.5.  Conservation rows (rhs 0) are
    normalized by the magnitude of the flows entering the row.
    """
    x = np.asarray(getattr(candidate, "x", candidate), dtype=float)
    if x.shape != (problem.n_var,):
        raise ValueError(f"candidate has shape {x.shape}, expected ({problem.n_var},)")

    excess = (matvec(problem.G, x) - problem.h) / np.maximum(1.0, np.abs(problem.h))
    viol = {family: float(excess[slc].max(initial=0.0))
            for family, slc in problem.row_slices.items()}

    A = problem.A
    resid = np.abs(matvec(A, x)) / np.maximum(1.0, matvec(problem.abs_A, np.abs(x)))
    viol["conservation_dl"] = float(resid[~problem.eq_ul].max(initial=0.0))
    viol["conservation_ul"] = float(resid[problem.eq_ul].max(initial=0.0))

    return ValidationReport(violations=viol, tol=tol)
