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

Every constraint family is one sparse construction over per-flow endpoint
arrays (`tail`, `head`, -1 at a UE end).  The conservation rows are the
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

import numpy as np
import scipy.sparse as sp

from .connectivity import ConnectivityPattern, reachable
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
    m_vars: list             # [(bs, "D"|"U"), ...]
    cap: np.ndarray          # (nf,) normalized link capacities
    scale_bps: float         # bps per normalized flow unit
    fiber_norm: float        # normalized fiber pipe capacity
    G: sp.csr_matrix         # inequality lhs, G x <= h
    h: np.ndarray
    A: sp.csr_matrix         # equality lhs (full row rank), A x = 0
    eq_labels: list          # (bs, "D"|"U") per kept equality row
    U_mat: sp.csr_matrix     # (2 N', n) rate aggregation; rows: UL block, DL block
    ue_ids: np.ndarray       # (N',) included UE ids
    excluded: dict           # ue id -> "no_link" | "starved"
    row_slices: dict = field(default_factory=dict)  # G row family -> slice

    @property
    def n_flow(self) -> int:
        return self.cap.size

    @property
    def n_var(self) -> int:
        return 2 * self.n_flow + len(self.m_vars)

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
        r = (self.U_mat @ x) * self.scale_bps
        return r[:self.n_included], r[self.n_included:]

    def objective_log(self, x: np.ndarray) -> float:
        """Sum of log rates in normalized units (-inf if any rate is 0)."""
        r = self.U_mat @ x
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


def assemble(links: LinkTable, pattern: ConnectivityPattern,
             anchors: AnchorSet) -> RateProblem:
    """Build the RateProblem for one scenario.

    Raises InfeasibleProblemError when no UE is servable.  UEs attached only
    to sites with no route to a fiber drop are excluded as "starved", and
    UEs with no eligible link at all as "no_link"; both are reported only in
    `excluded`.
    """
    B, U = links.n_bs, links.n_ue
    y = anchors.y
    if y.shape[0] != B:
        raise InfeasibleProblemError("anchor vector length does not match link table")

    acc = pattern.access
    ul_acc_ok = acc & links.exists_ub               # (U, B) candidate u->b
    dl_acc_ok = acc & links.exists_bu.T             # (U, B) candidate b->u
    bh_ok = pattern.backhaul & links.exists_bb      # (B, B)
    np.fill_diagonal(bh_ok, False)

    dl_reach = reachable(bh_ok, y)     # can receive DL from some anchor
    ul_reach = reachable(bh_ok.T, y)   # can forward UL to some anchor

    ul_ok = ul_acc_ok & ul_reach[None, :]
    dl_ok = dl_acc_ok & dl_reach[None, :]
    included = ul_ok.any(axis=1) & dl_ok.any(axis=1)

    had_any = ul_acc_ok.any(axis=1) | dl_acc_ok.any(axis=1)
    excluded = {int(u): "starved" if had_any[u] else "no_link"
                for u in np.flatnonzero(~included)}
    if not included.any():
        raise InfeasibleProblemError(
            f"no servable UEs: {np.count_nonzero(had_any)} of {U} starved "
            "(attached to sites with no route to fiber)")
    ul_ok &= included[:, None]
    dl_ok &= included[:, None]

    # backhaul usability: DL needs an anchor upstream and a UE-serving BS
    # downstream; UL is the mirror image.
    dl_sinkable = reachable(bh_ok.T, dl_ok.any(axis=0))
    ul_sourceable = reachable(bh_ok, ul_ok.any(axis=0))
    bh_dl = bh_ok & dl_reach[:, None] & dl_sinkable[None, :]
    bh_ul = bh_ok & ul_sourceable[:, None] & ul_reach[None, :]

    m_vars = [(int(i), "D") for i in np.flatnonzero(y & dl_sinkable)]
    m_vars += [(int(i), "U") for i in np.flatnonzero(y & ul_sourceable)]

    ul_access = np.argwhere(ul_ok)            # (ue, bs)
    dl_access = np.argwhere(dl_ok)[:, ::-1].copy()  # stored as (bs, ue)
    dl_access = dl_access[np.lexsort((dl_access[:, 1], dl_access[:, 0]))]
    ul_backhaul = np.argwhere(bh_ul)
    dl_backhaul = np.argwhere(bh_dl)
    na, nd = ul_access.shape[0], dl_access.shape[0]

    # per-flow BS endpoints in variable order, -1 at a UE end
    tail = np.r_[np.full(na, -1), dl_access[:, 0], ul_backhaul[:, 0], dl_backhaul[:, 0]]
    head = np.r_[ul_access[:, 1], np.full(nd, -1), ul_backhaul[:, 1], dl_backhaul[:, 1]]
    is_ul = np.repeat([1, 0, 1, 0], [na, nd, ul_backhaul.shape[0], dl_backhaul.shape[0]])

    cap_bps = np.r_[links.cap_ub[ul_access[:, 0], ul_access[:, 1]],
                    links.cap_bu[dl_access[:, 0], dl_access[:, 1]],
                    links.cap_bb[tail[na + nd:], head[na + nd:]]].astype(float)
    if cap_bps.size == 0 or cap_bps.max() <= 0:
        raise InfeasibleProblemError("no usable link capacity")
    scale = float(cap_bps.max())
    cap = cap_bps / scale
    fiber_norm = links.cfg.fiber_capacity_bps / scale

    nf = cap.size
    nm = len(m_vars)
    n = 2 * nf + nm
    k = np.arange(nf)
    m_col = 2 * nf + np.arange(nm)
    m_bs = np.array([bs for bs, _d in m_vars], dtype=int)
    m_ul = np.array([d == "U" for _bs, d in m_vars], dtype=int)

    # node-arc incidence, one entry per (flow, BS end): DL rows count
    # outflow minus inflow and UL rows inflow minus outflow, so a flow
    # enters with +1 at a DL tail or an UL head and -1 at the other end
    end = np.r_[tail, head]
    at_bs = end >= 0
    node, col = end[at_bs], np.r_[k, k][at_bs]
    out = 1.0 - 2 * is_ul
    sign = np.r_[out, -out][at_bs]

    # --- inequalities -----------------------------------------------------
    capacity = sp.csr_matrix((np.r_[np.ones(nf), -cap], (np.r_[k, k], np.r_[k, nf + k])),
                             shape=(nf, n))
    resource = sp.csr_matrix((np.ones(node.size), (node, nf + col)), shape=(B, n))
    resource = resource[np.flatnonzero(resource.getnnz(axis=1))]
    fiber_bs, fiber_row = np.unique(m_bs, return_inverse=True)
    fiber = sp.csr_matrix((np.ones(nm), (fiber_row, m_col)), shape=(fiber_bs.size, n))
    G = sp.vstack([capacity, resource, fiber, -sp.identity(n, format="csr")], format="csr")
    n_res, n_fib = resource.shape[0], fiber_bs.size
    h = np.r_[np.zeros(nf), np.ones(n_res), np.full(n_fib, fiber_norm), np.zeros(n)]
    o = np.cumsum([0, nf, n_res, n_fib, n]).tolist()
    row_slices = {
        "flow_capacity": slice(o[0], o[1]),
        "resource": slice(o[1], o[2]),
        "fiber": slice(o[2], o[3]),
        "nonneg": slice(o[3], o[4]),
    }

    # --- equalities: flow conservation, row 2b (DL) and 2b + 1 (UL) -------
    A = sp.csr_matrix((np.r_[sign, -np.ones(nm)],
                       (np.r_[2 * node + is_ul[col], 2 * m_bs + m_ul], np.r_[col, m_col])),
                      shape=(2 * B, n))
    kept = np.flatnonzero(A.getnnz(axis=1))
    A = A[kept]
    eq_labels = [(int(r) // 2, "DU"[r % 2]) for r in kept]

    # --- objective aggregation --------------------------------------------
    ue_ids = np.flatnonzero(included)
    n_inc = ue_ids.size
    ue_row = np.searchsorted(ue_ids, np.r_[ul_access[:, 0], dl_access[:, 1]])
    U_mat = sp.csr_matrix((np.ones(na + nd), (ue_row + np.repeat([0, n_inc], [na, nd]),
                                              np.arange(na + nd))), shape=(2 * n_inc, n))

    return RateProblem(
        n_bs=B, n_ue=U, anchors_y=y.copy(),
        ul_access=ul_access, dl_access=dl_access,
        ul_backhaul=ul_backhaul, dl_backhaul=dl_backhaul,
        m_vars=m_vars, cap=cap, scale_bps=scale, fiber_norm=fiber_norm,
        G=G, h=h, A=A, eq_labels=eq_labels, U_mat=U_mat,
        ue_ids=ue_ids, excluded=excluded, row_slices=row_slices,
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

    viol = {}
    gx = problem.G @ x
    for family, slc in problem.row_slices.items():
        raw = gx[slc] - problem.h[slc]
        if raw.size == 0:
            viol[family] = 0.0
            continue
        denom = np.maximum(1.0, np.abs(problem.h[slc]))
        viol[family] = float(np.maximum(raw / denom, 0.0).max())

    if problem.A.shape[0]:
        ax = problem.A @ x
        denom = np.maximum(1.0, np.abs(problem.A) @ np.abs(x))
        resid = np.abs(ax) / denom
        dl = [k for k, (_b, d) in enumerate(problem.eq_labels) if d == "D"]
        ul = [k for k, (_b, d) in enumerate(problem.eq_labels) if d == "U"]
        viol["conservation_dl"] = float(resid[dl].max()) if dl else 0.0
        viol["conservation_ul"] = float(resid[ul].max()) if ul else 0.0
    else:
        viol["conservation_dl"] = viol["conservation_ul"] = 0.0

    return ValidationReport(violations=viol, tol=tol)
