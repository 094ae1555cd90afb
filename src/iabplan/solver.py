"""Certified log-barrier interior-point solver for the rate program.

The geometric-mean objective is maximized through its monotone transform
F(x) = -sum_i [log r_i^UL + log r_i^DL], a smooth convex function on the
interior of the linear feasible region.  We follow the central path of

    minimize  tau * F(x) - sum_k log(h_k - g_k' x)    subject to  A x = 0

with damped Newton steps.  Each step solves, in augmented form, the system

    [ H   A' ] [dx]   [-grad]          H  = tau * H_F + G' diag(1/s^2) G
    [ A   0  ] [ w] = [  0  ]          s  = h - G x  (slacks, kept > 0)

so every iterate satisfies the conservation equalities exactly.  On the
central path the multipliers lambda_k = 1/(tau * s_k) are dual feasible and
give the duality gap bound m/tau (m = number of inequality rows), which we
drive below `duality_gap_tol` per log-rate term; that bounds the relative
suboptimality of the reported geometric mean.  See docs/solver_notes.md for
the full derivation.

All computations run in capacity-normalized units (see problem.py); rates
are converted to bps only at the reporting boundary.  The solve is
deterministic: no randomized steps, single-threaded sparse factorizations.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .connectivity import walks
from .errors import ConvergenceError, InfeasibleProblemError
from .problem import RateProblem, validate

_TAU0 = 1.0
_ARMIJO = 0.25
_STEP_SHRINK = 0.5
_BOUNDARY_BACKOFF = 0.99


@dataclass(frozen=True)
class SolverConfig:
    feasibility_tol: float = 1e-9      # relative primal residual accepted
    duality_gap_tol: float = 1e-6      # relative GM suboptimality bound
    barrier_increase_factor: float = 10.0
    newton_tol: float = 1e-10          # half squared Newton decrement
    max_outer_iters: int = 60
    max_inner_iters: int = 100

    def __post_init__(self):
        if min(self.feasibility_tol, self.duality_gap_tol, self.newton_tol) <= 0:
            raise ValueError("tolerances must be positive")
        if self.barrier_increase_factor <= 1:
            raise ValueError("barrier increase factor must exceed 1")


@dataclass
class KktReport:
    """Residuals of the KKT system at a candidate primal/dual pair."""

    ok: bool
    stationarity: float      # relative to the objective gradient scale
    primal_ineq: float
    primal_eq: float
    dual_feas_min: float     # most negative multiplier (>= 0 when clean)
    comp_gap_rel: float      # lambda' s per log-rate term


@dataclass
class Certificate:
    """Optimality evidence attached to a solve."""

    gap_rel: float                 # duality gap bound per log-rate term
    kkt: KktReport                 # check_kkt at the solve's tolerances
    objective_trace: list          # sum of log rates after each outer iteration
    outer_iters: int
    inner_iters: int
    tau_final: float
    n_inequalities: int


@dataclass
class Solution:
    """Optimal point with rates, duals and the geometric mean."""

    x: np.ndarray                 # normalized variable vector
    ue_ids: np.ndarray
    r_ul_bps: np.ndarray
    r_dl_bps: np.ndarray
    gm_bps: float
    objective_log: float          # sum of log rates, normalized units
    scale_bps: float
    lam: np.ndarray               # inequality multipliers
    nu: np.ndarray                # equality multipliers

    def to_dict(self) -> dict:
        return {
            "gm_bps": self.gm_bps,
            "gm_mbps": self.gm_bps / 1e6,
            "objective_log": self.objective_log,
            "n_ues_served": int(self.ue_ids.size),
            "scale_bps": self.scale_bps,
        }


def _incident_time_counts(problem: RateProblem) -> np.ndarray:
    """Per time variable: the largest incident-variable count over its BSs."""
    res = problem.G[problem.row_slices["resource"], problem.sl_time]
    return (sp.diags(res.getnnz(axis=1), dtype=float) @ res).max(axis=0).toarray().ravel()


def strictly_feasible_point(problem: RateProblem) -> np.ndarray:
    """Interior starting point: 0.9-scaled uniform time split, routed flows.

    Times take a uniform share of the busiest incident BS budget, scaled by
    0.9.  Flows are built by routing one unit along a canonical anchor<->UE
    walk for every flow and fiber variable (so each is strictly positive),
    then scaling all of them to half the tightest capacity bound.
    """
    ul_acc, dl_acc = problem.ul_access, problem.dl_access
    ul_bh, dl_bh = problem.ul_backhaul, problem.dl_backhaul
    nf, nm, B = problem.n_flow, len(problem.m_vars), problem.n_bs
    na, nd, nbu = ul_acc.shape[0], dl_acc.shape[0], ul_bh.shape[0]
    anchors = np.flatnonzero(problem.anchors_y)
    m_bs = np.array([bs for bs, _d in problem.m_vars], dtype=int)
    m_ul = np.array([d == "U" for _bs, d in problem.m_vars], dtype=bool)

    t = 0.9 / np.maximum(_incident_time_counts(problem), 1)

    def fail(msg):
        raise InfeasibleProblemError(f"cannot construct interior point: {msg}")

    def route(seeds, edges, reverse, starts, no_walk):
        """One unit from each start (with repeats) along its canonical walk:
        per-edge unit counts, and per-node counts of walks ending there."""
        P_t, end = walks(B, edges, seeds, reverse)
        n_start = np.bincount(starts, minlength=B)
        stuck = np.flatnonzero(n_start * (end < 0))
        if stuck.size:
            fail(f"BS {stuck[0]} {no_walk}")
        return P_t @ n_start, np.bincount(end[starts], minlength=B)

    # walks: UL up to an anchor, DL down from an anchor, DL on to a
    # UE-serving BS, UL back from a UE-serving BS
    up_e, up_end = route(anchors, ul_bh, True, np.r_[ul_acc[:, 1], ul_bh[:, 1]],
                         "has no uplink route to an anchor")
    down_e, down_end = route(anchors, dl_bh, False, np.r_[dl_acc[:, 0], dl_bh[:, 0]],
                             "has no downlink route from an anchor")
    t_d, first_dl = np.unique(dl_acc[:, 0], return_index=True)
    s_u, first_ul = np.unique(ul_acc[:, 1], return_index=True)
    sink_e, sink_end = route(t_d, dl_bh, True, np.r_[dl_bh[:, 1], m_bs[~m_ul]],
                             "cannot dispose of downlink flow")
    src_e, src_end = route(s_u, ul_bh, False, np.r_[ul_bh[:, 0], m_bs[m_ul]],
                           "receives no uplink flow")

    flow = np.ones(nf)
    flow[na + nd:na + nd + nbu] += up_e + src_e
    flow[na + nd + nbu:] += down_e + sink_e
    # a sink or source walk ends in its BS's first access flow
    flow[na + first_dl] += sink_end[t_d]
    flow[first_ul] += src_end[s_u]
    m_cnt = 1.0 + np.where(m_ul, up_end[m_bs], down_end[m_bs])
    if m_cnt.sum() - nm != up_end.sum() + down_end.sum():
        fail("an anchor walk ends at an anchor with no fiber variable")

    sigma = 0.5 * np.min(t * problem.cap / flow)
    busiest = np.bincount(m_bs, weights=m_cnt, minlength=B).max() if nm else 0.0
    if busiest > 0:
        sigma = min(sigma, 0.45 * problem.fiber_norm / busiest)
    if sigma <= 0:
        fail("zero-capacity link in the active set")

    return np.concatenate([sigma * flow, t, sigma * m_cnt])


class _NewtonSystem:
    """Sparse augmented KKT system of the Newton step, in slack coordinates.

    Unknowns dy = (dsigma, dt, dm) with sigma_k = c_k t_k - f_k, so dx = T dy,
    then z for the rate, resource and fiber rows and w for A.  The system
    [[K, B'], [B, -diag(r^2, tau s_c^2, 0)]] with B = [U; G_c; A] T reduces to
    [[H, A'], [A, 0]] but never forms a resource row's dense rank-one block:
    K holds only per-link 2x2 blocks and diagonals.  Slack coordinates keep a
    tight capacity row's barrier term alone on the sigma diagonal; in (f, t)
    it cancels in the t pivot.  Relies on assemble's row layout: capacity
    row k is f_k - c_k t_k and nonnegativity row i is -x_i.  See
    docs/solver_notes.md, "Central path".
    """

    def __init__(self, problem: RateProblem):
        nf, n, rs = problem.n_flow, problem.n_var, problem.row_slices
        self.problem = problem
        self.sl_c = slice(rs["resource"].start, rs["fiber"].stop)
        k, j = np.arange(nf), np.arange(2 * nf, n)
        self.T = sp.csr_matrix(
            (np.r_[-np.ones(nf), problem.cap, np.ones(n - nf)],
             (np.r_[k, k, nf + k, j], np.r_[k, nf + k, nf + k, j])), shape=(n, n))
        B = sp.vstack([problem.U_mat, problem.G[self.sl_c], problem.A]) @ self.T
        B = B.tocoo()
        self.n_diag = n + problem.U_mat.shape[0] + self.sl_c.stop - self.sl_c.start
        self.size = n + B.shape[0]
        # value slots: the diagonal in matrix order, then sigma-t, then B
        diag, st = np.arange(self.n_diag), self.n_diag + k
        b = self.n_diag + nf + np.arange(B.nnz)
        rows = np.r_[diag, k, nf + k, n + B.row, B.col]
        cols = np.r_[diag, nf + k, k, B.col, n + B.row]
        order = np.lexsort((rows, cols))
        self._src = np.r_[diag, st, st, b, b][order]
        self._b = B.data
        self.kkt = sp.csc_matrix(
            (np.zeros(order.size), rows[order],
             np.searchsorted(cols[order], np.arange(self.size + 1))),
            shape=(self.size, self.size))

    def solve(self, s: np.ndarray, r: np.ndarray, grad: np.ndarray, tau: float):
        """Newton step (dx, w) at slacks s = h - Gx and rates r = Ux."""
        p = self.problem
        nf, n, c = p.n_flow, p.n_var, p.cap
        d = 1.0 / (tau * s[p.row_slices["nonneg"]] ** 2)
        a = 1.0 / (tau * s[p.row_slices["flow_capacity"]] ** 2)
        vals = np.concatenate([a + d[:nf], c * c * d[:nf] + d[nf:2 * nf], d[2 * nf:],
                               -r ** 2, -tau * s[self.sl_c] ** 2, -c * d[:nf], self._b])
        self.kkt.data[:] = vals[self._src]
        lu = spla.splu(self.kkt, permc_spec="NATURAL")
        rhs = np.r_[-(self.T.T @ grad), np.zeros(self.size - n)]
        sol = lu.solve(rhs)
        # one refinement pass keeps A dx = 0 near machine level despite the
        # wildly mixed barrier scales in the system
        sol = sol + lu.solve(rhs - self.kkt @ sol)
        return self.T @ sol[:n], sol[self.n_diag:]


def _center(problem: RateProblem, x: np.ndarray, tau: float, cfg: SolverConfig,
            newton: _NewtonSystem, stat_target: float):
    """Newton iterations for one barrier subproblem; returns (x, w, iters).

    Minimizes psi = F + phi/tau (the 1/tau scaling keeps values and
    gradients at the scale of F for any tau, so line-search comparisons
    stay above floating-point noise).  Stops once the Newton decrement is
    below `newton_tol` AND the KKT stationarity residual for the restored
    duals (lambda = 1/(tau s), nu = w) is below `stat_target`; a few extra
    polish steps are allowed for the latter, since the decrement bounds the
    residual only loosely through the Hessian conditioning.

    Inside the quadratic region (tau dx'H dx <= ((1 - 2 ARMIJO)/4)^2) of the
    self-concordant tau*psi, backtracking accepts the full step in exact
    arithmetic (Boyd & Vandenberghe 9.6.4) but the computed psi comparison
    is rounding noise, so the ratio-test step is taken without it.
    """
    G, h, A, U = problem.G, problem.h, problem.A, problem.U_mat

    def barrier_value(s, r):
        return -np.log(r).sum() - np.log(s).sum() / tau

    s = h - G @ x
    r = U @ x
    if np.any(s <= 0) or np.any(r <= 0):
        raise InfeasibleProblemError("starting point is not strictly feasible")

    polish = 0
    for it in range(cfg.max_inner_iters):
        inv_s = 1.0 / s
        inv_r = 1.0 / r
        grad_f = -(U.T @ inv_r)
        grad = grad_f + G.T @ (inv_s / tau)
        dx, w = newton.solve(s, r, grad, tau)
        g_dx = G @ dx
        u_dx = U @ dx
        decrement = float(np.sum((u_dx * inv_r) ** 2)
                          + np.sum((g_dx * inv_s) ** 2) / tau)
        if decrement / 2.0 <= cfg.newton_tol:
            grad_scale = max(1.0, float(np.abs(grad_f).max()))
            stat = float(np.abs(grad + A.T @ w).max()) / grad_scale
            if stat <= stat_target or polish >= 8:
                return x, w, it
            polish += 1
        # ratio test keeps the step strictly inside the domain
        alpha = 1.0
        pos = g_dx > 0
        if pos.any():
            alpha = min(alpha, _BOUNDARY_BACKOFF * np.min(s[pos] / g_dx[pos]))
        neg = u_dx < 0
        if neg.any():
            alpha = min(alpha, _BOUNDARY_BACKOFF * np.min(r[neg] / -u_dx[neg]))
        psi = barrier_value(s, r)
        slope = float(grad @ dx)
        accepted = tau * decrement <= ((1.0 - 2.0 * _ARMIJO) / 4.0) ** 2
        while not accepted and alpha > 1e-14:
            s_new = s - alpha * g_dx
            r_new = r + alpha * u_dx
            if s_new.min() > 0 and r_new.min() > 0:
                if barrier_value(s_new, r_new) <= psi + _ARMIJO * alpha * slope:
                    accepted = True
                    break
            alpha *= _STEP_SHRINK
        if not accepted:
            if decrement / 2.0 <= cfg.newton_tol:
                return x, w, it   # polish stalled at machine precision
            raise ConvergenceError("line search failed", best_x=x,
                                   gap=G.shape[0] / tau)
        x = x + alpha * dx
        s = h - G @ x
        r = U @ x
    raise ConvergenceError("inner Newton iteration cap hit", best_x=x,
                           gap=G.shape[0] / tau)


def solve(problem: RateProblem, cfg: SolverConfig | None = None):
    """Maximize the sum of log rates; returns (Solution, Certificate).

    The returned certificate carries `check_kkt` of the answer at
    `duality_gap_tol` and `feasibility_tol`, which it always passes.  Raises
    InfeasibleProblemError when no strictly feasible point exists and
    ConvergenceError (carrying the best iterate and its gap) on iteration
    caps, a failed line search, or a final point that fails that check (then
    also carrying the failing certificate).  Deterministic for fixed inputs.
    """
    cfg = cfg or SolverConfig()
    n_terms = 2 * problem.n_included
    m_ineq = problem.G.shape[0]
    gap_target_abs = cfg.duality_gap_tol * n_terms

    newton = _NewtonSystem(problem)
    x = strictly_feasible_point(problem)
    stat_target = 0.25 * cfg.duality_gap_tol
    # 5% overshoot keeps the final reported gap strictly below the tolerance
    tau_needed = 1.05 * m_ineq / gap_target_abs
    tau = _TAU0
    trace = []
    inner_total = 0
    for _outer in range(cfg.max_outer_iters):
        x, w, inner = _center(problem, x, tau, cfg, newton, stat_target)
        inner_total += inner
        trace.append(problem.objective_log(x))
        if m_ineq / tau <= gap_target_abs:
            break
        tau = min(tau * cfg.barrier_increase_factor, tau_needed)
    else:
        raise ConvergenceError("outer iteration cap hit", best_x=x,
                               gap=m_ineq / tau / n_terms)

    gap_rel = m_ineq / tau / n_terms
    r_ul, r_dl = problem.rates_bps(x)
    solution = Solution(
        x=x, ue_ids=problem.ue_ids.copy(), r_ul_bps=r_ul, r_dl_bps=r_dl,
        gm_bps=problem.gm_bps(x), objective_log=problem.objective_log(x),
        scale_bps=problem.scale_bps, lam=1.0 / (tau * (problem.h - problem.G @ x)),
        nu=w,
    )
    kkt = check_kkt(problem, solution, tol=cfg.duality_gap_tol,
                    feas_tol=cfg.feasibility_tol)
    certificate = Certificate(
        gap_rel=gap_rel, kkt=kkt, objective_trace=trace, outer_iters=len(trace),
        inner_iters=inner_total, tau_final=tau, n_inequalities=m_ineq,
    )
    if not kkt.ok:
        raise ConvergenceError(
            f"final point fails the KKT check: stationarity {kkt.stationarity:.2e}, "
            f"primal_ineq {kkt.primal_ineq:.2e}, primal_eq {kkt.primal_eq:.2e}",
            best_x=x, gap=gap_rel, certificate=certificate)
    return solution, certificate


def check_kkt(problem: RateProblem, solution: Solution,
              tol: float = 1e-6, feas_tol: float = 1e-9) -> KktReport:
    """Verify stationarity, feasibility, dual feasibility, complementarity."""
    x, lam, nu = solution.x, solution.lam, solution.nu
    report = validate(problem, x, tol=feas_tol)
    primal_ineq = max(report.violations[k] for k in
                      ("flow_capacity", "resource", "fiber", "nonneg"))
    primal_eq = max(report.violations["conservation_dl"],
                    report.violations["conservation_ul"])

    r = problem.U_mat @ x
    grad0 = -(problem.U_mat.T @ (1.0 / r))
    resid = grad0 + problem.G.T @ lam + problem.A.T @ nu
    scale = max(1.0, float(np.abs(grad0).max()))
    stationarity = float(np.abs(resid).max()) / scale

    s = problem.h - problem.G @ x
    comp_gap_rel = float(lam @ s) / (2 * problem.n_included)
    dual_min = float(lam.min()) if lam.size else 0.0

    ok = (stationarity <= tol and primal_ineq <= feas_tol
          and primal_eq <= feas_tol and dual_min >= -tol
          and comp_gap_rel <= tol)
    return KktReport(ok=ok, stationarity=stationarity, primal_ineq=primal_ineq,
                     primal_eq=primal_eq, dual_feas_min=dual_min,
                     comp_gap_rel=comp_gap_rel)
