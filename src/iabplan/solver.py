"""Certified primal-dual barrier interior-point solver for the rate program.

The geometric-mean objective is maximized through its monotone transform
F(x) = -sum_i [log r_i^UL + log r_i^DL], a smooth convex function on the
interior of the linear feasible region.  We follow the central path of

    minimize  tau * F(x) - sum_k log(h_k - g_k' x)    subject to  A x = 0

with damped Newton steps.  Each step solves, in augmented form, the system

    [ H   A' ] [dx]   [-grad]          H  = tau * H_F + G' diag(tau lam/s) G
    [ A   0  ] [ w] = [  0  ]          s  = h - G x  (slacks, kept > 0)

so every iterate satisfies the conservation equalities exactly.  Slacks,
rates and the inequality multipliers lam are carried with the steps, not
recomputed from x; lam = 1/(tau s) would give the primal barrier step.
x itself is read from s: the slacks of the rows -x <= 0 are x.  A
centering ends with a full Newton step once the half squared Newton
decrement is below its tolerance: a loose one while tau still grows, and
a tight one at the last tau, whose point is the answer.  That step's
multipliers lambda_k = 1/(tau s_k) + lam_k g_k'dx / s_k and w certify
the new point: they are dual feasible and give a duality gap near m/tau
(m = number of inequality rows), which we drive below `duality_gap_tol`
per log-rate term; that bounds the relative suboptimality of the reported
geometric mean.  See docs/solver_notes.md for the full derivation.

All computations run in capacity-normalized units (see problem.py); rates
are converted to bps only at the reporting boundary.  The solve is
deterministic: no randomized steps, and the one dense factor per Newton
step is LAPACK's unthreaded packed Cholesky, so iterates repeat bit for bit
under one BLAS build.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass

import numpy as np
from scipy.linalg.lapack import dpptrf, dpptrs

from .errors import ConfigError, ConvergenceError, InfeasibleProblemError
from .problem import RateProblem, stack_rows, validate

_TAU0 = 1.0
_BARRIER_INCREASE = 100.0  # tau multiplier per centering (docs: Barrier schedule)
_NEWTON_TOL = 1e-10        # half squared Newton decrement, last centering
_PATH_TOL = 1e-3           # the same, intermediate centerings (docs: Step size)
_ARMIJO = 0.25
_STEP_SHRINK = 0.5
_BOUNDARY_BACKOFF = 0.99
_LAM_SPREAD = 1e10         # carried lam stays within this factor of 1/(tau s)
_REFINE_PASSES = 3         # refinement passes per Newton step, last centering


@dataclass(frozen=True)
class SolverConfig:
    feasibility_tol: float = 1e-9      # relative primal residual accepted
    duality_gap_tol: float = 1e-6      # relative GM suboptimality bound
    max_inner_iters: int = 100         # Newton steps per centering

    def __post_init__(self):
        for name in ("feasibility_tol", "duality_gap_tol"):
            value = getattr(self, name)
            if isinstance(value, bool) or not (isinstance(value, numbers.Real)
                                               and 0 < value < np.inf):
                raise ConfigError(f"{name} must be positive and finite, got {value!r}")
        value = self.max_inner_iters
        if isinstance(value, bool) or not (isinstance(value, numbers.Integral)
                                           and value >= 1):
            raise ConfigError(f"max_inner_iters must be an integer >= 1, got {value!r}")


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
    """Optimality evidence for a solve's last iterate, returned with the
    answer or carried by the ConvergenceError of a failed solve."""

    gap_rel: float                 # duality gap bound per log-rate term at tau_final
    kkt: KktReport                 # check_kkt at the solve's tolerances
    objective_trace: list          # sum of log rates after each centering
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


def strictly_feasible_point(problem: RateProblem) -> np.ndarray:
    """A copy of `problem.start`, the strictly feasible interior point that
    `assemble` builds (see its "interior point" section)."""
    return problem.start.copy()


class _NewtonSystem:
    """Augmented KKT system of the Newton step, solved by block elimination
    onto the base-station rows and one dense Cholesky factor.

    In slack coordinates sigma_k = c_k t_k - f_k the unknowns are
    dy = (dsigma, dt, dm), so dx = (c dt - dsigma, dt, dm), and z for the
    rows R = [U; G_c; A], whose diagonal block is -D = -diag(r^2, s_c/lam_c, 0).
    With a = lam/s on capacity row k and d_f, d_t, d_m the nonnegativity
    weights of f, t and m, dsigma_k meets only its own diagonal a + d_f,
    its t_k entry -c d_f and R's f_k column R_f, so it is eliminated exactly:

        dsigma = (g_sigma + c d_f dt + R_f' z) / (a + d_f).

    That leaves N, over (dt, dm, z): the diagonal p = (d_t + c^2 d_f q, d_m)
    with q = a/(a + d_f), the coupling E = [R_f diag(cq) + R_t, R_m] and the
    row block -(D + R_f diag(1/(a + d_f)) R_f').  The solver factors N in
    three stages:

    1. (dt, dm) is diagonal with positive pivots, which leaves
       W = D + R_f diag(1/(a + d_f)) R_f' + E diag(1/p) E' over the rows;
    2. W is diagonal on the rate rows, since no flow enters two of them and
       each t_k meets at most one (through f_k), so they are eliminated too;
    3. what is left spans the resource, fiber and conservation rows, at
       most 3 per BS whatever the UE count, and is factored by dense
       Cholesky in packed lower storage (LAPACK dpptrf, which OpenBLAS
       does not thread, so it rounds alike at any thread count).

    W = D + R K^-1 R', with K the positive definite block of (dsigma, dt,
    dm).  D >= 0 is zero only on the conservation rows, and a z on those
    alone has R'z != 0 because A has full row rank (problem.py), so W and
    stage 3's block, its Schur complement, are positive definite with no
    regularization.  W sums, per flow, alpha (R_f e_k)(R_f e_k)' + beta
    ((R_f e_k)(R_t e_k)' + its transpose) + gamma (R_t e_k)(R_t e_k)', with
    gamma = 1/p, beta = c q gamma and alpha = 1/(a + d_f) + c q beta, and
    gamma (R_m e_j)(R_m e_j)' per fiber variable.  The entry pairs of those
    columns are listed here, and each step's block is one bincount of them
    and of the rate-row elimination's pairs.  Relies on assemble's layout:
    G's rows open with capacity row k, f_k - c_k t_k, and close with
    nonnegativity row i, -x_i, and the access flows come first, each
    entering one rate row and one conservation row, its t_k one resource
    row.  Refinement against the full system removes the elimination's
    rounding.  See docs/solver_notes.md, "Augmented system" to "Refinement".
    """

    def __init__(self, problem: RateProblem):
        nf, n, rs = problem.n_flow, problem.n_var, problem.row_slices
        G, U, A = problem.G, problem.U_mat, problem.A
        self.problem = problem
        self.sl_c = slice(rs["resource"].start, rs["fiber"].stop)
        # M dx = (ds, dr), the step of the slacks and the rates
        self.M = stack_rows([(G.indptr, G.indices, -G.data), (U.indptr, U.indices, U.data)], n)
        self.R = R = stack_rows([(U.indptr, U.indices, U.data),
                                 (G.indptr[self.sl_c.start:self.sl_c.stop + 1], G.indices, G.data),
                                 (A.indptr, A.indices, A.data)], n)
        self.M_t, self.R_t = self.M.T, R.T          # CSC views
        n_u = U.shape[0]
        self.n_u, self.n_eq = n_u, A.shape[0]
        self.n_b = n_b = R.shape[0] - n_u           # resource, fiber and conservation rows
        self._vec = np.zeros(n)

        # the column pairs of R whose entries meet in W, with the index of
        # their weight in (alpha, beta, gamma), which sit at k, nf + k and
        # nf + column: f_k with itself and with t_k for the access flows in
        # rate-row order, then for the other flows, t_k with f_k, and every
        # t and m column with itself
        acc, k, j = U.indices, np.arange(nf), np.arange(nf, n)
        rest, ft = np.arange(acc.size, nf), np.stack([acc, nf + acc], axis=1).ravel()
        a = np.concatenate([np.repeat(acc, 2), rest, rest, nf + k, j])
        b = np.concatenate([ft, rest, nf + rest, k, j])
        w = np.concatenate([ft, rest, nf + rest, nf + k, nf + j])
        Rc = R.tocsc()
        p, q, g = _pairs(Rc.indptr, a, b)
        rp, rq = Rc.indices[p], Rc.indices[q]
        coef, w = Rc.data[p] * Rc.data[q], w[g]
        to_b, from_u = rq >= n_u, rp < n_u
        lower = to_b & (rp >= rq)                   # the lower triangle of the BS rows
        coupled = to_b & from_u                     # rate row rp, BS row rq, by rate row
        own = from_u & ~to_b                        # a rate row's own diagonal
        self._du = (rp[own], w[own], coef[own])
        self._x = (rp[coupled], rq[coupled] - n_u, w[coupled], coef[coupled])
        xu, xb = self._x[:2]
        # pairs of couplings of one rate row, which its elimination joins
        pp, pq, _ = _pairs(np.concatenate([[0], np.cumsum(np.bincount(xu, minlength=n_u))]),
                           np.arange(n_u), np.arange(n_u))
        low = xb[pp] >= xb[pq]
        self._pair = (pp[low], pq[low], xu[pp[low]])
        # entry (i, j), i >= j, of the block sits at i + j (2 n_b - j - 1) / 2
        # of its packed lower triangle, the layout dpptrf reads
        i = np.concatenate([rp[lower] - n_u, xb[pp[low]]])
        j = np.concatenate([rq[lower] - n_u, xb[pq[low]]])
        self._flat = i + j * (2 * n_b - j - 1) // 2
        d = np.arange(n_b)
        self._diag = d + d * (2 * n_b - d - 1) // 2
        self._block = (w[lower], coef[lower])

    def solve(self, s: np.ndarray, r: np.ndarray, lam: np.ndarray, grad: np.ndarray,
              full: bool = True):
        """Newton step (dx, w) at slacks s = h - Gx, rates r = Ux and
        inequality multipliers lam, with row weights lam / s, or None when
        the dense factor is not positive definite.  The step is refined
        against the whole system, dsigma rows included:
        _REFINE_PASSES passes with `full`, one without."""
        p = self.problem
        nf, n, c, n_u, n_b = p.n_flow, p.n_var, p.cap, self.n_u, self.n_b
        wt = lam / s
        a, d = wt[:nf], wt[-n:]         # capacity rows come first, nonnegativity last
        d_f, d_t, d_m = d[:nf], d[nf:2 * nf], d[2 * nf:]
        cd, a_f = c * d_f, a + d_f
        inv = 1.0 / a_f
        cq = c * a * inv
        gam = 1.0 / np.concatenate([d_t + cd * cq, d_m])
        beta = cq * gam[:nf]
        weights = np.concatenate([inv + cq * beta, beta, gam])
        row_d = np.concatenate([r ** 2, 1.0 / wt[self.sl_c], np.zeros(self.n_eq)])

        du_row, du_w, du_c = self._du
        du = 1.0 / (row_d[:n_u] + np.bincount(du_row, weights[du_w] * du_c, minlength=n_u))
        xu, xb, xw, xc = self._x
        x = weights[xw] * xc
        pp, pq, pu = self._pair
        bw, bc = self._block
        block = np.bincount(self._flat, np.concatenate([weights[bw] * bc,
                                                        -(x[pp] * x[pq] * du[pu])]),
                            minlength=n_b * (n_b + 1) // 2)
        block[self._diag] += row_d[n_u:]
        factor, info = dpptrf(n_b, block, lower=1, overwrite_ap=1)
        if info > 0:                     # not positive definite: no step
            return None
        R, R_t, vec = self.R, self.R_t, self._vec

        def eliminated(g_s, g_t, g_m, dx=0.0, dz=0.0):
            """Solve the full system for g = (g_sigma, g_t, g_m, dz - R dx):
            reduce to the rows, eliminate the rate rows, solve on the factor
            and back-substitute.  Returns (dsigma, dt, dm, z) and R'z."""
            h = inv * g_s
            u_y = np.concatenate([g_t + cd * h, g_m]) * gam
            np.subtract(cq * u_y[:nf], h, out=vec[:nf])
            vec[nf:] = u_y
            rows = R @ (vec + dx) - dz      # E u - (g_z + R_f h), u the pivot-scaled rhs
            c_u = rows[:n_u] * du
            z_b = dpptrs(n_b, factor, rows[n_u:] - np.bincount(xb, x * c_u[xu], minlength=n_b),
                         lower=1)[0]
            z = np.concatenate([c_u - du * np.bincount(xu, x * z_b[xb], minlength=n_u), z_b])
            y = R_t @ z
            dt = u_y[:nf] - gam[:nf] * (cq * y[:nf] + y[nf:2 * nf])
            return np.concatenate([inv * (g_s + cd * dt + y[:nf]), dt,
                                   u_y[nf:] - gam[nf:] * y[2 * nf:], z]), y

        # the Newton right-hand side in slack coordinates, zero on the rows
        g_s, g_t, g_m = grad[:nf], -(c * grad[:nf] + grad[nf:2 * nf]), -grad[2 * nf:]
        v, y = eliminated(g_s, g_t, g_m)
        c_tt = c * cd + d_t
        for _ in range(_REFINE_PASSES if full else 1):
            # the residual of the full system at v = (dsigma, dt, dm, z),
            # whose R'z is y, and a correction from it
            sigma, t, m = v[:nf], v[nf:2 * nf], v[2 * nf:n]
            dv, dy = eliminated(g_s - (a_f * sigma - cd * t - y[:nf]),
                                g_t - (c_tt * t - cd * sigma + c * y[:nf] + y[nf:2 * nf]),
                                g_m - (d_m * m + y[2 * nf:]),
                                np.concatenate([c * t - sigma, v[nf:n]]), row_d * v[n:])
            v += dv
            y += dy
        return np.concatenate([c * v[nf:2 * nf] - v[:nf], v[nf:n]]), v[-self.n_eq:]


def _pairs(ptr, a, b):
    """Every pair (p, q) of an entry p of column a[i] and an entry q of
    column b[i] of a compressed matrix with index pointer ptr, and its i."""
    na, nb = ptr[a + 1] - ptr[a], ptr[b + 1] - ptr[b]
    size = na * nb
    i = np.repeat(np.arange(a.size), size)
    off = np.arange(i.size) - np.repeat(np.cumsum(size) - size, size)
    nb_i = nb[i]
    return ptr[a][i] + off // nb_i, ptr[b][i] + off % nb_i, i


def _step_to_boundary(v: np.ndarray, dv: np.ndarray) -> float:
    """Ratio test: the full step, or 99% of the longest that keeps v + alpha dv
    strictly positive, whichever is shorter."""
    # v / min(dv, -1e-300) is v / dv where dv < 0 and hugely negative elsewhere
    with np.errstate(over="ignore"):
        return min(1.0, _BOUNDARY_BACKOFF * -float((v / np.minimum(dv, -1e-300)).max()))


def _center(v: np.ndarray, lam: np.ndarray, tau: float, last: bool,
            max_iters: int, newton: _NewtonSystem):
    """Newton iterations for one barrier subproblem from the interior point
    v = (s, r), the slacks s = h - Gx and rates r = Ux of some x, with
    inequality multipliers lam > 0.  x itself is not carried: its
    nonnegativity slacks h - (-x) = x are a block of s, stepped alike.
    The last centering stops at the decrement `_NEWTON_TOL` and refines
    each step by `_REFINE_PASSES` passes; the others stop at `_PATH_TOL`
    and take one pass.

    Returns (v, lam, w, iters, failure): the last iterate's carried slacks
    and rates and multipliers, the conservation multipliers, the number of
    damped steps taken, and None or the reason centering stopped short
    (iteration cap, failed line search, singular factor).

    Minimizes psi = F + phi/tau (the 1/tau scaling keeps values and
    gradients at the scale of F for any tau, so line-search comparisons
    stay above floating-point noise).  Each step is the primal-dual one:
    the Newton matrix weighs row k by lam_k / s_k in place of the primal
    1/(tau s_k^2), and the right-hand side stays -grad psi, so dx descends
    psi and the line search is unchanged.  The multipliers take their own
    step dlam = 1/(tau s) - lam - (lam / s) ds, damped to stay positive,
    and are then kept within a factor `_LAM_SPREAD` of 1/(tau s), so a
    centering that makes no progress cannot blow them up; lam = 1/(tau s)
    gives the primal barrier step.  Stops once the half squared Newton
    decrement is below `tol`, the full step keeps every slack positive
    (|ds| < s) and every multiplier positive (lam + dlam > 0); the
    decrement bounds |dr / r| below sqrt(2 tol), under 0.045 for any tol
    `solve` passes, so the rates stay positive too.  It then takes that
    full step and returns the step's multipliers
    lam + dlam = 1/(tau s) - (lam / s) ds, and w.  They satisfy
    stationarity at the new point up to the linear solve's residual and a
    term quadratic in dx.  On failure lam is the carried multiplier of the
    last iterate.
    """
    M, M_t, m = newton.M, newton.M_t, lam.size
    tol = _NEWTON_TOL if last else _PATH_TOL
    w = np.zeros(newton.n_eq)      # returned as is if the first factor is singular
    tau_v = np.concatenate([np.full(m, tau), np.ones(v.size - m)])

    def barrier(v):
        return -np.log(v[m:]).sum() - np.log(v[:m]).sum() / tau

    psi = barrier(v)
    for it in range(max_iters):
        inv_v = 1.0 / v
        y = inv_v / tau_v               # (1/(tau s), 1/r), and M = [-G; U]
        grad = -(M_t @ y)
        step = newton.solve(v[:m], v[m:], lam, grad, full=last)
        if step is None:
            return v, lam, w, it, "singular Newton matrix"
        dx, w = step
        dv = M @ dx
        ds = dv[:m]
        d_lam = y[:m] - lam - lam * inv_v[:m] * ds
        q = dv * inv_v
        q *= q
        decrement = float(q[m:].sum() + q[:m].sum() / tau)
        if (decrement / 2.0 <= tol and np.all(np.abs(ds) < v[:m])
                and np.all(lam + d_lam > 0)):
            return v + dv, lam + d_lam, w, it, None
        alpha = _step_to_boundary(v, dv)
        slope = float(np.multiply(grad, dx).sum())
        while alpha > 1e-14:
            v_new = v + alpha * dv
            if v_new.min() > 0:
                psi_new = barrier(v_new)
                if psi_new <= psi + _ARMIJO * alpha * slope:
                    break
            alpha *= _STEP_SHRINK
        else:
            return v, lam, w, it, "line search failed"
        v, psi = v_new, psi_new
        lam = lam + _step_to_boundary(lam, d_lam) * d_lam
        central = 1.0 / (tau * v[:m])
        lam = np.minimum(np.maximum(lam, central / _LAM_SPREAD), central * _LAM_SPREAD)
    return v, lam, w, max_iters, "inner Newton iteration cap hit"


def solve(problem: RateProblem, cfg: SolverConfig | None = None):
    """Maximize the sum of log rates; returns (Solution, Certificate).

    tau runs 1, 100, 1e4, ... (a long-step schedule) up to `tau_needed`,
    where the gap bound m/tau per log-rate term is below `duality_gap_tol`;
    each value is one centering of at most `max_inner_iters` Newton steps,
    stopped at the decrement `_PATH_TOL`, except the last at `_NEWTON_TOL`.
    The certificate carries `check_kkt` of the answer at `duality_gap_tol`
    and `feasibility_tol`, which it always passes on return.  `assemble`
    raises InfeasibleProblemError when it can build no strictly feasible
    point; `solve` raises it only when that point's slacks or rates are
    not all positive.  Raises ConvergenceError when a centering hits its
    cap or its line search fails, or when the final point fails that
    check.  The error carries the last iterate and its certificate, with
    the gap bound at the tau being centered and the KKT report saying what
    fails; when a centering failed, that report pairs the iterate with
    lam = 1/(tau s).
    The answer x is the nonnegativity block of the carried slacks, which
    starts as 0 + x and takes x's steps.  Deterministic for fixed inputs.
    """
    cfg = cfg or SolverConfig()
    n_terms = 2 * problem.n_included
    m_ineq = problem.G.shape[0]

    newton = _NewtonSystem(problem)
    v = (np.concatenate([problem.h, np.zeros(n_terms)])     # (s, r)
         + newton.M @ strictly_feasible_point(problem))
    if np.any(v <= 0):
        raise InfeasibleProblemError("starting point is not strictly feasible")
    # the last tau, 5% past the gap bound, keeps the final gap below the tolerance
    tau_needed = 1.05 * m_ineq / (cfg.duality_gap_tol * n_terms)
    tau = _TAU0
    # carried across centerings: resetting lam to 1/(tau s) when tau grows
    # costs more steps (docs: Carried multipliers)
    lam = 1.0 / (tau * v[:m_ineq])
    trace = []
    inner_total = 0
    while True:
        last = tau >= tau_needed
        v, lam, w, inner, failure = _center(v, lam, tau, last, cfg.max_inner_iters, newton)
        inner_total += inner
        trace.append(float(np.log(v[m_ineq:]).sum()))
        if failure or last:
            break
        tau = min(tau * _BARRIER_INCREASE, tau_needed)
    if failure:
        # the carried lam may sit up to _LAM_SPREAD off 1/(tau s), which
        # would leave the failure's KKT report saying nothing of x
        lam = 1.0 / (tau * v[:m_ineq])

    x = v[problem.row_slices["nonneg"]]     # the slacks of -x <= 0 are x
    r_ul, r_dl = problem.rates_bps(x)
    solution = Solution(
        x=x, ue_ids=problem.ue_ids.copy(), r_ul_bps=r_ul, r_dl_bps=r_dl,
        gm_bps=problem.gm_bps(x), objective_log=problem.objective_log(x),
        scale_bps=problem.scale_bps, lam=lam, nu=w,
    )
    kkt = check_kkt(problem, solution, tol=cfg.duality_gap_tol,
                    feas_tol=cfg.feasibility_tol)
    certificate = Certificate(
        gap_rel=m_ineq / tau / n_terms, kkt=kkt, objective_trace=trace,
        outer_iters=len(trace), inner_iters=inner_total, tau_final=tau,
        n_inequalities=m_ineq,
    )
    if failure is None and not kkt.ok:
        failure = (f"final point fails the KKT check: stationarity "
                   f"{kkt.stationarity:.2e}, primal_ineq {kkt.primal_ineq:.2e}, "
                   f"primal_eq {kkt.primal_eq:.2e}")
    if failure:
        raise ConvergenceError(failure, best_x=x, certificate=certificate)
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

    U_t, G_t, A_t = problem.transposes
    r = problem.U_mat @ x
    grad0 = -(U_t @ (1.0 / r))
    resid = grad0 + G_t @ lam + A_t @ nu
    scale = max(1.0, float(np.abs(grad0).max()))
    stationarity = float(np.abs(resid).max()) / scale

    s = problem.h - problem.G @ x
    comp_gap_rel = float(np.multiply(lam, s).sum()) / (2 * problem.n_included)
    dual_min = float(lam.min()) if lam.size else 0.0

    ok = (stationarity <= tol and primal_ineq <= feas_tol
          and primal_eq <= feas_tol and dual_min >= -tol
          and comp_gap_rel <= tol)
    return KktReport(ok=ok, stationarity=stationarity, primal_ineq=primal_ineq,
                     primal_eq=primal_eq, dual_feas_min=dual_min,
                     comp_gap_rel=comp_gap_rel)
