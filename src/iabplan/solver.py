"""Certified primal-dual barrier interior-point solver for the rate program.

The geometric-mean objective is maximized through its monotone transform
F(x) = -sum_i [log r_i^UL + log r_i^DL], a smooth convex function on the
interior of the linear feasible region.  We follow the central path of

    minimize  tau * F(x) - sum_k log(h_k - g_k' x)    subject to  A x = 0

with damped Newton steps.  Each step solves, in augmented form, the system

    [ H   A' ] [dx]   [-grad]          H  = tau * H_F + G' diag(tau lam/s) G
    [ A   0  ] [ w] = [  0  ]          s  = h - G x  (slacks, kept > 0)

so every iterate satisfies the conservation equalities exactly; it is
solved in the slack coordinates of `_NewtonSystem`, dx = T dy.  Slacks,
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
step is LAPACK's packed Cholesky, whose bits do not depend on the BLAS
thread count (OpenBLAS threads it from a block side of about 100, which
changes only its speed), so iterates repeat bit for bit under one BLAS
build.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass

import numpy as np
from scipy.linalg.lapack import dpptrf, dpptrs

from .errors import ConfigError, ConvergenceError, InfeasibleProblemError
from .problem import RateProblem, csr, matvec, rmatvec, sorted_rows, validate

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
    """Augmented KKT system of the Newton step in slack coordinates, solved
    by block elimination onto the base-station rows and one dense Cholesky
    factor.

    The unknowns are y = (sigma, t, m), with sigma_k = c_k t_k - f_k the
    slack of capacity row k, so x = T y = (c t - sigma, t, m), and z for the
    rows R = [U; G_c; A], whose diagonal block is -D = -diag(r^2, s_c/lam_c,
    0).  The step is read through M_y = [-G; U] T, which maps dy to the
    step (ds, dr) of the slacks and rates: a capacity row of -G T is
    sigma_k alone, so that slack's step is dsigma itself, and the
    nonnegativity rows are T.  The system multiplies by R_y = R T.  Both
    are built once per solve from R's column table on the problem (see
    `_slack_operators`); x-coordinate M and R are not built.  The barrier
    rows weigh capacity row k by a = lam/s and the nonnegativity rows of
    f, t and m by d_f, d_t and d_m, so the variable
    block K is 2x2 per flow, [[a + d_f, -c d_f], [-c d_f, d_t + c^2 d_f]]
    over (sigma_k, t_k), and d_m on m.  With det = a (c^2 d_f + d_t) +
    d_f d_t, a sum of positive terms, K^-1 is two diagonals applied to the
    stacked y: P = ((d_t + c^2 d_f) / det, (a + d_f) / det, 1/d_m) and the
    off-diagonal P_st = c d_f / det, which couples sigma_k and t_k.  K is
    the same two diagonals, so the refinement residual g - K dy - R_y'z
    costs a few vector operations.

    Eliminating dy = K^-1 (g - R_y'z) leaves W z = R_y K^-1 g - g_z, with
    W = D + R_y K^-1 R_y' = D + R K_x^-1 R' and K_x^-1 = T K^-1 T', which
    is factored in two stages:

    1. W is diagonal on the rate rows, since no flow enters two of them and
       each t_k meets at most one (through f_k), so they are eliminated;
    2. what is left spans the resource, fiber and conservation rows, at
       most 3 per BS whatever the UE count, and is factored by dense
       Cholesky in packed lower storage (LAPACK dpptrf; OpenBLAS threads
       it from a side of about 100, so its speed depends on the thread
       count there, but its bits do not).

    D >= 0 is zero only on the conservation rows, and a z on those alone
    has R'z != 0 because A has full row rank (problem.py), so W and stage
    2's block, its Schur complement, are positive definite with no
    regularization.  W is summed over R's columns in the x-coordinate
    weights, the entries of K_x^-1: per flow alpha (R_f e_k)(R_f e_k)' +
    beta ((R_f e_k)(R_t e_k)' + its transpose) + gamma (R_t e_k)(R_t e_k)',
    with alpha = (c^2 a + d_t) / det, beta = c a / det and gamma = P_tt,
    and gamma = 1/d_m (R_m e_j)(R_m e_j)' per fiber variable.  The entry
    pairs of those columns are listed once per solve from the table, and
    each step's block is one bincount of them, of D's diagonal and of the
    rate-row elimination's pairs.  Refinement against the full system
    removes the elimination's rounding.  See docs/solver_notes.md,
    "Augmented system" to "Refinement".
    """

    def __init__(self, problem: RateProblem):
        nf, n, rs = problem.n_flow, problem.n_var, problem.row_slices
        n_u, n_c, n_eq = problem.r_blocks
        self.problem, self.n_u, self.n_eq = problem, n_u, n_eq
        self.sl_c = slice(rs["resource"].start, rs["fiber"].stop)
        self.n_b = n_b = n_c + n_eq                 # resource, fiber and conservation rows
        self.M_y, self.R_y = _slack_operators(problem)

        # per-solve buffers, rewritten each step: the weights (alpha, beta,
        # K^-1's diagonal P over y, D's diagonal), K's diagonal, and K's
        # and K^-1's off-diagonals, zero on m; `swap` exchanges sigma_k
        # and t_k
        self._buf = np.zeros(2 * nf + n + n_u + n_b)
        self._p_d, self._row_d = self._buf[2 * nf:2 * nf + n], self._buf[2 * nf + n:]
        self._r2, self._row_c = self._row_d[:n_u], self._row_d[n_u:n_u + n_c]
        self._k_d, self._k_o, self._p_o = np.empty(n), np.zeros(n), np.zeros(n)
        self._swap = swap = np.arange(n)
        swap[:nf] += nf
        swap[nf:2 * nf] -= nf

        # the column pairs of R whose entries meet in W's lower triangle or
        # on the rate rows, each column's (at most two) entries by R's
        # column table, with the index in the buffer of their weight: f_k
        # with itself (alpha_k at k) and with t_k (beta_k at nf + k), and
        # every t and m column j with itself (gamma at 2 nf + j).  t_k with
        # f_k would pair a resource row with a later row of R
        a = np.concatenate([np.arange(nf), np.arange(n)])
        b = np.concatenate([np.arange(2 * nf), np.arange(nf, n)])
        w = np.concatenate([np.arange(2 * nf), np.arange(3 * nf, 2 * nf + n)])
        # the rows widened to intp: the index arrays built from them are read
        # at every step, and NumPy would convert int32 ones at every read
        row, val = problem.R_row.astype(np.intp), problem.R_val
        rp, rq = row[a][:, [0, 0, 1, 1]].ravel(), row[b][:, [0, 1, 0, 1]].ravel()
        at = (rp >= 0) & (rq >= 0)
        rp, rq, w = rp[at], rq[at], np.repeat(w, 4)[at]
        coef = (val[a][:, [0, 0, 1, 1]] * val[b][:, [0, 1, 0, 1]]).ravel()[at]
        to_b, from_u = rq >= n_u, rp < n_u
        lower = to_b & (rp >= rq)                   # the lower triangle of the BS rows
        own = from_u & ~to_b                        # a rate row's own diagonal
        # rate row rp's couplings to BS row rq, by rate row
        coupled = np.flatnonzero(to_b & from_u)
        coupled = coupled[np.argsort(rp[coupled], kind="stable")]
        # one gather gives the rate rows' diagonals, r^2 included, and the couplings
        d_row = 2 * nf + n + np.arange(n_u)
        self._gather = (np.concatenate([w[own], d_row, w[coupled]]),
                        np.concatenate([coef[own], np.ones(n_u), coef[coupled]]))
        self._du_row = np.concatenate([rp[own], np.arange(n_u)])
        self._x = (rp[coupled], rq[coupled] - n_u)
        xu, xb = self._x
        # pairs of couplings of one rate row, which its elimination joins
        pp, pq = _pairs(np.concatenate([[0], np.cumsum(np.bincount(xu, minlength=n_u))]))
        low = xb[pp] >= xb[pq]
        self._pair = (pp[low], pq[low], xu[pp[low]])
        # entry (i, j), i >= j, of the block sits at i + j (2 n_b - j - 1) / 2
        # of its packed lower triangle, the layout dpptrf reads; D's nonzero
        # diagonal on the BS rows joins the R-part, with weight 1 on its
        # buffer entries
        d = np.arange(n_c)
        i = np.concatenate([rp[lower] - n_u, d, xb[pp[low]]])
        j = np.concatenate([rq[lower] - n_u, d, xb[pq[low]]])
        self._flat = i + j * (2 * n_b - j - 1) // 2
        self._block = (np.concatenate([w[lower], d_row[-1] + 1 + d]),
                       np.concatenate([coef[lower], np.ones(n_c)]))

    def solve(self, wt: np.ndarray, r: np.ndarray, g: np.ndarray, full: bool = True):
        """Newton step (dy, w) at row weights wt = lam / s and rates r, for
        the right-hand side g = -T' grad psi, or None when the dense factor
        is not positive definite.  The step is refined against the whole
        system: _REFINE_PASSES passes with `full`, one without."""
        p = self.problem
        nf, n, c, n_u, n_b = p.n_flow, p.n_var, p.cap, self.n_u, self.n_b
        buf, p_d, row_d = self._buf, self._p_d, self._row_d
        k_d, k_o, p_o, swap = self._k_d, self._k_o, self._p_o, self._swap
        a, d = wt[:nf], wt[-n:]         # capacity rows come first, nonnegativity last
        d_f, d_t = d[:nf], d[nf:2 * nf]
        cd = c * d_f
        np.add(a, d_f, out=k_d[:nf])
        k_d[nf:] = d[nf:]
        k_d[nf:2 * nf] += c * cd
        np.negative(cd, out=k_o[:nf])
        k_o[nf:2 * nf] = k_o[:nf]
        inv_det = 1.0 / (a * k_d[nf:2 * nf] + d_f * d_t)
        ca = c * a
        np.multiply(c * ca + d_t, inv_det, out=buf[:nf])          # alpha
        np.multiply(ca, inv_det, out=buf[nf:2 * nf])              # beta
        np.multiply(k_d[nf:2 * nf], inv_det, out=p_d[:nf])        # P_ss
        np.multiply(k_d[:nf], inv_det, out=p_d[nf:2 * nf])        # P_tt
        np.divide(1.0, d[2 * nf:], out=p_d[2 * nf:])
        np.multiply(cd, inv_det, out=p_o[:nf])                    # P_st
        p_o[nf:2 * nf] = p_o[:nf]
        np.multiply(r, r, out=self._r2)
        np.divide(1.0, wt[self.sl_c], out=self._row_c)

        idx, coef = self._gather
        wx = buf[idx] * coef
        du_row = self._du_row
        du = 1.0 / np.bincount(du_row, wx[:du_row.size], minlength=n_u)
        x = wx[du_row.size:]
        xu, xb = self._x
        pp, pq, pu = self._pair
        bw, bc = self._block
        block = np.bincount(self._flat, np.concatenate([buf[bw] * bc, -(x[pp] * x[pq] * du[pu])]),
                            minlength=n_b * (n_b + 1) // 2)
        factor, info = dpptrf(n_b, block, lower=1, overwrite_ap=1)
        if info > 0:                     # not positive definite: no step
            return None
        R_y = self.R_y

        def eliminated(g, dy=None, dz=None):
            """Solve the full system for g = (g_y, dz - R_y dy): reduce to the
            rows, eliminate the rate rows, solve on the factor and
            back-substitute.  Returns dy, z and R_y'z."""
            u = p_d * g
            u += p_o * g[swap]
            rows = matvec(R_y, u) if dy is None else matvec(R_y, u + dy) - dz
            c_u = rows[:n_u] * du
            z_b = dpptrs(n_b, factor, rows[n_u:] - np.bincount(xb, x * c_u[xu], minlength=n_b),
                         lower=1)[0]
            z = np.concatenate([c_u - du * np.bincount(xu, x * z_b[xb], minlength=n_u), z_b])
            q = rmatvec(R_y, z)
            e = g - q
            step = p_d * e
            step += p_o * e[swap]
            return step, z, q

        dy, z, q = eliminated(g)
        for _ in range(_REFINE_PASSES if full else 1):
            # the residual of the full system at (dy, z), whose R_y'z is q,
            # and a correction from it
            e_dy, e_z, e_q = eliminated(g - q - k_d * dy - k_o * dy[swap], dy, row_d * z)
            dy += e_dy
            z += e_z
            q += e_q
        return dy, z[-self.n_eq:]


def _slack_operators(problem: RateProblem):
    """M_y = [-G; U] T and R_y = R T, R = [U; G_c; A], as CSR matrices,
    grouped from R's column table by one stable sort.  Both are runs of the
    rows of S T, S = [-G_c; I; U; G_c; A], after the capacity slacks' own
    rows: -G opens with the capacity rows, whose S T row is sigma_k alone,
    and closes with -(-I), whose rows times T are the step of the
    nonnegativity slacks, which are x.  So M_y = [sigma; -G_c T; T; U T] is
    the run up to U T, and R_y the run from U T on.  The entries are listed
    by x column, so each row keeps its columns in x's order: an f_k column
    holds its identity row and two rows of R, and T turns each entry v into
    -v at sigma_k and then c_k v at t_k; a t or m column is in y already
    and adds its G_c rows negated."""
    nf, n, c = problem.n_flow, problem.n_var, problem.cap
    n_u, n_c, n_eq = problem.r_blocks
    row, val = problem.R_row, problem.R_val
    k, j = np.arange(nf), np.arange(nf, n)
    r0 = nf + n_c + n                           # the first row of R in S T
    f_row = np.column_stack([nf + n_c + k, r0 + row[:nf]]).ravel()
    t_val = np.column_stack([-np.ones(nf), c])[:, None, :]         # T's entries in row f_k
    f_val = (np.column_stack([np.ones(nf), val[:nf]])[:, :, None] * t_val).ravel()
    x, v = row[nf:], val[nf:]
    x_row = np.column_stack([np.where((x >= n_u) & (x < n_u + n_c), nf - n_u + x, -1),
                             nf + n_c + j, np.where(x >= 0, r0 + x, -1)])
    at = x_row >= 0
    ptr, ind, dat = sorted_rows(
        np.concatenate([k, np.repeat(f_row, 2), x_row[at]]), r0 + n_u + n_c + n_eq,
        np.concatenate([k, np.repeat(k, 6) + np.tile([0, nf], 3 * nf), nf + np.nonzero(at)[0]]),
        np.concatenate([np.ones(nf), f_val, np.column_stack([-v, np.ones(n - nf), v])[at]]))
    return csr(ptr[:r0 + n_u + 1], ind, dat, n), csr(ptr[r0:], ind, dat, n)


def _pairs(ptr):
    """Every pair (p, q) of two entries of one column of a compressed
    matrix with index pointer ptr, column by column."""
    count = np.diff(ptr)
    size = count * count
    i = np.repeat(np.arange(count.size), size)
    p, q = np.divmod(np.arange(i.size) - (np.cumsum(size) - size)[i], count[i])
    return ptr[i] + p, ptr[i] + q


def _steps_to_boundary(v: np.ndarray, dv: np.ndarray, lam: np.ndarray,
                       d_lam: np.ndarray) -> tuple:
    """Both ratio tests in one call: for v and for lam, the full step, or 99%
    of the longest that keeps the vector plus alpha times its step strictly
    positive, whichever is shorter."""
    # the most negative relative step dx / x, or -1e-300 when none is
    return tuple(min(1.0, -_BOUNDARY_BACKOFF / min(float((d / x).min()), -1e-300))
                 for x, d in ((v, dv), (lam, d_lam)))


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
    stay above floating-point noise).  The step is taken in the slack
    coordinates y of `_NewtonSystem`: its right-hand side -T' grad psi is
    M_y'(1/(tau s), 1/r), and M_y dy is the step (ds, dr) of the carried
    slacks and rates, whose capacity-slack part is dsigma itself.  Each
    step is the primal-dual one: the Newton matrix weighs row k by
    lam_k / s_k in place of the primal 1/(tau s_k^2), and the right-hand
    side stays -grad psi, so dy descends psi and the line search is
    unchanged.  The multipliers take their own step
    dlam = 1/(tau s) - lam - (lam / s) ds, damped to stay positive, and
    are then kept within a factor `_LAM_SPREAD` of 1/(tau s), so a
    centering that makes no progress cannot blow them up; lam = 1/(tau s)
    gives the primal barrier step.  Stops once the half squared Newton
    decrement is below `tol`, the full step keeps every slack positive
    (|ds| < s) and every multiplier positive (lam + dlam > 0); the
    decrement bounds |dr / r| below sqrt(2 tol), under 0.045 for any tol
    `solve` passes, so the rates stay positive too.  It then takes that
    full step and returns the step's multipliers
    lam + dlam = 1/(tau s) - (lam / s) ds, and w.  They satisfy
    stationarity at the new point up to the linear solve's residual and a
    term quadratic in dy.  On failure lam is the carried multiplier of the
    last iterate.
    """
    M_y, m = newton.M_y, lam.size
    tol = _NEWTON_TOL if last else _PATH_TOL
    w = np.zeros(newton.n_eq)      # returned as is if the first factor is singular
    tau_v = np.concatenate([np.full(m, tau), np.ones(v.size - m)])

    def barrier(v):
        log_v = np.log(v)
        return -log_v[m:].sum() - log_v[:m].sum() / tau

    psi = barrier(v)
    for it in range(max_iters):
        inv_v = 1.0 / v
        y = inv_v / tau_v               # (1/(tau s), 1/r)
        g = rmatvec(M_y, y)             # -grad psi in slack coordinates
        wt = lam * inv_v[:m]
        step = newton.solve(wt, v[m:], g, full=last)
        if step is None:
            return v, lam, w, it, "singular Newton matrix"
        dy, w = step
        dv = matvec(M_y, dy)
        ds = dv[:m]
        d_lam = y[:m] - lam - wt * ds
        q = dv * inv_v
        q *= q
        decrement = float(q[m:].sum() + q[:m].sum() / tau)
        if (decrement / 2.0 <= tol and np.all(np.abs(ds) < v[:m])
                and np.all(lam + d_lam > 0)):
            return v + dv, lam + d_lam, w, it, None
        alpha, alpha_lam = _steps_to_boundary(v, dv, lam, d_lam)
        slope = -float(np.multiply(g, dy).sum())
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
        lam = lam + alpha_lam * d_lam
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
    x0 = strictly_feasible_point(problem)
    v = np.concatenate([problem.h - matvec(problem.G, x0), matvec(problem.U_mat, x0)])  # (s, r)
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

    r = matvec(problem.U_mat, x)
    grad0 = -rmatvec(problem.U_mat, 1.0 / r)
    resid = grad0 + rmatvec(problem.G, lam) + rmatvec(problem.A, nu)
    scale = max(1.0, float(np.abs(grad0).max()))
    stationarity = float(np.abs(resid).max()) / scale

    s = problem.h - matvec(problem.G, x)
    comp_gap_rel = float(np.multiply(lam, s).sum()) / (2 * problem.n_included)
    dual_min = float(lam.min()) if lam.size else 0.0

    ok = (stationarity <= tol and primal_ineq <= feas_tol
          and primal_eq <= feas_tol and dual_min >= -tol
          and comp_gap_rel <= tol)
    return KktReport(ok=ok, stationarity=stationarity, primal_ineq=primal_ineq,
                     primal_eq=primal_eq, dual_feas_min=dual_min,
                     comp_gap_rel=comp_gap_rel)
