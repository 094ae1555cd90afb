import dataclasses
import gc
import time
import weakref

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from hypothesis import example, given, settings, strategies as st

from iabplan import (AnchorSet, BudgetConfig, ConfigError, ConvergenceError, IabPlanError,
                     SolverConfig, Variant, assemble, build_link_table, check_kkt,
                     generate_grid, make_scenario, select_anchors, solve,
                     strictly_feasible_point, synthetic_gains, validate)
from iabplan import solver
from iabplan.solver import _NewtonSystem
from iabplan.testkit import (analytic_chain_instance, analytic_single_instance,
                             links_from_caps, random_tiny_instance)

GAP = SolverConfig().duality_gap_tol


def solve_checked(prob, cfg=None):
    """Solve and assert the certificate holds (acceptance criterion 3),
    re-checked at the tolerances of `cfg`."""
    cfg = cfg or SolverConfig()
    sol, cert = solve(prob, cfg)
    assert cert.kkt.ok, f"certificate failed: {cert.kkt}"
    assert cert.kkt.stationarity <= 1e-10
    assert cert.gap_rel <= cfg.duality_gap_tol
    kkt = check_kkt(prob, sol, tol=cfg.duality_gap_tol, feas_tol=cfg.feasibility_tol)
    assert kkt.ok, f"KKT failed: {kkt}"
    return sol, cert


class TestAnalyticOptima:
    def test_single_ue_half_capacity(self):
        t0 = time.monotonic()
        prob, c = analytic_single_instance(c_bps=4e9)
        sol, _ = solve_checked(prob)
        assert sol.gm_bps == pytest.approx(c / 2, rel=1e-6)
        assert sol.r_ul_bps[0] == pytest.approx(c / 2, rel=1e-5)
        assert sol.r_dl_bps[0] == pytest.approx(c / 2, rel=1e-5)
        assert time.monotonic() - t0 < 1.0

    def test_two_hop_chain_harmonic_rate(self):
        t0 = time.monotonic()
        prob, expected = analytic_chain_instance(3e9, 5e9)
        sol, _ = solve_checked(prob)
        assert sol.gm_bps == pytest.approx(expected, rel=1e-6)
        assert time.monotonic() - t0 < 1.0

    def test_equal_capacity_chain_quarter_rate(self):
        prob, expected = analytic_chain_instance(4e9, 4e9)
        assert expected == pytest.approx(1e9)
        sol, _ = solve_checked(prob)
        assert sol.gm_bps == pytest.approx(4e9 / 4, rel=1e-6)


class TestOptimality:
    def test_beats_any_feasible_candidate(self):
        for seed in (0, 3, 5):
            prob = random_tiny_instance(seed)
            sol, _ = solve_checked(prob)
            x_cand = strictly_feasible_point(prob)
            assert validate(prob, x_cand, tol=1e-9).ok
            assert sol.gm_bps >= prob.gm_bps(x_cand) * (1 - 2 * GAP)

    def test_objective_trace_nondecreasing(self):
        prob = random_tiny_instance(2)
        _, cert = solve_checked(prob)
        trace = np.asarray(cert.objective_trace)
        assert (np.diff(trace) >= -1e-9 * np.abs(trace[:-1])).all()

    def test_deterministic_repeat(self):
        prob = random_tiny_instance(4)
        sol_a, cert_a = solve(prob)
        sol_b, cert_b = solve(prob)
        assert np.array_equal(sol_a.x, sol_b.x)
        assert cert_a.inner_iters == cert_b.inner_iters
        assert sol_a.gm_bps == sol_b.gm_bps


class TestInvariants:
    def test_scale_covariance(self):
        # multiplying every capacity (and the fiber pipe) by k scales GM by k
        base = dict(cap_ub=[[0.0, 3.1e9]], cap_bu=[[0.0], [2.7e9]],
                    cap_bb=[[0.0, 4.3e9], [4.3e9, 0.0]])
        k = 1.7
        gms = []
        for factor in (1.0, k):
            cfg = BudgetConfig(fiber_capacity_bps=200e9 * factor)
            links = links_from_caps(
                np.asarray(base["cap_ub"]) * factor,
                np.asarray(base["cap_bu"]) * factor,
                np.asarray(base["cap_bb"]) * factor, cfg)
            anchors = AnchorSet(np.array([True, False]))
            pattern = make_scenario(Variant.IAB_ST, links, anchors, seed=0)
            sol, _ = solve_checked(assemble(links, pattern, anchors))
            gms.append(sol.gm_bps)
        assert gms[1] == pytest.approx(k * gms[0], rel=1e-6)

    def test_ul_dl_swap_symmetry(self):
        cap_ub = np.array([[0.0, 3.5e9], [2.0e9, 2.5e9]])
        cap_bu = np.array([[0.0, 1.8e9], [4.0e9, 3.0e9]]).T
        cap_bb = np.array([[0.0, 5e9], [5e9, 0.0]])
        anchors = AnchorSet(np.array([True, False]))
        gms = []
        for ub, bu in ((cap_ub, cap_bu), (cap_bu.T, cap_ub.T)):
            links = links_from_caps(ub, bu, cap_bb)
            pattern = make_scenario(Variant.IAB_MESH_LB, links, anchors, seed=0)
            sol, _ = solve_checked(assemble(links, pattern, anchors))
            gms.append(sol.gm_bps)
        assert gms[0] == pytest.approx(gms[1], rel=1e-6)


class TestCheckKkt:
    def test_perturbed_solution_fails_stationarity(self):
        prob, _ = analytic_single_instance()
        sol, _ = solve(prob)
        bad = np.array(sol.x)
        cls = prob.flow_class_slices()
        k = cls["ul_access"].start
        delta = 0.01 * bad[k]
        bad[k] -= delta                  # shrink the UL flow 1%
        m_ul = 2 * prob.n_flow + [i for i, (_b, d) in enumerate(prob.m_vars)
                                  if d == "U"][0]
        bad[m_ul] -= delta               # keep conservation intact
        from dataclasses import replace
        report = check_kkt(prob, replace(sol, x=bad))
        assert not report.ok
        assert report.stationarity > 1e-6

    def test_boundary_infeasible_point_fails_primal(self):
        prob, _ = analytic_single_instance()
        sol, _ = solve(prob)
        bad = np.array(sol.x)
        bad[prob.sl_time] = 0.8          # resource row sums to 1.6
        from dataclasses import replace
        report = check_kkt(prob, replace(sol, x=bad))
        assert not report.ok
        assert report.primal_ineq > 1e-9

    def test_wrong_length_multipliers_are_value_errors(self):
        # the products read lam and nu unchecked in compiled code, so a
        # caller-built Solution with short multipliers must be refused
        prob, _ = analytic_single_instance()
        sol, _ = solve(prob)
        replace = dataclasses.replace
        for bad in (replace(sol, lam=sol.lam[:-1]), replace(sol, nu=sol.nu[:-1]),
                    replace(sol, nu=np.append(sol.nu, 0.0)), replace(sol, x=sol.x[:-1])):
            with pytest.raises(ValueError):
                check_kkt(prob, bad)


def assert_failure_certificate(err, prob):
    """A failed solve carries its certificate, with the gap per log-rate
    term at the tau being centered."""
    assert not hasattr(err.value, "gap")
    cert = err.value.certificate
    assert cert is not None
    assert cert.gap_rel == cert.n_inequalities / cert.tau_final / (2 * prob.n_included)


class TestFailureModes:
    def test_iteration_cap_carries_best_iterate(self):
        prob, _ = analytic_single_instance()
        cfg = SolverConfig(max_inner_iters=2)
        with pytest.raises(ConvergenceError) as err:
            solve(prob, cfg)
        assert err.value.best_x is not None
        assert err.value.certificate.gap_rel is not None
        assert validate(prob, err.value.best_x, tol=1e-9).ok
        assert_failure_certificate(err, prob)

    def test_uncertified_final_point_is_rejected(self):
        # the final conservation residual here is rounding-sized but nonzero
        # (about 2e-16), so a 1e-30 feasibility tolerance must reject it
        prob = grid_problem(2, 3, 30, 5, 2, "iab_st")
        with pytest.raises(ConvergenceError) as err:
            solve(prob, SolverConfig(feasibility_tol=1e-30))
        assert err.value.best_x is not None
        assert err.value.certificate.gap_rel <= SolverConfig().duality_gap_tol
        assert err.value.certificate.kkt.ok is False
        assert_failure_certificate(err, prob)

    def test_stalled_centering_keeps_multipliers_finite(self):
        # 1e-12 cannot be certified here, and iab_st's last centering runs to
        # its cap; the carried multipliers must stay bounded while it stalls
        # (unbounded, they overflow within 300 steps and a RuntimeWarning
        # fails the test), and the failure's certificate pairs the last
        # iterate with 1/(tau s), whose residual stays readable (the carried
        # multipliers, up to 1e10 off it, read about 4e8)
        prob = grid_problem(2, 3, 30, 5, 2, "iab_st")
        with pytest.raises(ConvergenceError) as err:
            solve(prob, SolverConfig(duality_gap_tol=1e-12, max_inner_iters=300))
        assert err.value.certificate.kkt.stationarity <= 10
        assert_failure_certificate(err, prob)

    def test_singular_factor_is_typed_failure(self, monkeypatch):
        # dpptrf reports info > 0 when the dense block is not positive
        # definite; a solve that meets one mid-way fails typed, with its best
        # iterate paired with lam = 1/(tau s)
        calls = []

        def dpptrf(*args, **kwargs):
            calls.append(None)
            factor, info = original(*args, **kwargs)
            return factor, (1 if len(calls) == 6 else info)

        original = solver.dpptrf
        monkeypatch.setattr(solver, "dpptrf", dpptrf)
        prob = grid_problem(2, 3, 30, 5, 2, "iab_mesh_lb")
        with pytest.raises(ConvergenceError, match="singular Newton matrix") as err:
            solve(prob)
        assert len(calls) == 6
        assert validate(prob, err.value.best_x, tol=1e-9).ok
        assert_failure_certificate(err, prob)
        cert = err.value.certificate
        assert cert.kkt.comp_gap_rel == pytest.approx(
            cert.n_inequalities / cert.tau_final / (2 * prob.n_included), rel=1e-12)

    @pytest.mark.parametrize("kw", [
        {"feasibility_tol": -1e-9}, {"feasibility_tol": float("inf")},
        {"duality_gap_tol": "1e-6"}, {"max_inner_iters": 2.5},
        {"max_inner_iters": True}, {"duality_gap_tol": True},
    ])
    def test_bad_settings_are_config_errors(self, kw):
        with pytest.raises(ConfigError):
            SolverConfig(**kw)

    def test_settings_are_the_three_fields(self):
        assert [f.name for f in dataclasses.fields(SolverConfig)] == [
            "feasibility_tol", "duality_gap_tol", "max_inner_iters"]


def grid_problem(rows, cols, n_ues, seed, k, scenario):
    """Street-grid instance built as `iabplan run` builds it."""
    topo = generate_grid(rows, cols, 200.0, n_ues, seed)
    links = build_link_table(synthetic_gains(topo))
    anchors = select_anchors(topo, k, "greedy-coverage", links=links, seed=seed)
    pattern = make_scenario(scenario, links, anchors, seed=seed)
    return assemble(links, pattern, anchors)


class TestCertifiedOnGrids:
    """Grid instances that stress the end of centering: the last steps must
    bring stationarity below tolerance where a barrier-value comparison is
    rounding noise, and keep conservation at rounding level."""

    @staticmethod
    def solve_certified(prob, cfg=None):
        """solve_checked, and the returned multipliers are strictly positive
        (carried ones are kept so, and the last step's must stay so)."""
        sol, cert = solve_checked(prob, cfg)
        assert sol.lam.min() > 0
        return sol, cert

    @pytest.mark.parametrize("rows, cols, n_ues, seed, k, scenario", [
        (3, 6, 60, 1, 7, "access_lb"),
        (2, 3, 30, 1, 1, "iab_st"),
        (2, 3, 30, 1, 1, "iab_mesh_ss"),
        (2, 3, 30, 2, 5, "access_ss"),
        (2, 3, 30, 5, 2, "iab_st"),
        (2, 4, 40, 5, 1, "iab_mesh_ss"),
        (3, 6, 600, 3, 7, "iab_mesh_lb"),
    ])
    def test_kkt_certified(self, rows, cols, n_ues, seed, k, scenario):
        self.solve_certified(grid_problem(rows, cols, n_ues, seed, k, scenario))

    @pytest.mark.parametrize("scenario", [v.value for v in Variant])
    def test_kkt_certified_at_tight_gap(self, scenario):
        # stationarity is checked at duality_gap_tol too, so the multipliers
        # must be accurate to well below it
        self.solve_certified(grid_problem(3, 6, 60, 1, 7, scenario),
                             SolverConfig(duality_gap_tol=1e-8))

    def test_kkt_certified_at_loose_gap(self):
        # comp_gap_rel reads 1.08e-5: certified at the configured tolerance,
        # though above the default one
        self.solve_certified(grid_problem(2, 3, 30, 5, 2, "iab_mesh_lb"),
                             SolverConfig(duality_gap_tol=1.13e-5))

    def test_newton_step_count(self):
        # carried multipliers on the long-step schedule (tau x100 per
        # centering), with loose intermediate centerings: 136 Newton systems
        # over the five scenarios, where centering every tau tightly takes
        # 168, primal barrier steps 282 and tau x10 390
        steps = 0
        for scenario in Variant:
            _, cert = self.solve_certified(grid_problem(3, 6, 60, 1, 7, scenario.value))
            steps += cert.inner_iters + cert.outer_iters
        assert steps <= 150

    @pytest.mark.parametrize("scenario", [v.value for v in Variant])
    def test_objective_trace_nondecreasing(self, scenario):
        # the intermediate centerings stop at a loose decrement; the point
        # each one returns must still improve on the one before
        _, cert = self.solve_certified(grid_problem(3, 6, 60, 1, 7, scenario))
        trace = np.asarray(cert.objective_trace)
        assert (np.diff(trace) >= -1e-9 * np.abs(trace[:-1])).all()

    def test_schedule_tau_on_the_gap_bound_certifies(self):
        # the tolerance makes tau = 1e8, a tau of the schedule, meet the gap
        # bound m/tau exactly; the last centering still runs at tau_needed,
        # 5% past it, so the measured gap cannot round above the tolerance
        # (ending at 1e8, comp_gap_rel read 1.1300000080e-7 against 1.13e-7)
        prob = grid_problem(2, 3, 30, 5, 2, "iab_mesh_lb")
        tol = prob.G.shape[0] / 1e8 / (2 * prob.n_included)
        _, cert = self.solve_certified(prob, SolverConfig(duality_gap_tol=tol))
        assert cert.gap_rel < tol

    @pytest.mark.parametrize("scenario", [v.value for v in Variant])
    def test_unreachable_gap_is_typed_failure(self, scenario):
        # 1e-12 lies below what a Newton decrement of 1e-10 can certify: each
        # solve certifies or raises ConvergenceError, and no slack or rate
        # reaches zero on the way (a RuntimeWarning would fail the test)
        prob = grid_problem(2, 3, 30, 5, 2, scenario)
        try:
            sol, cert = solve(prob, SolverConfig(duality_gap_tol=1e-12))
            assert cert.kkt.ok
            assert sol.lam.min() > 0
        except ConvergenceError as err:
            cert = err.certificate
            assert cert.gap_rel == cert.n_inequalities / cert.tau_final / (2 * prob.n_included)


@st.composite
def grid_shapes(draw):
    """(rows, cols, k): a 2x3 to 3x4 grid and an anchor count on it."""
    rows, cols = draw(st.integers(2, 3)), draw(st.integers(3, 4))
    return rows, cols, draw(st.integers(1, rows * cols))


class TestRandomGrids:
    @settings(max_examples=20, deadline=None)
    @given(shape=grid_shapes(), n_ues=st.integers(3, 60), seed=st.integers(0, 2**32 - 1),
           policy=st.sampled_from(["greedy-coverage", "seeded-random"]),
           min_snr_db=st.floats(0.0, 15.0), corner_loss_db=st.floats(0.0, 40.0),
           fiber_capacity_bps=st.floats(1e9, 200e9))
    # iab_mesh_lb's tau = 1e8 met the gap bound exactly, and the solve ended
    # there uncertified (test_schedule_tau_on_the_gap_bound_certifies)
    @example(shape=(3, 3, 3), n_ues=3, seed=228, policy="seeded-random", min_snr_db=0.0,
             corner_loss_db=0.0, fiber_capacity_bps=1e9)
    def test_every_scenario_certifies_or_fails_typed(self, shape, n_ues, seed, policy,
                                                     min_snr_db, corner_loss_db,
                                                     fiber_capacity_bps):
        # A has full row rank, which keeps the factored block positive
        # definite; every solve certifies or raises a typed error
        rows, cols, k = shape
        cfg = BudgetConfig(min_snr_db=min_snr_db, corner_loss_db=corner_loss_db,
                           fiber_capacity_bps=fiber_capacity_bps)
        topo = generate_grid(rows, cols, 200.0, n_ues, seed)
        links = build_link_table(synthetic_gains(topo, cfg), cfg)
        anchors = select_anchors(topo, k, policy, links=links, seed=seed)
        for scenario in Variant:
            try:
                prob = assemble(links, make_scenario(scenario, links, anchors, seed=seed),
                                anchors)
            except IabPlanError:
                continue
            assert np.linalg.matrix_rank(prob.A.toarray()) == prob.A.shape[0]
            # the start point is interior: every slack is positive and the
            # conservation rows hold to rounding
            x0 = strictly_feasible_point(prob)
            assert np.all(prob.h - prob.G @ x0 > 0)
            assert np.all(np.abs(prob.A @ x0) <= 1e-12 * (prob.abs_A @ np.abs(x0)))
            try:
                sol, cert = solve(prob)
            except IabPlanError:
                continue
            assert cert.kkt.ok
            assert validate(prob, sol).ok


def multipliers(s, tau, off_path):
    """1/(tau s) on the central path, or that scaled by seeded exp(N(0, 1))
    factors, as carried multipliers sit off it."""
    lam = 1.0 / (tau * s)
    if off_path:
        lam *= np.exp(np.random.default_rng(7).standard_normal(s.size))
    return lam


# instance seeds, each on and off the central path
SEED_PATHS = [pytest.param(seed, off_path, id=f"{seed}-off_path" if off_path else str(seed))
              for off_path in (False, True) for seed in (0, 1, 4)]


class TestNewtonStep:
    @pytest.mark.parametrize("seed, off_path", SEED_PATHS)
    @pytest.mark.parametrize("tau", [1.0, 1e3, 1e6])
    def test_matches_dense_saddle_point_solve(self, seed, tau, off_path):
        prob = random_tiny_instance(seed)
        s, r, grad = newton_inputs(prob, tau)
        lam = multipliers(s, tau, off_path)
        T = slack_map(prob)
        dy, w = _NewtonSystem(prob).solve(lam / s, r, -(T.T @ grad))
        dx = T @ dy
        ref = dense_step(prob, s, r, lam, grad)
        n = prob.n_var
        assert np.linalg.norm(dx - ref[:n]) <= 1e-8 * np.linalg.norm(ref[:n])
        assert np.linalg.norm(w - ref[n:]) <= 1e-8 * np.linalg.norm(ref[n:])

    @pytest.mark.parametrize("seed, off_path", SEED_PATHS)
    @pytest.mark.parametrize("tau", [1.0, 1e3])
    def test_one_pass_reduced_step(self, seed, tau, off_path):
        # the step of every centering but the last: one refinement pass,
        # against the full system; the worst relative errors over these
        # cases measure 7.3e-13 in dx and 1.1e-13 in w
        prob = random_tiny_instance(seed)
        s, r, grad = newton_inputs(prob, tau)
        lam = multipliers(s, tau, off_path)
        T = slack_map(prob)
        dy, w = _NewtonSystem(prob).solve(lam / s, r, -(T.T @ grad), full=False)
        dx = T @ dy
        ref = dense_step(prob, s, r, lam, grad)
        n = prob.n_var
        assert np.linalg.norm(dx - ref[:n]) <= 7.5e-12 * np.linalg.norm(ref[:n])
        assert np.linalg.norm(w - ref[n:]) <= 2.3e-10 * np.linalg.norm(ref[n:])


def dense_step(prob, s, r, lam, grad):
    """The Newton step (dx, w) of a dense solve of the saddle-point system."""
    Ud, Gd, Ad = prob.U_mat.toarray(), prob.G.toarray(), prob.A.toarray()
    H = Ud.T @ (Ud / r[:, None] ** 2) + Gd.T @ (Gd * (lam / s)[:, None])
    p = Ad.shape[0]
    kkt = np.block([[H, Ad.T], [Ad, np.zeros((p, p))]])
    return np.linalg.solve(kkt, np.r_[-grad, np.zeros(p)])


def newton_inputs(prob, tau):
    """Slacks, rates and barrier gradient at the start point."""
    x = strictly_feasible_point(prob)
    s, r = prob.h - prob.G @ x, prob.U_mat @ x
    grad = -(prob.U_mat.T @ (1.0 / r)) + prob.G.T @ (1.0 / (tau * s))
    return s, r, grad


def slack_map(prob):
    """T, with x = T y for the slack coordinates y = (sigma, t, m),
    f = c t - sigma."""
    nf, n = prob.n_flow, prob.n_var
    k = np.arange(nf)
    T = sp.identity(n, format="lil")
    T[k, k] = -1.0
    T[k, nf + k] = prob.cap
    return T.tocsr()


def slack_system(prob, s, r, lam):
    """The augmented system in slack coordinates, built from
    G, U and A with row weights lam / s: unknowns (dy, z_U, z_c, w) with
    dx = T dy, f = c t - sigma."""
    rs = prob.row_slices
    T = slack_map(prob)
    barrier = np.r_[np.arange(rs["flow_capacity"].start, rs["flow_capacity"].stop),
                    np.arange(rs["nonneg"].start, rs["nonneg"].stop)]
    Gb = prob.G[barrier] @ T
    wt = lam / s
    K = Gb.T @ sp.diags(wt[barrier]) @ Gb
    sl_c = slice(rs["resource"].start, rs["fiber"].stop)
    B = sp.vstack([prob.U_mat, prob.G[sl_c], prob.A]) @ T
    D = sp.diags(np.r_[r ** 2, 1.0 / wt[sl_c], np.zeros(prob.A.shape[0])])
    return sp.bmat([[K, B.T], [B, -D]]).tocsr(), T, sl_c


class TestRegularizedNewtonSystem:
    def test_one_dense_factor_per_newton_step(self, monkeypatch):
        # no sparse LU: one dense Cholesky factor per Newton step, over the
        # resource, fiber and conservation rows alone
        sides, lus = [], []
        original, splu = solver.dpptrf, spla.splu
        monkeypatch.setattr(solver, "dpptrf", lambda n, ap, **kw: sides.append((n, n)) or
                            original(n, ap, **kw))
        monkeypatch.setattr(spla, "splu", lambda *a, **kw: lus.append(None) or splu(*a, **kw))
        prob = grid_problem(3, 6, 60, 1, 7, "iab_mesh_lb")
        _, cert = solve_checked(prob)
        rs = prob.row_slices
        side = rs["fiber"].stop - rs["resource"].start + prob.A.shape[0]
        assert not lus
        assert sides == [(side, side)] * (cert.inner_iters + cert.outer_iters)
        assert side == 61

    @pytest.mark.parametrize("seed, off_path", SEED_PATHS)
    @pytest.mark.parametrize("tau", [1.0, 1e3, 1e6, 1e9])
    def test_step_solves_unregularized_system(self, seed, tau, off_path):
        # componentwise (Oettli-Prager) backward error of the returned step
        # in the slack system: rounding level (at most 1.6 eps over these
        # cases), where the factor's solution before refinement is off by
        # up to 1.8e-7
        prob = random_tiny_instance(seed)
        s, r, grad = newton_inputs(prob, tau)
        lam = multipliers(s, tau, off_path)
        K, T, sl_c = slack_system(prob, s, r, lam)
        dy, w = _NewtonSystem(prob).solve(lam / s, r, -(T.T @ grad))

        dx = T @ dy
        sol = np.r_[dy, (prob.U_mat @ dx) / r ** 2,
                    (prob.G[sl_c] @ dx) * (lam / s)[sl_c], w]
        rhs = np.r_[-(T.T @ grad), np.zeros(K.shape[0] - prob.n_var)]
        error = np.abs(K @ sol - rhs) / (abs(K) @ np.abs(sol) + np.abs(rhs))
        assert error.max() <= 10 * np.finfo(float).eps

    @pytest.mark.parametrize("make", [
        *(pytest.param(lambda seed=seed: random_tiny_instance(seed), id=f"tiny{seed}")
          for seed in range(5)),
        pytest.param(lambda: grid_problem(2, 3, 30, 5, 2, "iab_mesh_lb"), id="2x3-mesh_lb"),
        pytest.param(lambda: grid_problem(3, 6, 60, 1, 7, "iab_mesh_lb"), id="3x6-mesh_lb"),
    ])
    def test_factored_matrix_is_the_reduced_system(self, make, monkeypatch):
        # the factored block is minus the Schur complement, onto the
        # resource, fiber and conservation rows, of the slack system with
        # the capacity slacks, (dt, dm) and the rate rows eliminated, at any
        # positive weights; the entries measure within 4.6e-14 relative,
        # and within 5.8e-16 of the largest entry
        prob = make()
        rng = np.random.default_rng(3)
        m, nf, n = prob.G.shape[0], prob.n_flow, prob.n_var
        s, lam = rng.uniform(0.5, 2.0, m), rng.uniform(0.5, 2.0, m)
        r = rng.uniform(0.5, 2.0, 2 * prob.n_included)
        K = slack_system(prob, s, r, lam)[0].toarray()
        sigma = np.diag(K)[:nf]
        assert np.array_equal(K[:nf, :nf], np.diag(sigma))
        blocks, original = [], solver.dpptrf

        def dpptrf(n, ap, **kw):
            # unpack the packed lower triangle, column by column, before the
            # factor overwrites it
            block = np.zeros((n, n))
            block[np.triu_indices(n)] = ap
            blocks.append(block.T)
            return original(n, ap, **kw)

        monkeypatch.setattr(solver, "dpptrf", dpptrf)
        _NewtonSystem(prob).solve(lam / s, r, rng.standard_normal(n), full=False)
        k = n + 2 * prob.n_included              # sigma, (t, m) and the rate rows
        ref = -(K[k:, k:] - K[k:, :k] @ np.linalg.solve(K[:k, :k], K[:k, k:]))
        np.testing.assert_allclose(blocks.pop(), np.tril(ref), rtol=1e-12,
                                   atol=1e-13 * np.abs(ref).max())

    def test_released_without_garbage_collection(self):
        prob = random_tiny_instance(0)
        s, r, grad = newton_inputs(prob, 1.0)
        gc.disable()
        try:
            newton = _NewtonSystem(prob)
            newton.solve(1.0 / s / s, r, grad)
            ref = weakref.ref(newton)
            del newton
            assert ref() is None
        finally:
            gc.enable()
