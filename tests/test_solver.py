import time

import numpy as np
import pytest

from iabplan import (AnchorSet, BudgetConfig, ConvergenceError, SolverConfig,
                     Variant, assemble, build_link_table, check_kkt,
                     generate_grid, make_scenario, select_anchors, solve,
                     strictly_feasible_point, synthetic_gains, validate)
from iabplan.solver import _NewtonSystem
from iabplan.testkit import (analytic_chain_instance, analytic_single_instance,
                             links_from_caps, random_tiny_instance)

GAP = SolverConfig().duality_gap_tol


def solve_checked(prob, cfg=None):
    """Solve and assert the certificate holds (acceptance criterion 3)."""
    sol, cert = solve(prob, cfg)
    assert cert.kkt.ok, f"certificate failed: {cert.kkt}"
    assert cert.gap_rel <= (cfg or SolverConfig()).duality_gap_tol
    kkt = check_kkt(prob, sol)
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


class TestFailureModes:
    def test_iteration_cap_carries_best_iterate(self):
        prob, _ = analytic_single_instance()
        cfg = SolverConfig(max_outer_iters=2)
        with pytest.raises(ConvergenceError) as err:
            solve(prob, cfg)
        assert err.value.best_x is not None
        assert err.value.gap is not None
        assert validate(prob, err.value.best_x, tol=1e-9).ok

    def test_uncertified_final_point_is_rejected(self):
        prob, _ = analytic_single_instance()
        with pytest.raises(ConvergenceError) as err:
            solve(prob, SolverConfig(feasibility_tol=1e-30))
        assert err.value.best_x is not None
        assert err.value.gap <= SolverConfig().duality_gap_tol
        assert err.value.certificate.kkt.ok is False


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

    @pytest.mark.parametrize("rows, cols, n_ues, seed, k, scenario", [
        (3, 6, 60, 1, 7, "access_lb"),
        (2, 3, 30, 1, 1, "iab_st"),
        (2, 3, 30, 1, 1, "iab_mesh_ss"),
        (2, 3, 30, 2, 5, "access_ss"),
        (2, 3, 30, 5, 2, "iab_st"),
        (2, 4, 40, 5, 1, "iab_mesh_ss"),
    ])
    def test_kkt_certified(self, rows, cols, n_ues, seed, k, scenario):
        solve_checked(grid_problem(rows, cols, n_ues, seed, k, scenario))


class TestNewtonStep:
    @pytest.mark.parametrize("seed", [0, 1, 4])
    @pytest.mark.parametrize("tau", [1.0, 1e3, 1e6])
    def test_matches_dense_saddle_point_solve(self, seed, tau):
        prob = random_tiny_instance(seed)
        G, h, A, U = prob.G, prob.h, prob.A, prob.U_mat
        x = strictly_feasible_point(prob)
        s, r = h - G @ x, U @ x
        grad = -(U.T @ (1.0 / r)) + G.T @ (1.0 / (tau * s))
        dx, w = _NewtonSystem(prob).solve(s, r, grad, tau)

        Ud, Gd, Ad = U.toarray(), G.toarray(), A.toarray()
        H = Ud.T @ (Ud / r[:, None] ** 2) + Gd.T @ (Gd / (tau * s[:, None] ** 2))
        p = Ad.shape[0]
        kkt = np.block([[H, Ad.T], [Ad, np.zeros((p, p))]])
        ref = np.linalg.solve(kkt, np.r_[-grad, np.zeros(p)])
        n = prob.n_var
        assert np.linalg.norm(dx - ref[:n]) <= 1e-8 * np.linalg.norm(ref[:n])
        assert np.linalg.norm(w - ref[n:]) <= 1e-8 * np.linalg.norm(ref[n:])
