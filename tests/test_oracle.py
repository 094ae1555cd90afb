from dataclasses import replace

import numpy as np
import pytest

from iabplan import AnchorSet, BudgetConfig, OracleError, Variant, assemble, \
    brute_force_oracle, make_scenario, solve
from iabplan.testkit import (analytic_chain_instance, analytic_single_instance,
                             links_from_caps, random_tiny_instance)


def test_single_ue_within_two_permille():
    prob, c = analytic_single_instance(c_bps=5e9)
    bracket = brute_force_oracle(prob, grid_resolution=1000)
    assert bracket.gm_lo_bps == pytest.approx(c / 2, rel=2e-3)
    assert bracket.gm_lo_bps <= c / 2 * (1 + 1e-9)


def test_chain_within_half_percent():
    prob, expected = analytic_chain_instance(4e9, 4e9)
    bracket = brute_force_oracle(prob, grid_resolution=1000)
    assert bracket.gm_lo_bps == pytest.approx(expected, rel=5e-3)
    assert bracket.gm_lo_bps <= expected * (1 + 1e-9)


def test_resolution_one_is_a_valid_lower_bound():
    prob, c = analytic_single_instance()
    bracket = brute_force_oracle(prob, grid_resolution=1)
    assert bracket.gm_lo_bps <= c / 2


def test_rejects_more_than_six_time_variables():
    # two UEs behind a relay: 4 access + 8 backhaul time variables
    links = links_from_caps([[0.0, 3e9], [0.0, 3e9]],
                            [[0.0, 0.0], [3e9, 3e9]],
                            [[0.0, 5e9], [5e9, 0.0]])
    anchors = AnchorSet(np.array([True, False]))
    pattern = make_scenario(Variant.IAB_ST, links, anchors, seed=0)
    prob = assemble(links, pattern, anchors)
    assert prob.n_flow > 6
    with pytest.raises(OracleError, match="time variables"):
        brute_force_oracle(prob)


def test_rejects_non_forest_backhaul():
    # triangle mesh between one anchor and two relays, one UE per relay
    links = links_from_caps(
        [[0.0, 2e9, 0.0], [0.0, 0.0, 2e9]],
        [[0.0, 0.0], [2e9, 0.0], [0.0, 2e9]],
        [[0.0, 5e9, 5e9], [5e9, 0.0, 5e9], [5e9, 5e9, 0.0]])
    anchors = AnchorSet(np.array([True, False, False]))
    pattern = make_scenario(Variant.IAB_MESH_SS, links, anchors, seed=0)
    prob = assemble(links, pattern, anchors)
    if prob.n_flow <= 6:
        with pytest.raises(OracleError):
            brute_force_oracle(prob)
    else:
        with pytest.raises(OracleError, match="time variables"):
            brute_force_oracle(prob)


def test_forest_check_rejects_triangle():
    # few enough time variables to pass the size check, then a triangle
    prob, _ = analytic_chain_instance()
    assert prob.n_flow <= 6
    cyclic = replace(prob, n_bs=3, ul_backhaul=np.array([[0, 1], [1, 2], [2, 0]]))
    with pytest.raises(OracleError, match="forest"):
        brute_force_oracle(cyclic)


def test_rejects_two_anchors_in_one_tree():
    # two fiber sites joined by one link, one UE on BS0: the link is a forest
    # but gives the UE a second route, through BS1's fiber, so the optimum
    # (1000 Mbps) is above any single-route bracket
    cfg = BudgetConfig(fiber_capacity_bps=1e9)
    links = links_from_caps([[8e9, 0.0]], [[8e9], [0.0]], [[0.0, 8e9], [8e9, 0.0]], cfg)
    anchors = AnchorSet(np.array([True, True]))
    prob = assemble(links, make_scenario(Variant.IAB_MESH_SS, links, anchors, seed=0), anchors)
    assert prob.n_flow <= 6
    assert solve(prob)[0].gm_bps == pytest.approx(1e9, rel=1e-6)
    with pytest.raises(OracleError, match="one anchor per backhaul tree"):
        brute_force_oracle(prob)


@pytest.mark.parametrize("seed", range(6))
def test_solver_inside_bracket(seed):
    prob = random_tiny_instance(seed)
    sol, cert = solve(prob)
    bracket = brute_force_oracle(prob, grid_resolution=1000)
    assert bracket.contains(sol.gm_bps, rel_slack=2 * cert.gap_rel)
