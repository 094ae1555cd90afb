"""Acceptance gate: the paper-scale default config, end to end.

`iabplan run` with every default (3x6 grid at 200 m, 600 UEs, seed 1, 7
greedy-coverage fiber drops, all five scenarios) must certify every solve,
keep the GM orderings that are theorems of the model, and reproduce the
recorded geometric means.
"""

import json

import pytest

from iabplan import SolverConfig
from iabplan.cli import main

GAP = SolverConfig().duality_gap_tol
# access_ss, iab_st and iab_mesh_ss GMs (Mbps) recorded for the default run
RECORDED_MBPS = {"access_ss": 25.16, "iab_st": 40.23, "iab_mesh_ss": 46.62}
# (smaller, larger): the smaller pattern is nested in the larger
NESTED = [("access_ss", "access_lb"), ("iab_st", "iab_mesh_ss"),
          ("iab_mesh_ss", "iab_mesh_lb")]


@pytest.fixture(scope="module")
def default_run(tmp_path_factory):
    out = tmp_path_factory.mktemp("default_run")
    assert main(["run", "--output-dir", str(out)]) == 0
    return {p.stem.removeprefix("solution_"): json.loads(p.read_text())
            for p in out.glob("solution_*.json")}


def test_every_scenario_certified(default_run):
    assert sorted(default_run) == sorted(
        ["access_ss", "access_lb", "iab_st", "iab_mesh_ss", "iab_mesh_lb"])
    for name, sol in default_run.items():
        assert sol["kkt_ok"] is True, name
        assert sol["certificate"]["converged"] is True, name


@pytest.mark.parametrize("small, large", NESTED)
def test_nested_orderings(default_run, small, large):
    a, b = default_run[small]["solution"], default_run[large]["solution"]
    assert a["n_ues_served"] == b["n_ues_served"]
    assert a["gm_bps"] <= b["gm_bps"] * (1 + 2 * GAP)


@pytest.mark.parametrize("name", sorted(RECORDED_MBPS))
def test_recorded_geometric_means(default_run, name):
    gm = default_run[name]["solution"]["gm_mbps"]
    assert gm == pytest.approx(RECORDED_MBPS[name], rel=1e-3)
