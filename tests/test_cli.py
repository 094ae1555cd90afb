import dataclasses
import hashlib
import json
import re
from pathlib import Path

import numpy as np
import pytest

from iabplan import BudgetConfig, SolverConfig, cli
from iabplan.cli import main


def write_config(tmp_path, name="config.json", **overrides):
    cfg = {
        "grid_rows": 1, "grid_cols": 2, "inter_site_m": 200.0, "n_ues": 6,
        "anchor_policy": "greedy-coverage", "anchor_k": 1,
        "scenarios": ["access_ss", "iab_mesh_ss"],
        "seed": 3, "output_dir": str(tmp_path / "out"),
    }
    cfg.update(overrides)
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return path


def test_run_writes_all_artifacts(tmp_path, capsys):
    cfg = write_config(tmp_path)
    assert main(["run", "--config", str(cfg)]) == 0
    out = tmp_path / "out"
    for name in ("topology.json", "links.csv", "anchors.json", "compare.txt",
                 "compare.json", "rates_access_ss.csv", "rates_iab_mesh_ss.csv",
                 "solution_access_ss.json", "pattern_iab_mesh_ss.json"):
        assert (out / name).exists(), name
    assert "gm=" in capsys.readouterr().out


def test_run_all_scenarios_writes_five_reports(tmp_path):
    cfg = write_config(tmp_path, scenarios=[
        "access_ss", "access_lb", "iab_st", "iab_mesh_ss", "iab_mesh_lb"])
    assert main(["run", "--config", str(cfg)]) == 0
    rates = list((tmp_path / "out").glob("rates_*.csv"))
    assert len(rates) == 5


def test_single_ue_run_reports_half_capacity(tmp_path):
    cfg = write_config(tmp_path, grid_rows=1, grid_cols=1, n_ues=1,
                       anchor_k=1, scenarios=["access_ss"])
    assert main(["run", "--config", str(cfg)]) == 0
    sol = json.loads((tmp_path / "out" / "solution_access_ss.json").read_text())
    gm = sol["solution"]["gm_bps"]

    # closed form: the lone UE gets half its link capacity
    from iabplan import build_link_table, generate_grid, synthetic_gains
    topo = generate_grid(1, 1, 200.0, 1, seed=3)
    links = build_link_table(synthetic_gains(topo))
    assert gm == pytest.approx(links.cap_ub[0, 0] / 2, rel=1e-5)
    assert sol["kkt_ok"] is True


def test_byte_identical_reruns(tmp_path):
    cfg_a = write_config(tmp_path, "cfg_a.json", output_dir=str(tmp_path / "a"))
    cfg_b = write_config(tmp_path, "cfg_b.json", output_dir=str(tmp_path / "b"))
    assert main(["run", "--config", str(cfg_a)]) == 0
    assert main(["run", "--config", str(cfg_b)]) == 0
    files_a = sorted((tmp_path / "a").iterdir())
    files_b = sorted((tmp_path / "b").iterdir())
    assert [f.name for f in files_a] == [f.name for f in files_b]
    for fa, fb in zip(files_a, files_b):
        assert fa.read_bytes() == fb.read_bytes(), fa.name


# sha256 of the artifacts a run writes before it solves, recorded before
# their writers shared one module; the headers embed iabplan_version
GOLDEN_ARTIFACTS = {
    "anchors.json": "753062cfedc33e46d9935231ba54843e852377b91210db50fca71a36ff6bc7a2",
    "links.csv": "304f51fe7edfdf0a92b5d2c2006ec75b2307b81cdffe0fafc75c583942dce1f5",
    "pattern_access_lb.json": "326eef83a3454df5d8c0fa9f2b2659d664b560292228dcaba8876cb42c3e93c9",
    "pattern_access_ss.json": "f2146fbb1b948dacf512d17449ebd164cb8d3f1046d902dabe426bdfe19dc954",
    "pattern_iab_mesh_lb.json":
        "ff2ac4dffaf571bd229aa516cf3326e206cb816122abb553865453b49d7bda87",
    "pattern_iab_mesh_ss.json":
        "e697a7cc116a07846aff2d0c3537cb9e9a82e3d2b7cb249288eea4334f864288",
    "pattern_iab_st.json": "148a5e113a06037f05c05ee2f697fd336a120d10a961d69b5a6d9d93ea389b8e",
    "topology.json": "ffd931e083b913735881997ab5d33cdfbbee154ee979fd002f9d9c6be70497bc",
}


def test_golden_solver_independent_artifacts(tmp_path):
    cfg = write_config(tmp_path, grid_rows=2, grid_cols=3, n_ues=30, seed=5, anchor_k=2,
                       scenarios=["access_ss", "access_lb", "iab_st", "iab_mesh_ss",
                                  "iab_mesh_lb"])
    assert main(["run", "--config", str(cfg)]) == 0
    digests = {name: hashlib.sha256((tmp_path / "out" / name).read_bytes()).hexdigest()
               for name in GOLDEN_ARTIFACTS}
    assert digests == GOLDEN_ARTIFACTS


def test_bad_gains_path_is_config_error(tmp_path, capsys):
    cfg = write_config(tmp_path, gains_csv=str(tmp_path / "missing.csv"))
    assert main(["run", "--config", str(cfg)]) == 1
    assert "gains_csv" in capsys.readouterr().err


def test_unknown_config_key(tmp_path):
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"grid_rowz": 2}))
    assert main(["run", "--config", str(path)]) == 1


@pytest.mark.parametrize("key", ["newton_tol", "barrier_increase_factor",
                                 "max_outer_iters"])
def test_removed_solver_keys_are_unknown(tmp_path, capsys, key):
    cfg = write_config(tmp_path, **{key: 10})
    assert main(["run", "--config", str(cfg)]) == 1
    assert f"unknown config key {key!r}" in capsys.readouterr().err


@pytest.mark.parametrize("command", [["run"], ["sweep", "--k-list", "1"], ["verify"]])
@pytest.mark.parametrize("key, value", [
    ("duality_gap_tol", 0), ("duality_gap_tol", float("nan")), ("max_inner_iters", 0),
    ("max_inner_iters", True),
])
def test_bad_solver_setting_is_config_error(tmp_path, capsys, command, key, value):
    cfg = write_config(tmp_path, **{key: value})
    assert main([command[0], "--config", str(cfg), *command[1:]]) == 1
    assert capsys.readouterr().err.startswith(f"error: {key}")
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command", [["run"], ["sweep", "--k-list", "1"], ["verify"]])
@pytest.mark.parametrize("key, value", [
    ("bandwidth_hz", "1e9"), ("snr_cap_db", None), ("fiber_capacity_bps", [200e9]),
    ("grid_rows", 2.5), ("grid_cols", None), ("n_ues", 30.5), ("anchor_k", "7"),
    ("anchor_k", True), ("seed", "1"), ("inter_site_m", "200"),
    ("street_width_m", float("inf")), ("dump_iterations", "yes"),
    ("bandwidth_hz", True), ("carrier_hz", 0), ("carrier_hz", -28e9),
    ("fiber_capacity_bps", 0), ("fiber_capacity_bps", -5e9),
])
def test_bad_budget_value_is_config_error(tmp_path, capsys, command, key, value):
    cfg = write_config(tmp_path, **{key: value})
    assert main([command[0], "--config", str(cfg), *command[1:]]) == 1
    assert capsys.readouterr().err.startswith(f"error: {key}")
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command", [["run"], ["sweep", "--k-list", "1"], ["verify"]])
@pytest.mark.parametrize("key, value", [
    ("output_dir", 5), ("output_dir", None), ("gains_csv", 7), ("topology_file", 3),
    ("scenarios", "iab_st"), ("scenarios", ["iab_st", 5]), ("scenarios", {"iab_st": 1}),
])
def test_bad_config_type_is_config_error(tmp_path, capsys, command, key, value):
    cfg = write_config(tmp_path, **{key: value})
    assert main([command[0], "--config", str(cfg), *command[1:]]) == 1
    assert capsys.readouterr().err.startswith(f"error: {key}")
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command", [["run"], ["sweep", "--k-list", "1"]])
@pytest.mark.parametrize("topology", [
    [1, 2],
    {"bs_sites": [[0, 1.0]], "ues": [], "grid_rows": 1, "grid_cols": 1,
     "block_size_m": 100.0, "street_width_m": 20.0, "street_segments": []},
    {"bs_sites": [[0, "x", 0.0]], "ues": [], "grid_rows": 1, "grid_cols": 1,
     "block_size_m": 100.0, "street_width_m": 20.0, "street_segments": []},
])
def test_malformed_topology_file_is_config_error(tmp_path, capsys, command, topology):
    topo = tmp_path / "topo.json"
    topo.write_text(json.dumps(topology))
    cfg = write_config(tmp_path, topology_file=str(topo))
    assert main([command[0], "--config", str(cfg), *command[1:]]) == 1
    assert capsys.readouterr().err.startswith("error: malformed topology JSON")
    assert not (tmp_path / "out").exists()


def test_readme_names_every_config_key():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    assert set(cli._ALL_KEYS) <= set(re.findall(r"`(\w+)`", readme))
    for label, fields in (("Budget fields", dataclasses.fields(BudgetConfig)),
                          ("Solver fields", dataclasses.fields(SolverConfig))):
        paragraph = readme.split(f"\n{label}", 1)[1].split("\n\n", 1)[0]
        assert set(re.findall(r"`([a-z_]\w*)`", paragraph)) == {f.name for f in fields}


def test_empty_scenarios_rejected(tmp_path):
    cfg = write_config(tmp_path, scenarios=[])
    assert main(["run", "--config", str(cfg)]) == 1


def test_malformed_config_json(tmp_path):
    path = tmp_path / "config.json"
    path.write_text("{not json")
    assert main(["run", "--config", str(path)]) == 1


def test_cli_overrides_take_effect(tmp_path):
    cfg = write_config(tmp_path, scenarios=["access_ss"])
    out2 = tmp_path / "other"
    assert main(["run", "--config", str(cfg), "--output-dir", str(out2),
                 "--scenarios", "access_lb"]) == 0
    assert (out2 / "rates_access_lb.csv").exists()
    assert not (out2 / "rates_access_ss.csv").exists()


def test_gains_csv_roundtrip(tmp_path):
    # links.csv from a run can be cut down to a gains file and fed back in
    cfg = write_config(tmp_path, scenarios=["access_ss"], n_ues=3)
    assert main(["run", "--config", str(cfg)]) == 0
    links_csv = (tmp_path / "out" / "links.csv").read_text().splitlines()
    rows = [ln for ln in links_csv if ln and not ln.startswith("#")][1:]
    gains = ["from,to,gain_db"]
    for row in rows:
        src, dst, gain, _snr, _cap, _exists = row.split(",")
        if np.isfinite(float(gain)):
            gains.append(f"{src},{dst},{gain}")
    gains_path = tmp_path / "gains.csv"
    gains_path.write_text("\n".join(gains) + "\n")
    cfg2 = write_config(tmp_path, scenarios=["access_ss"], n_ues=3,
                        gains_csv=str(gains_path),
                        output_dir=str(tmp_path / "out2"))
    assert main(["run", "--config", str(cfg2)]) == 0
    a = json.loads((tmp_path / "out" / "solution_access_ss.json").read_text())
    b = json.loads((tmp_path / "out2" / "solution_access_ss.json").read_text())
    assert b["solution"]["gm_bps"] == pytest.approx(
        a["solution"]["gm_bps"], rel=1e-4)


def test_infinite_gain_is_config_error(tmp_path, capsys):
    gains_path = tmp_path / "gains.csv"
    gains_path.write_text("from,to,gain_db\n0,2,inf\n")
    cfg = write_config(tmp_path, n_ues=2, gains_csv=str(gains_path))
    assert main(["run", "--config", str(cfg)]) == 1
    assert "gains.csv:2: gain must be finite or -inf" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_starved_ues_reported_on_stderr(tmp_path, capsys):
    # two sites and no BS-BS gain: the relay's UE has no route to fiber
    from iabplan import BudgetConfig
    from iabplan.testkit import gain_for_capacity
    budget = BudgetConfig()
    up = gain_for_capacity(4e9, "ue-bs", budget)
    down = gain_for_capacity(4e9, "bs-ue", budget)
    gains_path = tmp_path / "gains.csv"
    gains_path.write_text("from,to,gain_db\n"
                          f"2,0,{up}\n0,2,{down}\n3,1,{up}\n1,3,{down}\n")
    cfg = write_config(tmp_path, n_ues=2, anchor_list=[0], scenarios=["iab_mesh_ss"],
                       gains_csv=str(gains_path))
    assert main(["run", "--config", str(cfg)]) == 0
    assert "[iab_mesh_ss] 1 UE(s) starved" in capsys.readouterr().err
    sol = json.loads((tmp_path / "out" / "solution_iab_mesh_ss.json").read_text())
    assert sol["excluded_ues"] == {"1": "starved"}


def test_no_servable_ue_is_exit_two(tmp_path, capsys):
    cfg = write_config(tmp_path, n_ues=0)
    assert main(["run", "--config", str(cfg)]) == 2
    assert capsys.readouterr().err.startswith("infeasible: no servable UEs")


def test_iteration_cap_is_exit_three(tmp_path, capsys):
    cfg = write_config(tmp_path, max_inner_iters=1)
    assert main(["run", "--config", str(cfg)]) == 3
    assert capsys.readouterr().err.startswith("no convergence: ")


def test_tight_gap_failure_is_exit_three(tmp_path, capsys):
    # a gap of 1e-16 per log-rate term is below the rounding error of the
    # stationarity residual itself, so no double-precision solve certifies
    # it: this one stops on a failed line search at tau = 1e12, a typed
    # failure, and the CLI exits 3, never with a traceback
    cfg = write_config(tmp_path, duality_gap_tol=1e-16, grid_rows=2, grid_cols=3,
                       n_ues=30, seed=4, anchor_k=1, scenarios=["iab_mesh_lb"])
    assert main(["run", "--config", str(cfg)]) == 3
    assert capsys.readouterr().err.startswith("no convergence: ")


def test_dump_iterations_writes_objective_trace(tmp_path):
    cfg = write_config(tmp_path)
    assert main(["run", "--config", str(cfg), "--dump-iterations"]) == 0
    out = tmp_path / "out"
    for name in ("access_ss", "iab_mesh_ss"):
        cert = json.loads((out / f"solution_{name}.json").read_text())["certificate"]
        lines = (out / f"iterations_{name}.csv").read_text().splitlines()
        assert lines[0] == "outer_iter,objective_log"
        assert len(lines) - 1 == cert["outer_iters"] == len(cert["objective_trace"])
        for it, (line, obj) in enumerate(zip(lines[1:], cert["objective_trace"])):
            k, value = line.split(",")
            assert int(k) == it
            assert float(value) == pytest.approx(obj, rel=1e-11)


def test_manual_list_without_list_is_config_error(tmp_path, capsys):
    cfg = write_config(tmp_path, anchor_policy="manual-list")
    assert main(["run", "--config", str(cfg)]) == 1
    assert "anchor_list" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


class TestSweep:
    def test_manual_list_policy_is_config_error(self, tmp_path, capsys):
        cfg = write_config(tmp_path, anchor_policy="manual-list", anchor_list=[0])
        assert main(["sweep", "--config", str(cfg), "--k-list", "1,2"]) == 1
        assert capsys.readouterr().err.startswith("error: anchor_policy manual-list")
        assert not (tmp_path / "out").exists()

    def test_anchor_list_is_config_error(self, tmp_path, capsys):
        cfg = write_config(tmp_path, grid_cols=3, anchor_list=[2])
        assert main(["sweep", "--config", str(cfg), "--k-list", "1"]) == 1
        assert capsys.readouterr().err.startswith("error: anchor_list")
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("args", [["--k-list", "0"],
                                      ["--k-list", "1", "--anchor-policy", "bogus"]])
    def test_rejected_input_writes_nothing(self, tmp_path, capsys, args):
        # the anchor count and policy are checked as the sweep runs
        cfg = write_config(tmp_path)
        assert main(["sweep", "--config", str(cfg), *args]) == 1
        assert capsys.readouterr().err.startswith("error: ")
        assert not (tmp_path / "out").exists()

    def test_sweep_writes_csv(self, tmp_path):
        cfg = write_config(tmp_path, scenarios=["access_ss", "iab_mesh_ss"])
        assert main(["sweep", "--config", str(cfg), "--k-list", "1,2"]) == 0
        lines = (tmp_path / "out" / "sweep.csv").read_text().splitlines()
        data = [ln for ln in lines if ln and not ln.startswith("#")]
        assert data[0] == "k,variant,gm_mbps,seed"
        assert len(data) == 1 + 4    # two k values x two variants

    def test_full_deployment_equalizes(self, tmp_path):
        cfg = write_config(tmp_path, scenarios=["access_ss", "iab_mesh_ss"])
        assert main(["sweep", "--config", str(cfg), "--k-list", "2"]) == 0
        rows = [ln.split(",") for ln in
                (tmp_path / "out" / "sweep.csv").read_text().splitlines()
                if ln and not ln.startswith("#")][1:]
        gms = {r[1]: float(r[2]) for r in rows}
        assert gms["access_ss"] == pytest.approx(gms["iab_mesh_ss"], rel=1e-5)

    def test_empty_k_list_rejected(self, tmp_path, capsys):
        cfg = write_config(tmp_path)
        assert main(["sweep", "--config", str(cfg), "--k-list", ""]) == 1

    def test_bad_k_list_rejected(self, tmp_path):
        cfg = write_config(tmp_path)
        assert main(["sweep", "--config", str(cfg), "--k-list", "2,x"]) == 1


class TestVerify:
    def test_verify_passes_with_defaults(self, tmp_path, capsys):
        cfg = write_config(tmp_path)
        assert main(["verify", "--config", str(cfg)]) == 0
        out = capsys.readouterr().out
        assert "PASS" in out and "FAIL" not in out

    def test_verify_passes_at_loose_tolerance(self, tmp_path, capsys):
        # each solve is certified at the configured tolerance, not at the
        # default one
        cfg = write_config(tmp_path, duality_gap_tol=1e-4)
        assert main(["verify", "--config", str(cfg)]) == 0
        out = capsys.readouterr().out
        assert "PASS" in out and "FAIL" not in out

    def test_unreachable_tolerance_is_exit_three(self, tmp_path, capsys):
        cfg = write_config(tmp_path, duality_gap_tol=1e-16)
        assert main(["verify", "--config", str(cfg)]) == 3
        assert "FAIL  solver-convergence" in capsys.readouterr().out

    @pytest.mark.parametrize("rows, code", [
        ([("prop", True, ""), ("obs", None, "x")], 0),
        ([("prop", False, ""), ("obs", None, "x")], 1),
    ])
    def test_observation_is_neither_pass_nor_fail(self, monkeypatch, capsys, rows, code):
        monkeypatch.setattr(cli, "_verify_rows", lambda cfg: iter(rows))
        assert cli.cmd_verify({}) == code
        assert "NOTE  obs" in capsys.readouterr().out

def test_usage_error_is_exit_one(capsys):
    assert main(["frobnicate"]) == 1
