import json

import numpy as np
import pytest

from iabplan import cli
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


def test_bad_gains_path_is_config_error(tmp_path, capsys):
    cfg = write_config(tmp_path, gains_csv=str(tmp_path / "missing.csv"))
    assert main(["run", "--config", str(cfg)]) == 1
    assert "gains_csv" in capsys.readouterr().err


def test_unknown_config_key(tmp_path):
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"grid_rowz": 2}))
    assert main(["run", "--config", str(path)]) == 1


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


class TestSweep:
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

    def test_verify_fails_with_loose_tolerance(self, tmp_path, capsys):
        cfg = write_config(tmp_path, duality_gap_tol=0.2)
        code = main(["verify", "--config", str(cfg)])
        assert code != 0
        assert "FAIL" in capsys.readouterr().out

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
