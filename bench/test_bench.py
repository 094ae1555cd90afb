"""The benchmark's own test: every workload at a reduced size.

It checks that a run's last line names every metric of BENCHMARK.json with
its unit, that a solver forced to fail is counted in `failed` without
crashing the run, and that the benchmark refuses to run without sources.
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import iabplan as ip  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
SMALL = {
    "grid_plan": dict(rows=2, cols=2, n_ues=8, anchor_counts=(2,)),
    "fiber_sweep": dict(rows=2, cols=2, n_ues=6, anchor_counts=(1, 2)),
    "city_assemble": dict(rows=2, cols=3, n_ues=40, anchor_counts=(2,)),
}


@pytest.fixture
def small(monkeypatch):
    for name, size in SMALL.items():
        monkeypatch.setitem(workloads.WORKLOADS, name,
                            dataclasses.replace(workloads.WORKLOADS[name], **size))
    monkeypatch.setattr(run, "SETUP_SAMPLES", 2)
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        monkeypatch.setenv(var, "1")


def _run(capsys, name, trace):
    rc = run.main(["--workload", name, "--seed", "3", "--seconds", "0",
                   "--trace", str(trace)])
    assert rc == 0
    return json.loads(capsys.readouterr().out.strip().splitlines()[-1])


def _operations(name):
    return len(SMALL[name]["anchor_counts"]) * len(workloads.SCENARIOS)


@pytest.mark.parametrize("name", list(SMALL))
@pytest.mark.parametrize("trace", [0, 1])
def test_report_names_every_metric(small, capsys, name, trace):
    result = _run(capsys, name, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] == (1 + trace) * _operations(name)
    wanted = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == \
        {m["name"]: m["unit"] for m in wanted}
    assert all(isinstance(v["value"], (int, float)) for v in result["metrics"].values())
    if not trace:
        assert all(v["value"] > 0 for v in result["metrics"].values())


@pytest.mark.parametrize("name", ["grid_plan", "fiber_sweep"])
def test_forced_solver_failure_is_counted(small, capsys, monkeypatch, name):
    monkeypatch.setattr(workloads, "SOLVER", ip.SolverConfig(max_inner_iters=2))
    result = _run(capsys, name, 0)
    assert result["attempted"] == _operations(name)
    assert result["failed"] == result["attempted"]
    assert result["correct"] is True


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(Path(__file__).parent, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run([sys.executable, "bench/run.py", "--workload", "grid_plan",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert done.returncode != 0
    assert done.stdout == ""
