"""Command-line front end: `run`, `sweep` and `verify`.

Configuration is one flat JSON file (documented in the README) whose keys
can be overridden by command-line flags.  Every artifact embeds the resolved
configuration as a provenance header, so outputs are self-describing and a
repeated run with the same config and seed is byte-identical.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import math
import numbers
import sys
from pathlib import Path

from . import __version__
from .artifacts import write_csv, write_json
from .connectivity import Variant, make_scenario
from .errors import ConfigError, ConvergenceError, IabPlanError, InfeasibleProblemError
from .geometry import Topology, generate_grid, select_anchors
from .linkbudget import BudgetConfig, build_link_table, load_gains_csv, synthetic_gains
from .metrics import (compare_table, fiber_sweep, make_report, sweep_summary,
                      sweep_to_csv)
from .oracle import brute_force_oracle
from .problem import assemble
from .solver import SolverConfig, solve

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_INFEASIBLE = 2
EXIT_NO_CONVERGENCE = 3

_TOPOLOGY_KEYS = {
    "grid_rows": 3, "grid_cols": 6, "inter_site_m": 200.0,
    "street_width_m": 20.0, "n_ues": 600, "topology_file": None,
}
_RUN_KEYS = {
    "gains_csv": None,
    "anchor_policy": "greedy-coverage",   # manual-list | seeded-random | greedy-coverage
    "anchor_k": 7,
    "anchor_list": None,
    "scenarios": [v.value for v in Variant],
    "seed": 1,
    "output_dir": "out",
    "dump_iterations": False,
}
_BUDGET_KEYS = {f.name: f.default for f in dataclasses.fields(BudgetConfig)}
_SOLVER_KEYS = {f.name: f.default for f in dataclasses.fields(SolverConfig)}
_ALL_KEYS = {**_TOPOLOGY_KEYS, **_RUN_KEYS, **_BUDGET_KEYS, **_SOLVER_KEYS}


def load_config(path=None, overrides: dict | None = None) -> dict:
    """Merge defaults, the JSON config file and CLI overrides; validate keys."""
    cfg = dict(_ALL_KEYS)
    if path is not None:
        p = Path(path)
        if not p.exists():
            raise ConfigError(f"config file not found: {path}")
        try:
            data = json.loads(p.read_text())
        except json.JSONDecodeError as exc:
            raise ConfigError(f"{path}: invalid JSON ({exc})") from exc
        if not isinstance(data, dict):
            raise ConfigError(f"{path}: the config must be a JSON object of keys")
        for key, value in data.items():
            if key not in _ALL_KEYS:
                raise ConfigError(f"{path}: unknown config key {key!r}")
            cfg[key] = value
    for key, value in (overrides or {}).items():
        if value is not None:
            cfg[key] = value
    scenarios = cfg["scenarios"]
    if not (isinstance(scenarios, list) and all(isinstance(s, str) for s in scenarios)):
        raise ConfigError(f"scenarios must be a list of scenario names, got {scenarios!r}")
    if not scenarios:
        raise ConfigError("scenario list is empty")
    try:
        cfg["scenarios"] = [Variant(s).value for s in scenarios]
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    for key in ("output_dir", "gains_csv", "topology_file"):
        if not (isinstance(cfg[key], str) or (cfg[key] is None and key != "output_dir")):
            raise ConfigError(f"{key} must be a path string, got {cfg[key]!r}")
    for key in ("gains_csv", "topology_file"):
        if cfg[key] is not None and not Path(cfg[key]).exists():
            raise ConfigError(f"{key} does not exist: {cfg[key]}")
    for key in ("grid_rows", "grid_cols", "n_ues", "anchor_k", "seed"):
        if isinstance(cfg[key], bool) or not isinstance(cfg[key], numbers.Integral):
            raise ConfigError(f"{key} must be an integer, got {cfg[key]!r}")
    if cfg["seed"] < 0:
        raise ConfigError(f"seed must be >= 0, got {cfg['seed']}")
    for key in ("inter_site_m", "street_width_m"):
        value = cfg[key]
        if isinstance(value, bool) or not (isinstance(value, numbers.Real)
                                           and math.isfinite(value)):
            raise ConfigError(f"{key} must be a finite number, got {value!r}")
    if not isinstance(cfg["dump_iterations"], bool):
        raise ConfigError(f"dump_iterations must be true or false, "
                          f"got {cfg['dump_iterations']!r}")
    # both reject bad values here, before any command writes output
    _budget_from(cfg)
    _solver_from(cfg)
    return cfg


def provenance(cfg: dict) -> tuple[dict, dict]:
    """Resolved config for artifact headers (output location excluded): the
    JSON payload, and the CSV header fields with lists and dicts in JSON."""
    meta = {k: cfg[k] for k in sorted(cfg) if k not in ("output_dir",)}
    meta["iabplan_version"] = __version__
    header = {k: json.dumps(v) if isinstance(v, (list, dict)) else v
              for k, v in meta.items()}
    return meta, header


def _budget_from(cfg: dict) -> BudgetConfig:
    return BudgetConfig(**{k: cfg[k] for k in _BUDGET_KEYS})


def _solver_from(cfg: dict) -> SolverConfig:
    return SolverConfig(**{k: cfg[k] for k in _SOLVER_KEYS})


def _build_links(cfg: dict):
    budget = _budget_from(cfg)
    if cfg["topology_file"]:
        topo = Topology.from_json(cfg["topology_file"])
    else:
        topo = generate_grid(cfg["grid_rows"], cfg["grid_cols"],
                             cfg["inter_site_m"], cfg["n_ues"], cfg["seed"],
                             street_width_m=cfg["street_width_m"])
    if cfg["gains_csv"]:
        gains = load_gains_csv(cfg["gains_csv"], topo.n_bs, topo.n_ue)
    else:
        gains = synthetic_gains(topo, budget)
    return topo, build_link_table(gains, budget)


def cmd_run(cfg: dict) -> int:
    topo, links = _build_links(cfg)
    if cfg["anchor_list"] is not None:
        anchors = select_anchors(topo, policy="manual-list", manual=cfg["anchor_list"])
    else:
        anchors = select_anchors(topo, cfg["anchor_k"], cfg["anchor_policy"],
                                 links=links, seed=cfg["seed"])
    out = Path(cfg["output_dir"])
    out.mkdir(parents=True, exist_ok=True)
    meta, header = provenance(cfg)

    topo.to_json(out / "topology.json")
    links.to_csv(out / "links.csv", header_meta=header)
    write_json(out / "anchors.json",
               {"fiber_sites": anchors.ids.tolist(), "config": meta})

    solver_cfg = _solver_from(cfg)
    reports = []
    for name in cfg["scenarios"]:
        variant = Variant(name)
        pattern = make_scenario(variant, links, anchors, seed=cfg["seed"])
        pattern.to_json(out / f"pattern_{name}.json")
        prob = assemble(links, pattern, anchors)
        n_starved = list(prob.excluded.values()).count("starved")
        if n_starved:
            print(f"[{name}] {n_starved} UE(s) starved (attached to sites with no "
                  "route to fiber); excluded from the objective", file=sys.stderr)
        solution, cert = solve(prob, solver_cfg)
        report = make_report(solution, prob, name, anchors)
        report.to_csv(out / f"rates_{name}.csv", header_meta=header)
        write_json(out / f"solution_{name}.json", {
            "scenario": name,
            "solution": solution.to_dict(),
            "certificate": dataclasses.asdict(cert),
            "kkt_ok": cert.kkt.ok,
            "excluded_ues": prob.excluded,
            "config": meta,
        })
        if cfg["dump_iterations"]:
            trace = cert.objective_trace
            write_csv(out / f"iterations_{name}.csv", None, ["outer_iter", "objective_log"],
                      "%d,%.12g", [range(len(trace)), trace])
        reports.append(report)
        print(f"[{name}] gm={solution.gm_bps / 1e6:.3f} Mbps "
              f"served={solution.ue_ids.size}/{prob.n_ue} "
              f"gap={cert.gap_rel:.2e} kkt_ok={cert.kkt.ok}")

    table = compare_table(reports)
    (out / "compare.txt").write_text(table + "\n")
    write_json(out / "compare.json", {
        "rows": [{"scenario": r.scenario, "anchors": r.anchor_count,
                  "gm_mbps": r.gm_bps / 1e6, "served": int(r.ue_ids.size),
                  "excluded": r.n_excluded} for r in reports],
        "config": meta,
    })
    print(table)
    return EXIT_OK


def cmd_sweep(cfg: dict, k_list: list[int]) -> int:
    if not k_list:
        raise ConfigError("sweep needs a nonempty k list")
    if cfg["anchor_policy"] == "manual-list":
        raise ConfigError("anchor_policy manual-list fixes the anchors; a sweep varies k")
    if cfg["anchor_list"] is not None:
        raise ConfigError("anchor_list fixes the anchors; a sweep varies k")
    topo, links = _build_links(cfg)
    _, header = provenance(cfg)
    rows = fiber_sweep(topo, links, cfg["scenarios"], k_list, [cfg["seed"]],
                       policy=cfg["anchor_policy"], solver_cfg=_solver_from(cfg))
    out = Path(cfg["output_dir"])
    out.mkdir(parents=True, exist_ok=True)
    sweep_to_csv(rows, out / "sweep.csv", header_meta=header)
    summary = sweep_summary(rows)
    (out / "sweep_summary.txt").write_text(summary + "\n")
    print(summary)
    return EXIT_OK


def _verify_rows(cfg: dict):
    """Built-in property suite; yields (name, passed, detail), with passed
    None for an observation that is not a property of the model."""
    from .testkit import (analytic_chain_instance, analytic_single_instance,
                          random_tiny_instance)

    solver_cfg = _solver_from(cfg)
    gap = solver_cfg.duality_gap_tol

    prob, c = analytic_single_instance()
    sol, _ = solve(prob, solver_cfg)
    err = abs(sol.gm_bps - c / 2) / (c / 2)
    yield ("analytic-single-ue", err <= max(1e-6, 4 * gap), f"rel_err={err:.2e}")

    prob, expected = analytic_chain_instance()
    sol, _ = solve(prob, solver_cfg)
    err = abs(sol.gm_bps - expected) / expected
    yield ("analytic-two-hop-chain", err <= max(1e-6, 4 * gap), f"rel_err={err:.2e}")

    for seed in (11, 12, 13):
        prob = random_tiny_instance(seed)
        sol, _ = solve(prob, solver_cfg)
        bracket = brute_force_oracle(prob, grid_resolution=1000)
        ok = bracket.contains(sol.gm_bps, rel_slack=max(1e-9, 2 * gap))
        yield (f"oracle-bracket-seed{seed}", ok,
               f"gm={sol.gm_bps:.4g} lo={bracket.gm_lo_bps:.4g} hi={bracket.gm_hi_bps:.4g}")

    topo = generate_grid(2, 3, 200.0, 30, seed=5)
    budget = _budget_from(cfg)
    links = build_link_table(synthetic_gains(topo, budget), budget)
    anchors = select_anchors(topo, 2, "greedy-coverage", links=links, seed=5)
    runs = {}
    for variant in Variant:
        pattern = make_scenario(variant, links, anchors, seed=5)
        prob = assemble(links, pattern, anchors)
        sol, _ = solve(prob, solver_cfg)
        runs[variant.value] = (pattern, prob, sol)

    def summary(name):
        sol = runs[name][2]
        return f"{name}={sol.gm_bps / 1e6:.3f} ({sol.ue_ids.size} served)"

    # GM(A) <= GM(B) is a theorem only when pattern A is a subset of pattern
    # B (A's optimum, padded with zeros, is feasible for B) and both serve
    # the same UEs (same objective).  make_scenario promises the nesting.
    for small, big in (("access_ss", "access_lb"), ("iab_st", "iab_mesh_ss"),
                       ("iab_mesh_ss", "iab_mesh_lb")):
        (pat_a, prob_a, sol_a), (pat_b, prob_b, sol_b) = runs[small], runs[big]
        name, detail = f"gm-{small}<={big}", f"{summary(small)} <= {summary(big)}"
        if not pat_a.is_subpattern_of(pat_b):
            yield (name, False, f"patterns not nested; {detail}")
        elif prob_a.excluded.keys() != prob_b.excluded.keys():
            yield (name, None, f"served sets differ; {detail}")
        else:
            yield (name, sol_a.gm_bps <= sol_b.gm_bps * (1 + 2 * gap), detail)

    # The paper's headline compares different UE populations and unnested
    # access patterns: an observation, not a property.
    yield ("iab-vs-access-only", None, f"{summary('access_ss')}  {summary('iab_st')}")


def cmd_verify(cfg: dict) -> int:
    """Print one row per property: PASS, FAIL, or NOTE for an observation
    (passed is None), which does not count toward the exit code."""
    rows = []
    try:
        for name, passed, detail in _verify_rows(cfg):
            rows.append(passed)
            tag = "NOTE" if passed is None else "PASS" if passed else "FAIL"
            print(f"{tag}  {name:<28} {detail}")
    except ConvergenceError as exc:
        print(f"FAIL  solver-convergence          {exc}")
        return EXIT_NO_CONVERGENCE
    return EXIT_OK if all(p for p in rows if p is not None) else EXIT_CONFIG


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise ConfigError(message)


def _build_parser() -> _Parser:
    parser = _Parser(prog="iabplan",
                     description="IAB network planning: scenarios, solves, reports")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        """Config-key flags set only the keys given (dest is the key)."""
        p.add_argument("--config", help="flat JSON config file")
        key = functools.partial(p.add_argument, default=argparse.SUPPRESS)
        key("--seed", type=int)
        key("--output-dir")
        key("--scenarios", help="comma-separated scenario names",
            type=lambda text: [s.strip() for s in text.split(",") if s.strip()])
        key("--anchor-k", type=int)
        key("--anchor-policy")
        key("--gains-csv")
        key("--rows", type=int, dest="grid_rows")
        key("--cols", type=int, dest="grid_cols")
        key("--ues", type=int, dest="n_ues")

    p_run = sub.add_parser("run", help="solve the configured scenarios")
    common(p_run)
    p_run.add_argument("--dump-iterations", action="store_true", default=argparse.SUPPRESS)

    p_sweep = sub.add_parser("sweep", help="GM versus number of fiber drops")
    common(p_sweep)
    p_sweep.add_argument("--k-list", required=True,
                         help="comma-separated anchor counts, e.g. 7,12,18")

    p_verify = sub.add_parser("verify", help="run the built-in property suite")
    common(p_verify)
    return parser


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
        cfg = load_config(args.config, {k: v for k, v in vars(args).items()
                                        if k in _ALL_KEYS})
        if args.command == "run":
            return cmd_run(cfg)
        if args.command == "sweep":
            try:
                k_list = [int(k) for k in args.k_list.split(",") if k.strip()]
            except ValueError as exc:
                raise ConfigError(f"bad --k-list: {exc}") from exc
            return cmd_sweep(cfg, k_list)
        return cmd_verify(cfg)
    except InfeasibleProblemError as exc:
        print(f"infeasible: {exc}", file=sys.stderr)
        return EXIT_INFEASIBLE
    except ConvergenceError as exc:
        print(f"no convergence: {exc}", file=sys.stderr)
        return EXIT_NO_CONVERGENCE
    except IabPlanError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
