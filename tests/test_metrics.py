import hashlib
from dataclasses import replace

import numpy as np
import pytest

from iabplan import (AnchorSet, MetricsError, RateReport, Variant, assemble,
                     build_link_table, compare_table, fiber_sweep, generate_grid,
                     hop_counts, make_report, make_scenario, rate_cdf,
                     select_anchors, solve, sweep_summary, synthetic_gains)
from iabplan.metrics import sweep_to_csv, top_decile_mean
from iabplan.testkit import analytic_chain_instance, links_from_caps


def small_report(rates_mbps, scenario="access_ss", excluded=0):
    r = np.asarray(rates_mbps, dtype=float) * 1e6
    gm = float(np.exp(np.log(r).mean())) if r.size else 0.0
    return RateReport(scenario=scenario, anchor_count=1,
                      ue_ids=np.arange(r.size), r_ul_bps=r, r_dl_bps=r,
                      gm_bps=gm, n_excluded=excluded, n_total=r.size + excluded)


class TestRateCdf:
    def test_percentiles(self):
        report = small_report([1, 2, 3])
        rates, pct = rate_cdf(report, direction="ul")
        assert np.allclose(pct, [1 / 3, 2 / 3, 1.0])
        assert np.allclose(rates, [1e6, 2e6, 3e6])

    def test_empty_errors(self):
        report = small_report([])
        with pytest.raises(MetricsError):
            rate_cdf(report, direction="ul")

    def test_excluded_appended_at_zero(self):
        report = small_report([1, 2], excluded=2)
        rates, _ = rate_cdf(report, direction="dl", include_excluded=True)
        assert (rates[:2] == 0).all()

    def test_combined_pools_both_directions(self):
        report = small_report([1, 2])
        rates, _ = rate_cdf(report, direction="combined")
        assert rates.size == 4

    def test_unknown_direction(self):
        with pytest.raises(MetricsError):
            rate_cdf(small_report([1]), direction="sideways")


class TestRateReport:
    def test_gm_matches_solver(self):
        prob, _ = analytic_chain_instance()
        sol, _ = solve(prob)
        anchors = AnchorSet(np.array([True, False]))
        report = make_report(sol, prob, "iab_st", anchors)
        recomputed = np.exp(np.mean(np.log(
            np.concatenate([report.r_ul_bps, report.r_dl_bps]))))
        assert report.gm_bps == pytest.approx(recomputed, rel=1e-9)
        assert report.gm_bps == pytest.approx(sol.gm_bps, rel=1e-12)

    def test_csv_writes_header_meta(self, tmp_path):
        report = small_report([1, 2])
        path = tmp_path / "rates.csv"
        report.to_csv(path, header_meta={"seed": 7})
        text = path.read_text()
        assert "# seed=7" in text
        assert "ue_id,rate_ul_mbps,rate_dl_mbps" in text


class TestHopCounts:
    def test_rate_weighted_example(self):
        # one-hop route at 2 Gbps plus two-hop route at 1 Gbps -> 4/3 hops
        links = links_from_caps(
            [[0.0, 0.0, 3.5e9]],
            [[0.0], [0.0], [3.5e9]],
            [[0.0, 5e9, 5e9], [5e9, 0.0, 5e9], [5e9, 5e9, 0.0]])
        anchors = AnchorSet(np.array([True, False, False]))
        pattern = make_scenario(Variant.IAB_MESH_SS, links, anchors, seed=0)
        prob = assemble(links, pattern, anchors)
        sol, _ = solve(prob)

        x = np.array(sol.x)
        cls = prob.flow_class_slices()
        na, nd = prob.ul_access.shape[0], prob.dl_access.shape[0]
        dl_bh = {tuple(e): cls["dl_backhaul"].start + k
                 for k, e in enumerate(map(tuple, prob.dl_backhaul))}
        x[cls["dl_backhaul"]] = 0.0
        x[dl_bh[(0, 2)]] = 2e9 / prob.scale_bps       # direct hop
        x[dl_bh[(0, 1)]] = 1e9 / prob.scale_bps       # two-hop route
        x[dl_bh[(1, 2)]] = 1e9 / prob.scale_bps
        x[na + 0] = 3e9 / prob.scale_bps              # delivered at site 2
        fake = replace(sol, x=x)
        hr = hop_counts(prob, fake, anchors, residual_tol=1.0)
        assert hr.hops[2] == pytest.approx(4 / 3, abs=1e-9)
        assert hr.hops[0] == 0.0

    def test_anchor_mass_and_conservation_on_real_solve(self):
        topo = generate_grid(2, 2, 200.0, 24, seed=6)
        links = build_link_table(synthetic_gains(topo))
        anchors = select_anchors(topo, 2, "greedy-coverage", links=links)
        pattern = make_scenario(Variant.IAB_ST, links, anchors, seed=6)
        prob = assemble(links, pattern, anchors)
        sol, _ = solve(prob)
        hr = hop_counts(prob, sol, anchors)
        assert hr.mass_at_zero == pytest.approx(2 / 4)
        assert hr.residual_rel < 1e-3
        # peeled path rates into each relay match its delivered traffic
        na = prob.ul_access.shape[0]
        delivered = np.zeros(4)
        for k, (b, _u) in enumerate(prob.dl_access):
            delivered[b] += sol.x[na + k] * sol.scale_bps
        for b in np.flatnonzero(~anchors.y):
            if delivered[b] > 0:
                assert hr.peeled_bps[b] == pytest.approx(delivered[b], rel=1e-6)

    # sha256 of `hops`, `peeled_bps` and `residual_rel` on the 3x6 grid with
    # 60 UEs, seed 1 and 7 greedy anchors, recorded from the path-peeling
    # implementation that compared whole path tuples
    GOLDEN = {
        "iab_st": ("90be4020012e4186c0c77170df04e90b03a9c7447df70598089ee86479eeb94e",
                   "f304cc2ac90f130c040d35e41aae06745300cc23142b99929b030221622267aa",
                   "3e369a0e67fb89a58a90dcbe6b480e59d2f6906f92b9b4fd70f487c63cdacc38"),
        "iab_mesh_ss": ("e76fcb448c9cbc999a86b6079679771dd89a6b7d81b95b7750e1b3a7e55a65fe",
                        "c38ed2f97012d0b2d7e0e109c25b6b9557bd362238e7dbd9f90d599a3242b219",
                        "19da817ebf8e21dc8f43a35788fbbccd817d808b2d867ab9855e83e6412fef6f"),
        "iab_mesh_lb": ("96dd9d177661834f2f9b452e8b08350c9925bc8115e0d7e4c0e667c4f1140c94",
                        "982f4e00b5f9067e0c3d5e504fb4a3cd915025f2336525f5cd9d1cf2019db092",
                        "dfc4b2d4a01ef4e676a19cf010d91769eacd2ca27a58c272dc25e2a4f1168f01"),
    }

    @pytest.mark.parametrize("variant", sorted(GOLDEN))
    def test_golden_on_grid(self, variant):
        topo = generate_grid(3, 6, 200.0, 60, 1)
        links = build_link_table(synthetic_gains(topo))
        anchors = select_anchors(topo, 7, "greedy-coverage", links=links, seed=1)
        pattern = make_scenario(variant, links, anchors, seed=1)
        prob = assemble(links, pattern, anchors)
        sol, _ = solve(prob)
        hr = hop_counts(prob, sol, anchors)
        digests = tuple(hashlib.sha256(a.tobytes()).hexdigest() for a in
                        (hr.hops, hr.peeled_bps, np.float64(hr.residual_rel)))
        assert digests == self.GOLDEN[variant]

    def test_cdf_points(self):
        hops = np.array([0.0, 0.0, 1.0, 2.0])
        from iabplan import HopReport
        hr = HopReport(hops=hops, peeled_bps=np.zeros(4), residual_rel=0.0,
                       anchor_mask=np.array([True, True, False, False]))
        vals, pct = hr.cdf()
        assert vals.tolist() == [0.0, 0.0, 1.0, 2.0]
        assert pct.tolist() == [0.25, 0.5, 0.75, 1.0]
        assert hr.mass_at_zero == 0.5


@pytest.fixture(scope="module")
def world():
    topo = generate_grid(2, 3, 200.0, 24, seed=11)
    links = build_link_table(synthetic_gains(topo))
    return topo, links


class TestFiberSweep:

    def test_full_deployment_collapses(self, world):
        topo, links = world
        rows = fiber_sweep(topo, links, ["access_ss", "iab_mesh_ss"],
                           [topo.n_bs], seeds=[0])
        gms = {r.variant: r.gm_bps for r in rows}
        assert gms["access_ss"] == pytest.approx(gms["iab_mesh_ss"], rel=4e-6)

    def test_gm_nondecreasing_in_k(self, world):
        # Greedy anchor sets are nested in k, and so are the patterns of
        # iab_mesh_ss (access does not depend on the anchors) and access_lb
        # (every anchor link), so the feasible set only grows.  Served sets
        # only grow too, so equal excluded counts mean equal served sets and
        # the GM cannot fall.  access_ss is left out: strongest-anchor
        # attachment is not nested in k.
        topo, links = world
        rows = fiber_sweep(topo, links, ["iab_mesh_ss", "access_lb"],
                           range(1, 7), seeds=[0])
        for variant in ("iab_mesh_ss", "access_lb"):
            ordered = sorted((r for r in rows if r.variant == variant),
                             key=lambda r: r.k)
            pairs = [(a, b) for a, b in zip(ordered, ordered[1:])
                     if a.n_excluded == b.n_excluded]
            assert pairs, variant
            for a, b in pairs:
                assert a.gm_bps <= b.gm_bps * (1 + 4e-6), (variant, a.k, b.k)

    def test_csv_and_summary(self, world, tmp_path):
        topo, links = world
        rows = fiber_sweep(topo, links, ["access_ss"], [2, 6], seeds=[0, 1])
        path = tmp_path / "sweep.csv"
        sweep_to_csv(rows, path, header_meta={"seed": "0,1"})
        lines = path.read_text().splitlines()
        assert lines[0] == "# seed=0,1"
        assert lines[1] == "k,variant,gm_mbps,seed"
        assert len(lines) == 2 + 4
        summary = sweep_summary(rows)
        assert "access_ss" in summary

    def test_empty_sweep_errors(self):
        with pytest.raises(MetricsError):
            sweep_summary([])


class TestCompareTable:
    def test_rows_and_determinism(self):
        reports = [small_report([1, 2], scenario="access_ss"),
                   small_report([2, 3], scenario="iab_st"),
                   small_report([3, 4], scenario="iab_mesh_ss")]
        table = compare_table(reports)
        assert table == compare_table(reports)
        lines = table.splitlines()
        assert len(lines) == 2 + 3
        assert lines[2].startswith("access_ss")

    def test_identical_reports_identical_rows(self):
        rep = small_report([5, 6])
        table = compare_table([rep, rep])
        lines = table.splitlines()
        assert lines[2] == lines[3]

    def test_empty_errors(self):
        with pytest.raises(MetricsError):
            compare_table([])


def test_top_decile_mean():
    report = small_report(list(range(1, 21)))
    assert top_decile_mean(report, "ul") == pytest.approx(19.5e6)
