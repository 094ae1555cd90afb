import math

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

from iabplan import (BudgetConfig, ConfigError, IngestionError, build_link_table,
                     capacity, effective_snr, generate_grid, link_snr,
                     load_gains_csv, synth_gain, synthetic_gains)
from iabplan.linkbudget import Gains

CFG = BudgetConfig()
DIRECTIONS = (("bb", "bs-bs"), ("bu", "bs-ue"), ("ub", "ue-bs"))


def table_snrs(links):
    """SNR (dB) of every pair of a link table, by block, from its gains."""
    return {block: link_snr(getattr(links, f"gain_{block}"), direction, links.cfg)
            for block, direction in DIRECTIONS}


def make_corridor(n_ues=0):
    """1x2 grid: two sites 200 m apart on one horizontal street."""
    return generate_grid(1, 2, 200.0, n_ues, seed=0)


class TestSynthGain:
    def test_los_100m_matches_friis(self):
        # hand-evaluated: 92.45 + 20 log10(28 GHz * 0.1 km) plus 0.11 dB/km
        topo = generate_grid(1, 2, 100.0, 0, seed=0)
        gain = synth_gain(topo, (("bs", 0), ("bs", 1)), CFG)
        expected = -(92.45 + 20 * math.log10(28 * 0.1)) - 0.011
        assert gain == pytest.approx(expected, abs=0.02)

    def test_coincident_nodes_clamp_to_one_meter(self):
        from iabplan import Topology
        base = make_corridor()
        topo = Topology(base.grid_rows, base.grid_cols, base.block_size_m,
                        base.street_width_m, base.bs_xy,
                        np.array([[0.0, 0.0]]),  # on top of site 0
                        base.street_segments)
        gain = synth_gain(topo, (("bs", 0), ("ue", 0)), CFG)
        expected = -(92.45 + 20 * math.log10(28 * 0.001)) - 0.11 * 0.001
        assert gain == pytest.approx(expected, abs=0.05)
        assert gain == pytest.approx(-61.4, abs=0.1)

    def test_deterministic(self):
        topo = make_corridor()
        pair = (("bs", 0), ("bs", 1))
        assert synth_gain(topo, pair, CFG) == synth_gain(topo, pair, CFG)

    def test_corner_penalty(self):
        # 2x2 grid: diagonal site pairs need one turn, aligned pairs none
        topo = generate_grid(2, 2, 200.0, 0, seed=0)
        g = synthetic_gains(topo, CFG)
        aligned = g.bb[0, 1]        # same horizontal street
        diagonal = g.bb[0, 3]       # perpendicular streets
        d_align, d_diag = 200.0, 400.0
        fspl_delta = 20 * math.log10(d_diag / d_align)
        atmo_delta = CFG.atmospheric_db_per_km * (d_diag - d_align) / 1000
        assert aligned - diagonal == pytest.approx(
            CFG.corner_loss_db + fspl_delta + atmo_delta, abs=1e-6)

    def test_unknown_node(self):
        topo = make_corridor()
        with pytest.raises(ConfigError):
            synth_gain(topo, (("bs", 0), ("ue", 3)), CFG)


class TestLinkSnr:
    def test_downlink_example(self):
        # 51 - 100 + 0 - 1 - 5 - 5 - (-84 + 7) = 17 dB at 1 GHz bandwidth
        assert link_snr(-100.0, "bs-ue", CFG) == pytest.approx(17.0, abs=1e-9)

    def test_uplink_symmetric_under_defaults(self):
        # 30 - 100 + 21 - 11 + 77 = 17 dB
        assert link_snr(-100.0, "ue-bs", CFG) == pytest.approx(17.0, abs=1e-9)
        assert link_snr(-100.0, "bs-bs", CFG) == pytest.approx(38.0, abs=1e-9)

    def test_absent_gain_stays_absent(self):
        assert link_snr(-np.inf, "bs-ue", CFG) == -np.inf

    def test_tx_power_is_the_ue_transmitter_only(self):
        # a BS always transmits at bs_eirp_dbm, so only uplink SNRs move
        gains = synthetic_gains(generate_grid(2, 3, 200.0, 20, seed=0))
        base = build_link_table(gains, CFG)
        louder = build_link_table(gains, CFG.replace(tx_power_dbm=40.0))
        snr, louder_snr = table_snrs(base), table_snrs(louder)
        assert np.array_equal(louder_snr["bb"], snr["bb"])
        assert np.array_equal(louder_snr["bu"], snr["bu"])
        finite = np.isfinite(snr["ub"])
        assert finite.any()
        assert np.allclose(louder_snr["ub"][finite], snr["ub"][finite] + 10.0)
        # and the table's links follow: only uplink capacities grow
        assert np.array_equal(louder.cap_bb, base.cap_bb)
        assert np.array_equal(louder.cap_bu, base.cap_bu)
        assert (louder.cap_ub >= base.cap_ub).all() and (louder.cap_ub > base.cap_ub).any()

    def test_bad_direction(self):
        with pytest.raises(ConfigError):
            link_snr(-100.0, "ue-ue", CFG)


class TestEffectiveSnr:
    def test_cap_limit(self):
        assert effective_snr(np.inf, CFG) == pytest.approx(1000.0)
        assert effective_snr(1e15, CFG) == pytest.approx(1000.0, rel=1e-9)

    def test_at_cap_value(self):
        assert effective_snr(1000.0, CFG) == pytest.approx(500.0)

    def test_at_threshold(self):
        assert effective_snr(1.0, CFG) == pytest.approx(1000.0 / 1001.0)

    def test_zero(self):
        assert effective_snr(0.0, CFG) == 0.0

    def test_harmonic_mean_mode_is_doubled(self):
        cfg = CFG.replace(effective_snr_mode="harmonic-mean")
        assert effective_snr(1000.0, cfg) == pytest.approx(1000.0)

    @given(st.floats(min_value=0.0, max_value=1e12, allow_nan=False))
    @example(x=1.8375371238368834e-56)
    def test_bounds_and_monotonicity(self, x):
        eff = effective_snr(x, CFG)
        assert 0.0 <= eff <= 1000.0
        assert eff <= x or x == 0
        assert effective_snr(x + 1.0, CFG) >= eff

    @given(st.floats(min_value=0.1, max_value=60.0))
    def test_parallel_never_above_cap(self, cap_db):
        cfg = CFG.replace(snr_cap_db=cap_db)
        assert effective_snr(np.inf, cfg) <= 10.0 ** (cap_db / 10.0)


class TestCapacity:
    def test_unit_snr_gives_bandwidth(self):
        assert capacity(1.0, 1e9) == pytest.approx(1e9)

    def test_zero(self):
        assert capacity(0.0, 1e9) == 0.0

    def test_capped_snr(self):
        assert capacity(1000.0, 1e9) == pytest.approx(1e9 * math.log2(1001), rel=1e-9)


class TestBuildLinkTable:
    def test_threshold_behavior(self):
        # -118 dB gain puts the BS->UE SNR at -1 dB: below the floor
        gains = Gains(bb=np.array([[-np.inf]]),
                      bu=np.array([[-118.0]]), ub=np.array([[-120.0]]))
        links = build_link_table(gains, CFG)
        assert not links.exists_bu[0, 0]
        assert links.cap_bu[0, 0] == 0.0

    def test_boundary_inclusive(self):
        # -117 dB gain is exactly 0 dB SNR for the access directions
        gains = Gains(bb=np.array([[-np.inf]]),
                      bu=np.array([[-117.0]]), ub=np.array([[-117.0]]))
        links = build_link_table(gains, CFG)
        assert table_snrs(links)["bu"][0, 0] == pytest.approx(0.0, abs=1e-9)
        assert links.exists_bu[0, 0]
        assert links.cap_bu[0, 0] > 0

    def test_full_grid_pair_counts(self, tmp_path):
        topo = generate_grid(3, 6, 200.0, 600, seed=1)
        links = build_link_table(synthetic_gains(topo, CFG), CFG)
        path = tmp_path / "links.csv"
        links.to_csv(path)
        rows = [ln for ln in path.read_text().splitlines()
                if ln and not ln.startswith("#")]
        assert len(rows) - 1 == 18 * 17 + 2 * 18 * 600

    def test_uplink_downlink_symmetry_under_defaults(self):
        topo = generate_grid(2, 3, 200.0, 50, seed=2)
        links = build_link_table(synthetic_gains(topo, CFG), CFG)
        assert np.allclose(links.cap_ub, links.cap_bu.T)
        assert np.array_equal(links.exists_ub, links.exists_bu.T)

    def test_effective_snr_and_capacity_ceilings(self):
        topo = generate_grid(3, 3, 150.0, 80, seed=3)
        links = build_link_table(synthetic_gains(topo, CFG), CFG)
        cap_lin = 10 ** (CFG.snr_cap_db / 10)
        for snr_db in table_snrs(links).values():
            assert (effective_snr(10 ** (snr_db / 10), CFG) <= cap_lin + 1e-9).all()
        ceiling = CFG.bandwidth_hz * math.log2(1 + cap_lin)
        for cap in (links.cap_bb, links.cap_bu, links.cap_ub):
            assert (cap <= ceiling + 1e-6).all()

    def test_infinite_gain_gets_the_ceiling_capacity(self):
        # -inf is an absent pair; +inf (built in code) is a link at the cap
        gains = Gains(bb=np.array([[-np.inf]]),
                      bu=np.array([[np.inf]]), ub=np.array([[-np.inf]]))
        links = build_link_table(gains, CFG)
        ceiling = capacity(effective_snr(np.inf, CFG), CFG.bandwidth_hz)
        assert links.exists_bu[0, 0] and links.cap_bu[0, 0] == ceiling > 0
        assert not links.exists_ub[0, 0] and links.cap_ub[0, 0] == 0.0

    def test_capacity_monotone_in_gain(self):
        gains = np.linspace(-140.0, -60.0, 60)
        for direction in ("bs-bs", "bs-ue", "ue-bs"):
            snr = link_snr(gains, direction, CFG)
            lin = np.where(snr >= CFG.min_snr_db, 10 ** (snr / 10), 0.0)
            caps = capacity(effective_snr(lin, CFG), CFG.bandwidth_hz)
            assert (np.diff(caps) >= -1e-9).all()


class TestGainCsv:
    def write(self, tmp_path, body):
        path = tmp_path / "gains.csv"
        path.write_text("from,to,gain_db\n" + body)
        return path

    def test_single_row(self, tmp_path):
        path = self.write(tmp_path, "0,1,-100\n")
        g = load_gains_csv(path, n_bs=2, n_ue=0)
        assert g.bb[0, 1] == -100.0
        assert g.bb[1, 0] == -np.inf

    def test_empty_body(self, tmp_path):
        g = load_gains_csv(self.write(tmp_path, ""), n_bs=2, n_ue=1)
        assert not np.isfinite(g.bb).any()
        assert not np.isfinite(g.bu).any()
        assert not np.isfinite(g.ub).any()

    def test_duplicate_pair_names_line(self, tmp_path):
        path = self.write(tmp_path, "0,1,-100\n0,1,-90\n")
        with pytest.raises(IngestionError, match=":3:"):
            load_gains_csv(path, n_bs=2, n_ue=0)

    def test_unknown_id(self, tmp_path):
        path = self.write(tmp_path, "0,9,-100\n")
        with pytest.raises(IngestionError, match="unknown node id 9"):
            load_gains_csv(path, n_bs=2, n_ue=1)

    def test_malformed_row(self, tmp_path):
        path = self.write(tmp_path, "0,1\n")
        with pytest.raises(IngestionError, match="expected 3 fields"):
            load_gains_csv(path, n_bs=2, n_ue=0)

    def test_ue_to_ue_rejected(self, tmp_path):
        path = self.write(tmp_path, "2,3,-80\n")
        with pytest.raises(IngestionError, match="UE-to-UE"):
            load_gains_csv(path, n_bs=2, n_ue=2)

    def test_bad_header(self, tmp_path):
        path = tmp_path / "gains.csv"
        path.write_text("src,dst,db\n0,1,-100\n")
        with pytest.raises(IngestionError, match="header"):
            load_gains_csv(path, n_bs=2, n_ue=0)

    @pytest.mark.parametrize("gain", ["nan", "inf", "+inf", " Infinity", "NaN"])
    def test_nan_and_plus_inf_rejected(self, tmp_path, gain):
        path = self.write(tmp_path, f"0,1,-100\n0,2,{gain}\n")
        with pytest.raises(IngestionError, match=":3: gain must be finite or -inf"):
            load_gains_csv(path, n_bs=2, n_ue=2)

    def test_minus_inf_is_an_absent_pair(self, tmp_path):
        g = load_gains_csv(self.write(tmp_path, "0,2,-inf\n2,0,-100\n"), n_bs=2, n_ue=2)
        assert g.bu[0, 0] == -np.inf and g.ub[0, 0] == -100.0
        assert not build_link_table(g, CFG).exists_bu[0, 0]

    def test_blocks_route_to_right_matrices(self, tmp_path):
        path = self.write(tmp_path, "0,2,-95\n2,1,-96\n0,1,-97\n")
        g = load_gains_csv(path, n_bs=2, n_ue=1)
        assert g.bu[0, 0] == -95.0   # bs0 -> ue0 (global id 2)
        assert g.ub[0, 1] == -96.0   # ue0 -> bs1
        assert g.bb[0, 1] == -97.0
