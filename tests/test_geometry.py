import json
from types import SimpleNamespace

import numpy as np
import pytest

from iabplan import ConfigError, Topology, generate_grid, select_anchors
from iabplan.linkbudget import build_link_table, synthetic_gains


def test_default_grid_counts():
    topo = generate_grid(3, 6, 200.0, 600, seed=42)
    assert topo.n_bs == 18
    assert topo.n_ue == 600
    assert topo.street_segments.shape == (9, 4)  # 6 vertical + 3 horizontal


def test_minimal_grid():
    topo = generate_grid(1, 1, 200.0, 0, seed=0)
    assert topo.n_bs == 1
    assert topo.n_ue == 0


def test_determinism_under_fixed_seed():
    a = generate_grid(2, 2, 100.0, 10, seed=7)
    b = generate_grid(2, 2, 100.0, 10, seed=7)
    assert np.array_equal(a.ue_xy, b.ue_xy)
    assert np.array_equal(a.bs_xy, b.bs_xy)
    c = generate_grid(2, 2, 100.0, 10, seed=8)
    assert not np.array_equal(a.ue_xy, c.ue_xy)


def test_every_ue_lies_in_a_street():
    for seed in range(5):
        topo = generate_grid(3, 4, 150.0, 200, seed=seed)
        assert topo.in_streets(topo.ue_xy).all()


def test_mean_nearest_neighbor_distance():
    topo = generate_grid(3, 6, 200.0, 0, seed=0)
    d = np.linalg.norm(topo.bs_xy[:, None, :] - topo.bs_xy[None, :, :], axis=2)
    np.fill_diagonal(d, np.inf)
    mean_nn = d.min(axis=1).mean()
    assert abs(mean_nn - 200.0) / 200.0 <= 0.2


def test_bad_grid_parameters():
    with pytest.raises(ConfigError):
        generate_grid(0, 3, 200.0, 10, seed=0)
    with pytest.raises(ConfigError):
        generate_grid(2, 2, -5.0, 10, seed=0)
    with pytest.raises(ConfigError):
        generate_grid(2, 2, 200.0, 10, seed=0, street_width_m=0.0)


@pytest.mark.parametrize("args, kwargs", [
    ((2.5, 3, 200.0, 30, 1), {}),
    ((True, 3, 200.0, 30, 1), {}),
    ((2, 3.0, 200.0, 30, 1), {}),
    ((2, 3, 200.0, 30.5, 1), {}),
    ((2, 3, 200.0, False, 1), {}),
    ((2, 3, 200.0, 30, 1.0), {}),
    ((2, 3, 200.0, 30, -1), {}),
    ((2, 3, float("inf"), 30, 1), {}),
    ((2, 3, float("nan"), 30, 1), {}),
    ((2, 3, 200.0, 30, 1), {"street_width_m": float("nan")}),
    ((2, 3, 200.0, 30, 1), {"street_width_m": float("inf")}),
])
def test_grid_argument_types(args, kwargs):
    with pytest.raises(ConfigError):
        generate_grid(*args, **kwargs)


def test_topology_json_roundtrip(tmp_path):
    topo = generate_grid(2, 3, 100.0, 25, seed=3)
    path = tmp_path / "topo.json"
    topo.to_json(path)
    back = Topology.from_json(path)
    assert np.allclose(back.bs_xy, topo.bs_xy)
    assert np.allclose(back.ue_xy, topo.ue_xy)
    assert np.allclose(back.street_segments, topo.street_segments)


def test_malformed_topology_json_is_config_error(tmp_path):
    path = tmp_path / "topo.json"
    path.write_text("{not json")
    with pytest.raises(ConfigError, match="topo.json"):
        Topology.from_json(path)


def test_topology_json_rejects_gapped_ids(tmp_path):
    topo = generate_grid(1, 2, 100.0, 2, seed=0)
    data = json.loads(topo.to_json())
    data["bs_sites"][1][0] = 5
    with pytest.raises(ConfigError):
        Topology.from_dict(data)


class TestSelectAnchors:
    def test_manual_list(self):
        topo = generate_grid(3, 6, 200.0, 0, seed=0)
        anchors = select_anchors(topo, policy="manual-list",
                                 manual=[0, 2, 5, 9, 11, 14, 17])
        assert anchors.k == 7
        assert anchors.y.sum() == 7

    def test_manual_list_errors(self):
        topo = generate_grid(2, 2, 200.0, 0, seed=0)
        with pytest.raises(ConfigError):
            select_anchors(topo, policy="manual-list", manual=[0, 99])
        with pytest.raises(ConfigError):
            select_anchors(topo, policy="manual-list", manual=[1, 1])
        with pytest.raises(ConfigError):
            select_anchors(topo, policy="manual-list", manual=[])

    def test_manual_ids_must_be_integers(self):
        topo = generate_grid(2, 2, 200.0, 0, seed=0)
        for bad in ([True], [0, False], [1.0], ["1"], 3, None):
            with pytest.raises(ConfigError):
                select_anchors(topo, policy="manual-list", manual=bad)
        anchors = select_anchors(topo, policy="manual-list", manual=np.array([3, 0]))
        assert anchors.y.tolist() == [True, False, False, True]

    def test_full_deployment_is_all_ones(self):
        topo = generate_grid(2, 3, 200.0, 0, seed=0)
        anchors = select_anchors(topo, k=6, policy="seeded-random", seed=1)
        assert anchors.y.all()

    def test_seeded_random_deterministic_and_nested(self):
        topo = generate_grid(2, 2, 100.0, 0, seed=0)
        a = select_anchors(topo, k=2, policy="seeded-random", seed=3)
        b = select_anchors(topo, k=2, policy="seeded-random", seed=3)
        assert np.array_equal(a.y, b.y)
        bigger = select_anchors(topo, k=3, policy="seeded-random", seed=3)
        assert (bigger.y | a.y).sum() == 3  # prefix property: a is a subset

    def test_k_out_of_range(self):
        topo = generate_grid(2, 2, 100.0, 0, seed=0)
        for bad in (0, 5, None):
            with pytest.raises(ConfigError):
                select_anchors(topo, k=bad, policy="seeded-random", seed=0)

    def test_k_must_be_an_integer(self):
        topo = generate_grid(2, 2, 100.0, 0, seed=0)
        for bad in (2.0, True, False, "2", np.float64(2)):
            for policy in ("seeded-random", "greedy-coverage"):
                with pytest.raises(ConfigError):
                    select_anchors(topo, k=bad, policy=policy, seed=0)
        assert select_anchors(topo, k=np.int64(2), policy="seeded-random").k == 2

    def test_greedy_coverage(self):
        topo = generate_grid(2, 3, 150.0, 40, seed=9)
        links = build_link_table(synthetic_gains(topo))
        anchors = select_anchors(topo, k=3, policy="greedy-coverage", links=links)
        assert anchors.k == 3
        again = select_anchors(topo, k=3, policy="greedy-coverage", links=links)
        assert np.array_equal(anchors.y, again.y)
        # greedy picks are prefixes: k=2 set is inside the k=3 set
        smaller = select_anchors(topo, k=2, policy="greedy-coverage", links=links)
        assert not (smaller.y & ~anchors.y).any()

    def test_greedy_coverage_matches_full_recount(self):
        # select_anchors keeps per-BS counts and updates them after each
        # pick; recounting every UE at every pick must give the same picks,
        # ties to the lowest id included (few capacity levels make many)
        rng = np.random.default_rng(0)
        for trial in range(40):
            topo = generate_grid(int(rng.integers(1, 4)), int(rng.integers(1, 4)), 100.0,
                                 int(rng.integers(0, 30)), seed=trial)
            shape = (topo.n_bs, topo.n_ue)
            links = SimpleNamespace(exists_bu=rng.random(shape) < 0.8,
                                    cap_bu=rng.integers(0, 4, size=shape).astype(float))
            cap_dl = np.where(links.exists_bu, links.cap_bu, 0.0)
            best, y = np.zeros(topo.n_ue), np.zeros(topo.n_bs, dtype=bool)
            for k in range(1, topo.n_bs + 1):
                y[np.argmax(np.where(y, -1, (cap_dl > best).sum(axis=1)))] = True
                best = np.maximum(best, cap_dl[y].max(axis=0))
                got = select_anchors(topo, k, "greedy-coverage", links=links)
                assert np.array_equal(got.y, y), (trial, k)

    def test_greedy_needs_links(self):
        topo = generate_grid(2, 2, 100.0, 5, seed=0)
        with pytest.raises(ConfigError):
            select_anchors(topo, k=2, policy="greedy-coverage")
