from collections import deque
from itertools import islice

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from iabplan import (AnchorSet, ConnectivityError, Variant, access_load_balanced,
                     access_signal_strength, backhaul_mesh, backhaul_spanning_tree,
                     build_link_table, generate_grid, make_scenario, synthetic_gains)
from iabplan.connectivity import bfs_tree, out_edges, search, usable_pairs
from iabplan.testkit import links_from_caps


def random_digraph(n, density, seed):
    """Boolean (n, n) adjacency without self-loops and a nonempty seed mask."""
    rng = np.random.default_rng(seed)
    adj = rng.random((n, n)) < density
    np.fill_diagonal(adj, False)
    seeds = rng.random(n) < 0.3
    seeds[rng.integers(n)] = True
    return adj, seeds


def lex_shortest_paths(n, edges, sources):
    """Per node: (depth, path tuple) of the lexicographically least shortest
    path from any source, by a queue BFS that compares whole paths."""
    best = {s: (0, (s,)) for s in sorted(sources)}
    frontier = deque(sorted(sources))
    adj = [[] for _ in range(n)]
    for (i, j) in sorted(edges):
        adj[i].append(j)
    while frontier:
        v = frontier.popleft()
        depth, path = best[v]
        for w in adj[v]:
            cand = (depth + 1, path + (w,))
            if w not in best:
                best[w] = cand
                frontier.append(w)
            elif best[w][0] == cand[0] and cand[1] < best[w][1]:
                best[w] = cand
    return best


def pair_loop_tree(gains_bb, anchors, exists_bb):
    """Spanning tree by scanning every (connected, unconnected) pair for the
    strongest edge, ties toward the lowest (connected, unconnected) ids."""
    n = gains_bb.shape[0]
    usable = exists_bb & exists_bb.T
    np.fill_diagonal(usable, False)
    connected = anchors.y.copy()
    b = np.zeros((n, n), dtype=bool)
    while not connected.all():
        best = (-np.inf, n, n)
        for i in np.flatnonzero(connected):
            for j in np.flatnonzero(~connected):
                if usable[i, j]:
                    key = (gains_bb[i, j], -i, -j)
                    if key > (best[0], -best[1], -best[2]):
                        best = (gains_bb[i, j], i, j)
        _, i, j = best
        if i == n:
            raise ConnectivityError("stranded")
        b[i, j] = b[j, i] = True
        connected[j] = True
    return b


def three_bs_links(c0=3e9, c1=5e9, c2=5e9):
    """One UE with links to three single-site anchors."""
    return links_from_caps([[c0, c1, c2]], [[c0], [c1], [c2]],
                           np.zeros((3, 3)))


class TestAccessSignalStrength:
    def test_tie_broken_by_seed(self):
        links = three_bs_links()
        picks = set()
        for seed in range(12):
            access, unserved = access_signal_strength(links, seed=seed)
            assert access[0].sum() == 1
            assert not unserved[0]
            picks.add(int(np.flatnonzero(access[0])[0]))
        assert picks <= {1, 2}      # never the weaker site
        assert len(picks) == 2      # both max-capacity sites show up

    def test_single_link(self):
        links = links_from_caps([[0.0, 4e9]], [[0.0], [4e9]], np.zeros((2, 2)))
        access, unserved = access_signal_strength(links, seed=0)
        assert access[0, 1] and access[0].sum() == 1

    def test_no_link_flags_ue(self):
        links = links_from_caps([[0.0]], [[0.0]], [[0.0]])
        access, unserved = access_signal_strength(links, seed=0)
        assert not access.any()
        assert unserved[0]

    def test_serving_mask_restricts(self):
        links = three_bs_links(c0=3e9, c1=9e9, c2=5e9)
        serving = np.array([True, False, True])
        access, _ = access_signal_strength(links, seed=0, serving=serving)
        assert access[0, 2]  # strongest among the allowed sites


    @settings(max_examples=40, deadline=None)
    @given(st.integers(1, 6), st.integers(1, 4), st.integers(0, 2**32 - 1))
    def test_matches_per_ue_loop(self, n_ue, n_bs, seed):
        # capacities from a three-value set, so ties are common
        rng = np.random.default_rng(seed)
        cap_ub = rng.choice([0.0, 2e9, 4e9], size=(n_ue, n_bs))
        links = links_from_caps(cap_ub, (cap_ub > 0).T * 3e9, np.zeros((n_bs, n_bs)))
        serving = rng.random(n_bs) < 0.7
        for mask in (None, serving):
            eligible = usable_pairs(links, mask)
            cap = np.where(eligible, links.cap_ub, -np.inf)
            expected = np.zeros(eligible.shape, dtype=bool)
            draws = np.random.default_rng(seed)
            for u in np.flatnonzero(eligible.any(axis=1)):
                cands = np.flatnonzero(cap[u] == cap[u].max())
                expected[u, cands[0] if cands.size == 1 else draws.choice(cands)] = True
            access, unserved = access_signal_strength(links, seed, serving=mask)
            assert (access == expected).all()
            assert (unserved == ~eligible.any(axis=1)).all()


class TestAccessLoadBalanced:
    def test_all_existing_links(self):
        links = three_bs_links()
        access, unserved = access_load_balanced(links)
        assert access[0].sum() == 3
        assert not unserved.any()

    def test_no_link_row(self):
        links = links_from_caps([[0.0]], [[0.0]], [[0.0]])
        access, unserved = access_load_balanced(links)
        assert not access.any() and unserved[0]


class TestBackhaulMesh:
    def test_symmetric_and_no_self_loops(self):
        caps = np.array([[0.0, 5e9, 4e9], [5e9, 0.0, 0.0], [4e9, 0.0, 0.0]])
        links = links_from_caps(np.zeros((1, 3)), np.zeros((3, 1)), caps)
        b = backhaul_mesh(links)
        assert not b.diagonal().any()
        assert np.array_equal(b, b.T)
        assert b.sum() == 4

    def test_isolated_bs(self):
        caps = np.array([[0.0, 5e9, 0.0], [5e9, 0.0, 0.0], [0.0, 0.0, 0.0]])
        links = links_from_caps(np.zeros((1, 3)), np.zeros((3, 1)), caps)
        b = backhaul_mesh(links)
        assert not b[2].any() and not b[:, 2].any()

    def test_full_grid_edge_budget(self):
        topo = generate_grid(3, 6, 200.0, 0, seed=0)
        links = build_link_table(synthetic_gains(topo))
        b = backhaul_mesh(links)
        assert b.sum() <= 18 * 17


class TestBfsTree:
    @settings(max_examples=60, deadline=None)
    @given(st.integers(1, 9), st.floats(0.0, 0.6), st.integers(0, 2**32 - 1))
    def test_tree_paths_are_lex_least_shortest(self, n, density, seed):
        adj, seeds = random_digraph(n, density, seed)
        edges = np.argwhere(adj)
        best = lex_shortest_paths(n, set(map(tuple, edges.tolist())),
                                  np.flatnonzero(seeds).tolist())
        pred, order = bfs_tree(n, edges, seeds)
        assert sorted(order.tolist()) == sorted(best)
        for v in order.tolist():
            path = [v]
            while pred[path[0]] >= 0:
                i, j = edges[pred[path[0]]]
                assert j == path[0]
                path.insert(0, int(i))
            assert (len(path) - 1, tuple(path)) == best[v]
        # discovery order sorts the reached nodes by (depth, path)
        assert order.tolist() == sorted(best, key=lambda v: best[v])
        assert (np.delete(pred, order) == -1).all()

    @settings(max_examples=40, deadline=None)
    @given(st.integers(1, 9), st.floats(0.0, 0.6), st.integers(0, 2**32 - 1))
    def test_reverse_walks_the_transpose(self, n, density, seed):
        adj, seeds = random_digraph(n, density, seed)
        edges, edges_t = np.argwhere(adj), np.argwhere(adj.T)
        pred, order = bfs_tree(n, edges, seeds, reverse=True)
        pred_t, order_t = bfs_tree(n, edges_t, seeds)
        assert order.tolist() == order_t.tolist()
        assert (pred[order] >= 0).sum() == (pred_t[order_t] >= 0).sum()
        for v in order[pred[order] >= 0]:
            assert (edges[pred[v]][::-1] == edges_t[pred_t[v]]).all()

    @settings(max_examples=40, deadline=None)
    @given(st.integers(1, 9), st.floats(0.0, 0.6), st.integers(0, 2**32 - 1),
           st.booleans())
    def test_edge_order_does_not_matter(self, n, density, seed, reverse):
        adj, seeds = random_digraph(n, density, seed)
        edges = np.argwhere(adj)
        perm = np.random.default_rng(seed).permutation(edges.shape[0])
        pred, order = bfs_tree(n, edges, seeds, reverse)
        pred_p, order_p = bfs_tree(n, edges[perm], seeds, reverse)
        assert order_p.tolist() == order.tolist()
        assert ((pred_p >= 0) == (pred >= 0)).all()
        assert (perm[pred_p[pred_p >= 0]] == pred[pred >= 0]).all()

    @settings(max_examples=40, deadline=None)
    @given(st.integers(1, 9), st.floats(0.0, 0.6), st.integers(0, 2**32 - 1),
           st.booleans())
    def test_search_stopped_early_is_a_prefix(self, n, density, seed, reverse):
        # a search left after its i-th node has yielded bfs_tree's first i
        # nodes, and every tree edge it wrote is bfs_tree's
        adj, seeds = random_digraph(n, density, seed)
        edges = np.argwhere(adj)
        pred_full, order = bfs_tree(n, edges, seeds, reverse)
        out, head = out_edges(n, edges, reverse), edges[:, 0 if reverse else 1].tolist()
        for i in range(1, order.size + 1):
            pred = [-1] * n
            got = list(islice(search(out, head, seeds.tolist(), pred), i))
            assert got == order[:i].tolist()
            assert [pred[v] for v in got] == pred_full[got].tolist()
            assert all(p in (-1, q) for p, q in zip(pred, pred_full.tolist()))

    @settings(max_examples=40, deadline=None)
    @given(st.integers(1, 9), st.floats(0.0, 0.6), st.integers(0, 2**32 - 1),
           st.booleans())
    def test_search_after_deleting_edges(self, n, density, seed, reverse):
        # edges deleted from the lists between two searches are gone from
        # the second, which is bfs_tree over the kept rows
        adj, seeds = random_digraph(n, density, seed)
        edges = np.argwhere(adj)
        out, head = out_edges(n, edges, reverse), edges[:, 0 if reverse else 1].tolist()
        list(search(out, head, seeds.tolist(), [-1] * n))
        keep = np.random.default_rng(seed).random(edges.shape[0]) < 0.6
        for e in np.flatnonzero(~keep).tolist():
            out[edges[e, 1 if reverse else 0]].remove(e)
        pred = [-1] * n
        order = list(search(out, head, seeds.tolist(), pred))
        kept = np.flatnonzero(keep)
        pred_k, order_k = bfs_tree(n, edges[kept], seeds, reverse)
        assert order == order_k.tolist()
        assert pred == [int(kept[p]) if p >= 0 else -1 for p in pred_k.tolist()]


class TestSpanningTree:
    @settings(max_examples=80, deadline=None)
    @given(st.integers(1, 8), st.integers(0, 2**32 - 1))
    def test_matches_pair_loop(self, n, seed):
        # integer gains tie often; some usable edges have gain -inf
        rng = np.random.default_rng(seed)
        gains = rng.integers(-3, 1, size=(n, n)).astype(float)
        gains[rng.random((n, n)) < 0.15] = -np.inf
        exists = rng.random((n, n)) < 0.7
        y = rng.random(n) < 0.3
        y[rng.integers(n)] = True
        anchors = AnchorSet(y)
        try:
            expected = pair_loop_tree(gains, anchors, exists)
        except ConnectivityError:
            with pytest.raises(ConnectivityError, match="unreachable"):
                backhaul_spanning_tree(gains, anchors, exists)
        else:
            assert (backhaul_spanning_tree(gains, anchors, exists) == expected).all()

    def test_hand_traced_example(self):
        # anchor A with gains A-B = -80, A-C = -90, B-C = -85:
        # first edge A-B (strongest), then B-C (-85 beats -90)
        gains = np.array([[-np.inf, -80.0, -90.0],
                          [-80.0, -np.inf, -85.0],
                          [-90.0, -85.0, -np.inf]])
        anchors = AnchorSet(np.array([True, False, False]))
        b = backhaul_spanning_tree(gains, anchors)
        expected = {(0, 1), (1, 0), (1, 2), (2, 1)}
        assert set(map(tuple, np.argwhere(b))) == expected

    def test_all_anchors_empty_tree(self):
        gains = np.full((3, 3), -80.0)
        anchors = AnchorSet(np.ones(3, dtype=bool))
        assert not backhaul_spanning_tree(gains, anchors).any()

    def test_two_bs_single_edge(self):
        gains = np.array([[-np.inf, -75.0], [-75.0, -np.inf]])
        anchors = AnchorSet(np.array([True, False]))
        b = backhaul_spanning_tree(gains, anchors)
        assert b[0, 1] and b[1, 0]

    def test_unreachable_sites_listed(self):
        gains = np.full((3, 3), -np.inf)
        gains[0, 1] = gains[1, 0] = -80.0
        anchors = AnchorSet(np.array([True, False, False]))
        with pytest.raises(ConnectivityError, match=r"\[2\]"):
            backhaul_spanning_tree(gains, anchors)
        # the tree takes site 1, then stops at the stranded pair 2-3
        gains = np.full((4, 4), -np.inf)
        gains[0, 1] = gains[1, 0] = -80.0
        gains[2, 3] = gains[3, 2] = -70.0
        anchors = AnchorSet(np.array([True, False, False, False]))
        with pytest.raises(ConnectivityError, match=r"\[2, 3\]"):
            backhaul_spanning_tree(gains, anchors)

    def test_tree_properties_on_grid(self):
        topo = generate_grid(3, 4, 200.0, 0, seed=0)
        links = build_link_table(synthetic_gains(topo))
        anchors = AnchorSet(np.arange(12) < 4)
        b = backhaul_spanning_tree(links.gain_bb, anchors, links.exists_bb)
        # exactly one undirected edge per non-anchor site
        assert b.sum() == 2 * 8
        # every non-anchor reaches exactly one anchor over tree edges
        for start in range(4, 12):
            seen, frontier = {start}, [start]
            while frontier:
                v = frontier.pop()
                for w in np.flatnonzero(b[v]):
                    if w not in seen:
                        seen.add(int(w))
                        frontier.append(int(w))
            assert sum(anchors.y[list(seen)]) >= 1

    def test_tree_edges_subset_of_mesh(self):
        topo = generate_grid(2, 4, 200.0, 0, seed=0)
        links = build_link_table(synthetic_gains(topo))
        anchors = AnchorSet(np.arange(8) < 3)
        tree = backhaul_spanning_tree(links.gain_bb, anchors, links.exists_bb)
        mesh = backhaul_mesh(links)
        assert not (tree & ~mesh).any()


class TestMakeScenario:
    @pytest.fixture()
    def world(self):
        topo = generate_grid(2, 3, 200.0, 30, seed=4)
        links = build_link_table(synthetic_gains(topo))
        anchors = AnchorSet(np.array([True, False, True, False, False, False]))
        return links, anchors

    def test_access_only_has_zero_backhaul(self, world):
        links, anchors = world
        for variant in (Variant.ACCESS_SS, Variant.ACCESS_LB):
            pattern = make_scenario(variant, links, anchors, seed=0)
            assert not pattern.backhaul.any()

    def test_access_only_serves_from_anchors(self, world):
        links, anchors = world
        pattern = make_scenario(Variant.ACCESS_SS, links, anchors, seed=0)
        assert not pattern.access[:, ~anchors.y].any()

    def test_mesh_lb_uses_everything(self, world):
        links, anchors = world
        pattern = make_scenario(Variant.IAB_MESH_LB, links, anchors, seed=0)
        assert pattern.access.sum() == (links.exists_ub & links.exists_bu.T).sum()
        assert pattern.backhaul.sum() == backhaul_mesh(links).sum()

    def test_st_with_all_anchors_equals_access_ss(self, world):
        links, _ = world
        anchors = AnchorSet(np.ones(6, dtype=bool))
        st = make_scenario(Variant.IAB_ST, links, anchors, seed=7)
        ss = make_scenario(Variant.ACCESS_SS, links, anchors, seed=7)
        assert np.array_equal(st.access, ss.access)
        assert not st.backhaul.any()

    def test_iab_patterns_nest(self, world):
        links, anchors = world
        st = make_scenario(Variant.IAB_ST, links, anchors, seed=3)
        mesh_ss = make_scenario(Variant.IAB_MESH_SS, links, anchors, seed=3)
        mesh_lb = make_scenario(Variant.IAB_MESH_LB, links, anchors, seed=3)
        assert not (st.access & ~mesh_ss.access).any()
        assert not (st.backhaul & ~mesh_ss.backhaul).any()
        assert not (mesh_ss.access & ~mesh_lb.access).any()
        assert not (mesh_ss.backhaul & ~mesh_lb.backhaul).any()

    def test_is_subpattern_of(self, world):
        links, anchors = world
        ss = make_scenario(Variant.ACCESS_SS, links, anchors, seed=3)
        lb = make_scenario(Variant.ACCESS_LB, links, anchors, seed=3)
        st = make_scenario(Variant.IAB_ST, links, anchors, seed=3)
        mesh_ss = make_scenario(Variant.IAB_MESH_SS, links, anchors, seed=3)
        assert ss.is_subpattern_of(lb) and ss.is_subpattern_of(ss)
        assert st.is_subpattern_of(mesh_ss)
        assert not mesh_ss.is_subpattern_of(st)

    def test_pattern_json(self, world, tmp_path):
        links, anchors = world
        pattern = make_scenario(Variant.IAB_ST, links, anchors, seed=0)
        text = pattern.to_json(tmp_path / "pattern.json")
        assert '"variant": "iab_st"' in text
