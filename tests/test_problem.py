import hashlib

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings, strategies as st

from iabplan import (AnchorSet, ConfigError, InfeasibleProblemError, Variant,
                     assemble, build_link_table, generate_grid, make_scenario,
                     select_anchors, solve, strictly_feasible_point,
                     synthetic_gains, validate)
from iabplan.solver import _NewtonSystem
from iabplan.testkit import (analytic_single_instance, links_from_caps,
                             random_tiny_instance)


def grid_problems(rows, cols, n_ues, seed, k):
    """The five scenarios on a street grid with k greedy anchors."""
    topo = generate_grid(rows, cols, 200.0, n_ues, seed)
    links = build_link_table(synthetic_gains(topo))
    anchors = select_anchors(topo, k, "greedy-coverage", links=links, seed=seed)
    for variant in Variant:
        pattern = make_scenario(variant, links, anchors, seed=seed)
        yield variant.value, assemble(links, pattern, anchors)


# sha256 of the `RateProblem.dump` text and of the start point's bytes, per
# (rows, cols, UEs, seed, k) grid and scenario
GOLDEN = {
    ((2, 3, 30, 5, 1), "access_ss"): ("c1e6223d4ec35fce921964a04f57f195f1db01f2ddce90e76be49d3100803586", "adddcabf3ba6845ca18d1ba7531d090f426e62fc9761cc3bc14771f263bbc5ad"),
    ((2, 3, 30, 5, 1), "access_lb"): ("c1e6223d4ec35fce921964a04f57f195f1db01f2ddce90e76be49d3100803586", "adddcabf3ba6845ca18d1ba7531d090f426e62fc9761cc3bc14771f263bbc5ad"),
    ((2, 3, 30, 5, 1), "iab_st"): ("7f6409ca1727cb984f32ed921ee3cb9c074e024bda9d1af58654c3f7f25c8ea1", "d9e36ca3527b6299650b08151da31d990132403bbb56ae62d83766e5e923a9f2"),
    ((2, 3, 30, 5, 1), "iab_mesh_ss"): ("513420a472a3c1eaba148fd17aaec9363f1ad3559e0a47ab613ce0ea47ba6ead", "226acbd5682c9cb1e9a28063388e2e0caa703c7613b47ab0028de18aca45ac95"),
    ((2, 3, 30, 5, 1), "iab_mesh_lb"): ("9a695d17c0fe904fe7ab562b1c00649a8f6ed4d8c8fdd6a2eb43d9efa9e71bca", "11e55a56553bb504f0182c5cc203071c5904e6ffe110ad6d3a5717499f8c8a51"),
    ((2, 3, 30, 5, 2), "access_ss"): ("c3ff6539be9ce4437fbd65442df9ee636b0bbb37dcbe315bf088b80f4fa178d8", "5fdf6ed9d90481e92265472af182a4055975c783b7da96dc2435dd2695132ff1"),
    ((2, 3, 30, 5, 2), "access_lb"): ("c579e0173322f021913ee45041d663c717d3c5f03c461ba0a383e4eda70ef854", "c50ea372fecd29af4a2dcea03fe2d4710468fcee4af1bc2a60349c3129b486a8"),
    ((2, 3, 30, 5, 2), "iab_st"): ("e645b85dbc823b5f34621e9e5f98c278cc7e95ae9bfa481df0bbf4ca9976f2d9", "572798509e77e3ca97aa63912f67f835078100cdabfc99392c1e272b0895a483"),
    ((2, 3, 30, 5, 2), "iab_mesh_ss"): ("6d7d6b253eba9d0a104442cd2a507855fef99d2adaf095e960911c996f5ec5e8", "08a74d463bb000ebb083bc301202785fb2b51714ab178a3afe77f6bac17d667d"),
    ((2, 3, 30, 5, 2), "iab_mesh_lb"): ("dae7f33b7a1db57bd7909675c05e21e4a921fbb9fe0bc50cc164b16c219716c4", "655c7622b2870db052e713c4c7ee7de414e50fd63b3f6b254c7394a3b7cd4c6a"),
    ((3, 6, 60, 1, 7), "access_ss"): ("286cdc7291558e7971e2e1a6fa4907de493260bfe87c760fe9223385dee9d0e8", "cf00232318a292ba1311073471fd1ddbe407e2e630eaf3375b682d58ef4ce6fc"),
    ((3, 6, 60, 1, 7), "access_lb"): ("0881ecbfda8c6d13545fe8beb029c344f909b8f46ebe1954c0f57e7ed2e1476f", "14af036e941e0e3f02bb4d3e76e504ad359c714fa02d79d9f16e3ef771f85717"),
    ((3, 6, 60, 1, 7), "iab_st"): ("92c9b4680b1cbf47930cdcd69ab5095b376a259e7cf979125a3fd6a72ce06d08", "71b3ddd4e2cc9bdb4d56ca809a4fd03999dfe7a1b3ed30fa71cd6cae01619af3"),
    ((3, 6, 60, 1, 7), "iab_mesh_ss"): ("bccac77466a2e3df8e2dfa3708a29f3c12d4a4b106957516c9925478f1234998", "7826f34a82ac720f785d5609bf97e8abea7dd20a09dd503854ab40850edea050"),
    ((3, 6, 60, 1, 7), "iab_mesh_lb"): ("6bdc2a5506717f4790caeccafcfc8bf275b2e5ae7d7af7f81718bbe1ae9b8d06", "7cfb2a6c3aafeeae0e716d0c0be5cabf31539ec488acd9f24edbb9cf2ae30079"),
}


class TestAssemble:
    def test_single_ue_anchor_shape(self):
        prob, _c = analytic_single_instance()
        assert prob.n_flow == 2                   # one UL + one DL access link
        assert len(prob.m_vars) == 2              # fiber split at the anchor
        assert prob.n_var == 6
        res = prob.row_slices["resource"]
        assert res.stop - res.start == 1          # one TDM row at the one site
        fib = prob.row_slices["fiber"]
        assert fib.stop - fib.start == 1

    def test_access_only_has_no_backhaul_vars(self):
        links = links_from_caps([[3e9, 4e9]], [[3e9], [4e9]],
                                [[0.0, 5e9], [5e9, 0.0]])
        anchors = AnchorSet(np.array([True, True]))
        pattern = make_scenario(Variant.ACCESS_SS, links, anchors, seed=0)
        prob = assemble(links, pattern, anchors)
        assert prob.ul_backhaul.size == 0
        assert prob.dl_backhaul.size == 0

    def test_all_zero_anchor_vector_rejected(self):
        with pytest.raises(ConfigError):
            AnchorSet(np.zeros(3, dtype=bool))

    def test_only_starved_ue_named_in_error(self):
        # UE attached to a relay that has no backhaul at all (access-only
        # pattern built over every site, not just the anchors)
        links = links_from_caps([[0.0, 4e9]], [[0.0], [4e9]], np.zeros((2, 2)))
        anchors = AnchorSet(np.array([True, False]))
        pattern = make_scenario(Variant.IAB_MESH_SS, links, anchors, seed=0)
        with pytest.raises(InfeasibleProblemError,
                           match="no servable UEs: 1 of 1 starved"):
            assemble(links, pattern, anchors)

    def test_starved_ue_reason_recorded(self):
        # two UEs: one on the anchor, one stranded on the relay
        links = links_from_caps([[4e9, 0.0], [0.0, 4e9]],
                                [[4e9, 0.0], [0.0, 4e9]], np.zeros((2, 2)))
        anchors = AnchorSet(np.array([True, False]))
        pattern = make_scenario(Variant.IAB_MESH_SS, links, anchors, seed=0)
        prob = assemble(links, pattern, anchors)
        assert prob.excluded == {1: "starved"}
        assert prob.ue_ids.tolist() == [0]

    def test_no_link_ue_reason(self):
        links = links_from_caps([[4e9], [0.0]], [[4e9, 0.0]], [[0.0]])
        anchors = AnchorSet(np.array([True]))
        pattern = make_scenario(Variant.ACCESS_SS, links, anchors, seed=0)
        prob = assemble(links, pattern, anchors)
        assert prob.excluded == {1: "no_link"}

    def test_equalities_hold_at_any_routed_point(self):
        from iabplan import strictly_feasible_point
        prob, _ = analytic_single_instance()
        x = strictly_feasible_point(prob)
        assert np.abs(prob.A @ x).max() < 1e-12

    def test_problem_dump(self, tmp_path):
        prob, _ = analytic_single_instance()
        path = tmp_path / "problem.txt"
        prob.dump(path)
        text = path.read_text()
        for section in ("[variables]", "[inequalities]", "[equalities]", "[objective]"):
            assert section in text

    @pytest.mark.parametrize("grid", sorted({g for g, _v in GOLDEN}))
    def test_golden_dump_and_start_point(self, grid, tmp_path):
        # assemble and the start point are pure functions of their inputs;
        # a refactor must keep both identical, entry for entry and bit for bit
        path = tmp_path / "problem.txt"
        for variant, prob in grid_problems(*grid):
            prob.dump(path)
            digests = (hashlib.sha256(path.read_bytes()).hexdigest(),
                       hashlib.sha256(strictly_feasible_point(prob).tobytes()).hexdigest())
            assert digests == GOLDEN[(grid, variant)], variant


def reference_rows(prob):
    """G (with its rows per family), A (with its kept row ids) and U_mat built
    entry by entry from the link lists, one constraint family at a time."""
    nf, n = prob.n_flow, prob.n_var
    links = [(int(u), -1, int(b)) for u, b in prob.ul_access]        # (ue, tail, head)
    links += [(int(u), int(b), -1) for b, u in prob.dl_access]
    links += [(-1, int(i), int(j)) for i, j in np.r_[prob.ul_backhaul, prob.dl_backhaul]]
    is_ul = [1] * len(prob.ul_access) + [0] * len(prob.dl_access) \
        + [1] * len(prob.ul_backhaul) + [0] * len(prob.dl_backhaul)
    family = {"flow_capacity": [{k: 1.0, nf + k: -prob.cap[k]} for k in range(nf)]}
    family["resource"] = [row for row in (
        {nf + k: 1.0 for k, (_u, i, j) in enumerate(links) if bs in (i, j)}
        for bs in range(prob.n_bs)) if row]
    family["fiber"] = [{2 * nf + v: 1.0 for v, b in enumerate(prob.m_bs) if b == bs}
                       for bs in sorted(set(prob.m_bs.tolist()))]
    family["nonneg"] = [{v: -1.0} for v in range(n)]
    g = [row for rows in family.values() for row in rows]
    a = {}                 # conservation row 2b (DL) or 2b + 1 (UL) -> entries
    for k, (_u, i, j) in enumerate(links):
        out = 1.0 if not is_ul[k] else -1.0       # DL counts outflow, UL inflow
        if i >= 0:
            a.setdefault(2 * i + is_ul[k], {})[k] = out
        if j >= 0:
            a.setdefault(2 * j + is_ul[k], {})[k] = -out
    for v, (b, ul) in enumerate(zip(prob.m_bs, prob.m_ul)):
        a.setdefault(2 * int(b) + int(ul), {})[2 * nf + v] = -1.0
    kept = sorted(a)
    ue_row = {int(u): i for i, u in enumerate(prob.ue_ids)}
    rates = [dict() for _ in range(2 * prob.ue_ids.size)]
    for k, (u, i, j) in enumerate(links):
        if u >= 0:
            rates[ue_row[u] + (0 if j >= 0 else prob.ue_ids.size)][k] = 1.0

    def csr(rows):
        r, c, v = zip(*[(i, col, val) for i, row in enumerate(rows) for col, val in row.items()])
        return sp.csr_matrix((v, (r, c)), shape=(len(rows), n))

    sizes = {name: len(rows) for name, rows in family.items()}
    return csr(g), sizes, csr([a[i] for i in kept]), np.array(kept), csr(rates)


STRUCTURE_GRIDS = ([(2, 3, 30, seed, k) for seed in (1, 2, 3) for k in range(1, 7)]
                   + [(3, 6, 60, 1, 7), (6, 12, 2400, 1, 18)])


class TestAssembledMatrices:
    @pytest.mark.parametrize("grid", STRUCTURE_GRIDS, ids=lambda g: "x".join(map(str, g)))
    def test_canonical_and_equal_to_reference(self, grid):
        # assemble builds every matrix from arrays already in CSR order;
        # the result must be canonical CSR (sorted, no duplicates) and hold
        # exactly the entries each constraint family defines
        for variant, prob in grid_problems(*grid):
            G, sizes, A, kept, U = reference_rows(prob)
            for name, got, ref in (("G", prob.G, G), ("A", prob.A, A), ("U_mat", prob.U_mat, U)):
                fresh = sp.csr_matrix((got.data, got.indices, got.indptr), shape=got.shape)
                assert fresh.has_canonical_format, (variant, name)
                assert got.shape == ref.shape, (variant, name)
                for field in ("indptr", "indices", "data"):
                    assert np.array_equal(getattr(got, field), getattr(ref, field)), \
                        (variant, name, field)
            assert np.array_equal(prob.eq_ul, kept % 2 == 1), variant
            ends = np.cumsum([0] + list(sizes.values())).tolist()
            assert prob.row_slices == {f: slice(lo, hi) for f, lo, hi
                                       in zip(sizes, ends[:-1], ends[1:])}, variant
            assert np.array_equal(prob.h, np.repeat([0.0, 1.0, prob.fiber_norm, 0.0],
                                                    list(sizes.values()))), variant

    @pytest.mark.parametrize("grid", STRUCTURE_GRIDS, ids=lambda g: "x".join(map(str, g)))
    def test_column_table_is_R(self, grid):
        # assemble writes R = [U; G_c; A] once, by column: each variable's
        # rows, ascending and -1 past the last, and their entries, which must
        # be its column of the reference R and never more than two
        for variant, prob in grid_problems(*grid):
            G, _sizes, A, _kept, U = reference_rows(prob)
            rs = prob.row_slices
            R = sp.vstack([U, G[rs["resource"].start:rs["fiber"].stop], A]).tocsc()
            R.sort_indices()
            count = np.diff(R.indptr)
            assert count.max() <= 2, variant
            assert prob.R_row.shape == prob.R_val.shape == (prob.n_var, 2), variant
            listed = np.arange(2) < count[:, None]
            assert np.array_equal(prob.R_row[listed], R.indices), variant
            assert np.array_equal(prob.R_val[listed], R.data), variant
            assert np.all(prob.R_row[~listed] == -1), variant

    @pytest.mark.parametrize("grid", STRUCTURE_GRIDS, ids=lambda g: "x".join(map(str, g)))
    def test_slack_operators_are_the_products(self, grid):
        # the solver builds M_y = [-G; U] T and R_y = [U; G_c; A] T from R's
        # column table; they hold exactly the entries of SciPy's products,
        # where the capacity rows' t entries cancel to nothing
        for variant, prob in grid_problems(*grid):
            nf, n, rs = prob.n_flow, prob.n_var, prob.row_slices
            k, j = np.arange(nf), np.arange(nf, n)
            T = sp.csr_matrix((np.r_[-np.ones(nf), prob.cap, np.ones(n - nf)],
                               (np.r_[k, k, j], np.r_[k, nf + k, j])), shape=(n, n))
            sl_c = slice(rs["resource"].start, rs["fiber"].stop)
            newton = _NewtonSystem(prob)
            for name, got, ref in (("M_y", newton.M_y, sp.vstack([-prob.G, prob.U_mat]) @ T),
                                   ("R_y", newton.R_y,
                                    sp.vstack([prob.U_mat, prob.G[sl_c], prob.A]) @ T)):
                got, ref = got.sorted_indices(), ref.sorted_indices()
                assert got.shape == ref.shape, (variant, name)
                for field in ("indptr", "indices", "data"):
                    assert np.array_equal(getattr(got, field), getattr(ref, field)), \
                        (variant, name, field)


class TestConservationRank:
    # The conservation rows are a node-arc incidence matrix with the UE and
    # fiber ends grounded; after reachability pruning every weakly connected
    # component of kept rows holds an access flow or a fiber variable, so
    # the rows are independent (see the module docstring of problem.py).

    @pytest.mark.parametrize("k", range(1, 7))
    def test_conservation_rows_full_rank(self, k):
        for variant, prob in grid_problems(2, 3, 30, 5, k):
            assert np.linalg.matrix_rank(prob.A.toarray()) == prob.A.shape[0], variant

    @settings(max_examples=30, deadline=None)
    @given(st.integers(min_value=0, max_value=2**32 - 1))
    def test_conservation_rows_full_rank_tiny(self, seed):
        prob = random_tiny_instance(seed)
        assert np.linalg.matrix_rank(prob.A.toarray()) == prob.A.shape[0]


class TestValidate:
    def test_solver_output_is_clean(self):
        prob, _ = analytic_single_instance()
        sol, _cert = solve(prob)
        report = validate(prob, sol, tol=1e-8)
        assert report.ok
        assert report.max_violation <= 1e-8

    def test_zero_candidate_feasible_with_log_zero_objective(self):
        prob, _ = analytic_single_instance()
        x = np.zeros(prob.n_var)
        report = validate(prob, x)
        assert report.ok
        assert prob.objective_log(x) == -np.inf

    def test_resource_violation_reported(self):
        prob, _ = analytic_single_instance()
        x = np.zeros(prob.n_var)
        x[prob.sl_time] = 0.75            # time fractions sum to 1.5
        report = validate(prob, x)
        assert report.violations["resource"] == pytest.approx(0.5, abs=1e-12)

    def test_shape_mismatch(self):
        prob, _ = analytic_single_instance()
        with pytest.raises(ValueError):
            validate(prob, np.zeros(3))
