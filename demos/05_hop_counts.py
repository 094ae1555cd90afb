#!/usr/bin/env python3
"""Backhaul hop-count distributions: spanning tree versus optimal mesh.

Each non-anchor site's downlink backhaul flow is decomposed into
anchor-rooted paths (shortest-path peeling); its hop count is the
rate-weighted mean of the path lengths.  Anchors are at 0 hops by
definition, so the CDF has mass k/n_bs at zero.  Tree backhaul cannot route
around busy anchors, so its hop counts run higher than the mesh's.
"""

from iabplan import (Variant, assemble, build_link_table, generate_grid,
                     hop_counts, make_scenario, select_anchors, solve,
                     synthetic_gains)

topo = generate_grid(rows=3, cols=4, inter_site_m=200.0, n_ues=120, seed=7)
links = build_link_table(synthetic_gains(topo))
anchors = select_anchors(topo, k=4, policy="greedy-coverage", links=links)
print(f"{anchors.k} fiber drops over {topo.n_bs} sites "
      f"-> hop CDF mass at zero = {anchors.k}/{topo.n_bs} = {anchors.k / topo.n_bs:.3f}\n")

for variant in (Variant.IAB_ST, Variant.IAB_MESH_SS):
    pattern = make_scenario(variant, links, anchors, seed=7)
    problem = assemble(links, pattern, anchors)
    solution, _ = solve(problem)
    report = hop_counts(problem, solution, anchors)
    vals, pct = report.cdf()
    print(f"{variant.value}: mean hops {report.mean_hops():.3f} "
          f"(mass at zero {report.mass_at_zero:.3f}, "
          f"un-peeled residual {report.residual_rel:.1e})")
    for v, p in zip(vals, pct):
        bar = "#" * int(round(30 * p))
        print(f"   {v:5.2f} hops |{bar:<30}| {p:5.1%}")
    print()
