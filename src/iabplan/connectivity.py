"""Access/backhaul connectivity patterns for the five planning scenarios.

Scenario semantics: in the access-only variants only the fiber-equipped
sites are deployed as serving gNBs, so UEs attach to the strongest (or all)
anchor links.  In the IAB variants every candidate site is deployed and the
non-fiber sites are wirelessly backhauled, either over a signal-strength
spanning tree or over the full mesh of existing BS-BS links.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from enum import Enum

import numpy as np
import scipy.sparse as sp
from scipy.sparse import csgraph

from .errors import ConnectivityError
from .geometry import AnchorSet
from .linkbudget import LinkTable


class Variant(str, Enum):
    ACCESS_SS = "access_ss"        # access only, strongest-link attachment
    ACCESS_LB = "access_lb"        # access only, any anchor link usable
    IAB_ST = "iab_st"              # IAB, strongest-link access + spanning tree
    IAB_MESH_SS = "iab_mesh_ss"    # IAB, strongest-link access + full mesh
    IAB_MESH_LB = "iab_mesh_lb"    # IAB, any access link + full mesh


@dataclass(frozen=True)
class ConnectivityPattern:
    """Binary availability of access (UE x BS) and backhaul (BS x BS) links."""

    variant: Variant
    access: np.ndarray        # (U, B) bool, applies to both UL and DL
    backhaul: np.ndarray      # (B, B) bool, zero diagonal
    ue_unserved: np.ndarray   # (U,) bool: no eligible access link at all

    def is_subpattern_of(self, other: "ConnectivityPattern") -> bool:
        """True if every access and backhaul edge here is also in `other`."""
        return not ((self.access & ~other.access).any()
                    or (self.backhaul & ~other.backhaul).any())

    def to_json(self, path=None) -> str:
        data = {
            "variant": self.variant.value,
            "access_edges": np.argwhere(self.access).tolist(),
            "backhaul_edges": np.argwhere(self.backhaul).tolist(),
            "unserved_ues": np.flatnonzero(self.ue_unserved).tolist(),
        }
        text = json.dumps(data, indent=2, sort_keys=True)
        if path is not None:
            with open(path, "w") as fh:
                fh.write(text + "\n")
        return text


def usable_pairs(links: LinkTable) -> np.ndarray:
    """(U, B) mask of UE-BS pairs whose link exists in both directions."""
    return links.exists_ub & links.exists_bu.T


def access_signal_strength(links: LinkTable, seed: int = 0,
                           serving: np.ndarray | None = None):
    """One access link per UE: the highest-capacity eligible BS.

    Exact capacity ties are broken by a seeded uniform draw.  UEs with no
    eligible link get an all-zero row and are flagged.  `serving` restricts
    the eligible BS set (anchors only, in access-only scenarios).
    """
    eligible = usable_pairs(links)
    if serving is not None:
        eligible = eligible & np.asarray(serving, dtype=bool)[None, :]
    cap = np.where(eligible, links.cap_ub, -np.inf)
    access = np.zeros(eligible.shape, dtype=bool)
    unserved = ~eligible.any(axis=1)
    rng = np.random.default_rng(seed)
    for u in range(eligible.shape[0]):
        if unserved[u]:
            continue
        best = cap[u].max()
        cands = np.flatnonzero(cap[u] == best)
        pick = cands[0] if cands.size == 1 else rng.choice(cands)
        access[u, pick] = True
    return access, unserved


def access_load_balanced(links: LinkTable, serving: np.ndarray | None = None):
    """Every eligible access link is available; the optimizer splits traffic."""
    eligible = usable_pairs(links)
    if serving is not None:
        eligible = eligible & np.asarray(serving, dtype=bool)[None, :]
    return eligible.copy(), ~eligible.any(axis=1)


def backhaul_mesh(links: LinkTable) -> np.ndarray:
    """All existing BS-BS links, no self-loops."""
    b = links.exists_bb.copy()
    np.fill_diagonal(b, False)
    return b


def backhaul_spanning_tree(gains_bb: np.ndarray, anchors: AnchorSet,
                           exists_bb: np.ndarray | None = None) -> np.ndarray:
    """Grow a tree from the anchor set by repeatedly taking the strongest edge.

    Starting with the anchors as the connected set, each iteration adds the
    single strongest-gain edge between the connected and unconnected sets
    (ties toward the lowest (connected, unconnected) id pair) until every
    site is connected.  The result has both directions of each tree edge set.
    An edge is usable only if the link exists in both directions.
    """
    n = gains_bb.shape[0]
    if exists_bb is None:
        exists_bb = np.isfinite(gains_bb)
    usable = exists_bb & exists_bb.T
    np.fill_diagonal(usable, False)

    connected = anchors.y.copy()
    b = np.zeros((n, n), dtype=bool)
    stranded = np.flatnonzero(~reachable(usable, connected))
    if stranded.size:
        raise ConnectivityError(
            f"sites unreachable from any anchor: {stranded.tolist()}")
    while not connected.all():
        best = (-np.inf, n, n)
        for i in np.flatnonzero(connected):
            for j in np.flatnonzero(~connected):
                if usable[i, j]:
                    key = (gains_bb[i, j], -i, -j)
                    if key > (best[0], -best[1], -best[2]):
                        best = (gains_bb[i, j], i, j)
        _, i, j = best
        b[i, j] = b[j, i] = True
        connected[j] = True
    return b


def reachable(adj: np.ndarray, seeds: np.ndarray) -> np.ndarray:
    """Mask of the nodes reachable from any seed along the directed edges
    i -> j of the boolean (n, n) `adj`, seeds included."""
    n = adj.shape[0]
    graph = np.zeros((n + 1, n + 1), dtype=bool)
    graph[:n, :n] = adj
    graph[n, :n] = seeds      # a virtual source feeding every seed
    reach = np.zeros(n + 1, dtype=bool)
    reach[csgraph.breadth_first_order(sp.csr_matrix(graph), n,
                                      return_predecessors=False)] = True
    return reach[:n]


def make_scenario(variant: Variant | str, links: LinkTable, anchors: AnchorSet,
                  seed: int = 0, gains_bb: np.ndarray | None = None) -> ConnectivityPattern:
    """Build the access and backhaul matrices for one scenario variant.

    The same seed gives identical strongest-link tie-breaks across variants,
    which keeps the three IAB patterns nested (tree edges are a subset of
    mesh edges, and the strongest-link access set is a subset of the
    load-balanced one).
    """
    variant = Variant(variant)
    gains_bb = links.gain_bb if gains_bb is None else gains_bb
    zero_b = np.zeros((links.n_bs, links.n_bs), dtype=bool)

    if variant is Variant.ACCESS_SS:
        access, unserved = access_signal_strength(links, seed, serving=anchors.y)
        backhaul = zero_b
    elif variant is Variant.ACCESS_LB:
        access, unserved = access_load_balanced(links, serving=anchors.y)
        backhaul = zero_b
    elif variant is Variant.IAB_ST:
        access, unserved = access_signal_strength(links, seed)
        backhaul = backhaul_spanning_tree(gains_bb, anchors, links.exists_bb)
    elif variant is Variant.IAB_MESH_SS:
        access, unserved = access_signal_strength(links, seed)
        backhaul = backhaul_mesh(links)
    elif variant is Variant.IAB_MESH_LB:
        access, unserved = access_load_balanced(links)
        backhaul = backhaul_mesh(links)
    else:  # pragma: no cover
        raise ConnectivityError(f"unhandled variant {variant}")

    return ConnectivityPattern(variant=variant, access=access,
                               backhaul=backhaul, ue_unserved=unserved)
