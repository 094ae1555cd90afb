"""Access/backhaul connectivity patterns for the five planning scenarios.

Scenario semantics: in the access-only variants only the fiber-equipped
sites are deployed as serving gNBs, so UEs attach to the strongest (or all)
anchor links.  In the IAB variants every candidate site is deployed and the
non-fiber sites are wirelessly backhauled, either over a signal-strength
spanning tree or over the full mesh of existing BS-BS links.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .artifacts import write_json
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

    @property
    def ue_unserved(self) -> np.ndarray:
        """(U,) bool: UEs with no available access link."""
        return ~self.access.any(axis=1)

    def is_subpattern_of(self, other: "ConnectivityPattern") -> bool:
        """True if every access and backhaul edge here is also in `other`."""
        return not ((self.access & ~other.access).any()
                    or (self.backhaul & ~other.backhaul).any())

    def to_json(self, path=None) -> str:
        return write_json(path, {
            "variant": self.variant.value,
            "access_edges": np.argwhere(self.access).tolist(),
            "backhaul_edges": np.argwhere(self.backhaul).tolist(),
            "unserved_ues": np.flatnonzero(self.ue_unserved).tolist(),
        })


def usable_pairs(links: LinkTable, serving: np.ndarray | None = None) -> np.ndarray:
    """(U, B) mask of UE-BS pairs whose link exists in both directions,
    restricted to the `serving` BS mask when one is given."""
    eligible = links.exists_ub & links.exists_bu.T
    if serving is not None:
        eligible &= np.asarray(serving, dtype=bool)[None, :]
    return eligible


def access_signal_strength(links: LinkTable, seed: int = 0,
                           serving: np.ndarray | None = None):
    """One access link per UE: the highest-capacity eligible BS.

    Exact capacity ties are broken by a seeded uniform draw, one per tied
    UE in UE order.  UEs with no eligible link get an all-zero row and are
    flagged.  `serving` restricts the eligible BS set (anchors only, in
    access-only scenarios).
    """
    eligible = usable_pairs(links, serving)
    unserved = ~eligible.any(axis=1)
    cap = np.where(eligible, links.cap_ub, -np.inf)
    tied = (cap == cap.max(axis=1, keepdims=True)) & ~unserved[:, None]
    pick = tied.argmax(axis=1)
    rng = np.random.default_rng(seed)
    for u in np.flatnonzero(tied.sum(axis=1) > 1):
        pick[u] = rng.choice(np.flatnonzero(tied[u]))
    access = np.zeros(eligible.shape, dtype=bool)
    served = np.flatnonzero(~unserved)
    access[served, pick[served]] = True
    return access, unserved


def access_load_balanced(links: LinkTable, serving: np.ndarray | None = None):
    """Every eligible access link is available; the optimizer splits traffic."""
    eligible = usable_pairs(links, serving)
    return eligible, ~eligible.any(axis=1)


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
    An edge is usable only if the link exists in both directions, whatever
    its gain (-inf included).

    Prim's rule: each unconnected site keeps its best edge into the
    connected set (`gain`, from the lowest-id `parent` on ties; `parent` is
    n while it has none), so an iteration is one scan of the frontier and
    one update from the site just added.  When the site it picks has no
    edge at all, no unconnected site has one: they are all unreachable.
    """
    n = gains_bb.shape[0]
    if exists_bb is None:
        exists_bb = np.isfinite(gains_bb)
    usable = exists_bb & exists_bb.T
    np.fill_diagonal(usable, False)

    connected = anchors.y.copy()
    gain = np.full(n, -np.inf)
    parent = np.full(n, n)

    def join(i):
        g = gains_bb[i]
        better = usable[i] & ~connected & ((g > gain) | ((g == gain) & (i < parent)))
        gain[better] = g[better]
        parent[better] = i

    for i in np.flatnonzero(connected):
        join(i)
    b = np.zeros((n, n), dtype=bool)
    while not connected.all():
        frontier = np.flatnonzero(~connected)
        frontier = frontier[gain[frontier] == gain[frontier].max()]
        j = frontier[np.argmin(parent[frontier])]
        if parent[j] == n:
            raise ConnectivityError(
                f"sites unreachable from any anchor: {np.flatnonzero(~connected).tolist()}")
        b[parent[j], j] = b[j, parent[j]] = True
        connected[j] = True
        join(j)
    return b


def out_edges(n: int, edges: np.ndarray, reverse: bool = False) -> list:
    """Each of n nodes' out-edge ids, as lists ordered by far end, then id.

    Row (i, j) of the (E, 2) `edges` leaves i for j, or j for i with
    `reverse`; the rows may come in any order.
    """
    edges = np.asarray(edges, dtype=np.intp).reshape(-1, 2)
    tail, head = (edges[:, 1], edges[:, 0]) if reverse else edges.T
    ids = np.lexsort((head, tail)).tolist()
    start = [0] + np.cumsum(np.bincount(tail, minlength=n)).tolist()
    return [ids[a:b] for a, b in zip(start, start[1:])]


def search(out: list, head: list, seeds: list, pred: list):
    """Breadth-first search from the nodes set in the mask list `seeds`
    along the edge lists `out` (as `out_edges` gives them), edge e leading
    to head[e].

    Yields each reached node as it leaves the queue, before its edges are
    scanned, and sets pred[w] to the tree edge into each node w it
    discovers; seeds and unreached nodes keep what pred held.  Seeds enter
    in id order and each node scans its list in order, so with lists by
    far end the tree path to a node is its lexicographically least shortest
    path from a seed, and nodes leave the queue sorted by (depth, that
    path).  The caller owns `out`: it may end the search by leaving the
    loop and change the lists before the next one.
    """
    seen = list(seeds)
    queue = [v for v in range(len(seen)) if seen[v]]
    for v in queue:              # the list grows into the queue as it is read
        yield v
        for e in out[v]:
            w = head[e]
            if not seen[w]:
                seen[w], pred[w] = True, e
                queue.append(w)


def bfs_tree(n: int, edges: np.ndarray, seeds: np.ndarray, reverse: bool = False):
    """Breadth-first tree from `seeds` (a mask or ids) over n nodes, by
    `search` over `out_edges(n, edges, reverse)`, so in `search`'s order:
    tree paths are lexicographically least shortest, whatever the order of
    the rows of `edges`.

    Returns (pred, order): pred[v] indexes the tree edge into v (-1 at a
    seed or an unreached node), and order lists the reached nodes in
    discovery order, seeds first.
    """
    edges = np.asarray(edges, dtype=np.intp).reshape(-1, 2)
    mask = np.zeros(n, dtype=bool)
    mask[seeds] = True
    pred = [-1] * n
    order = list(search(out_edges(n, edges, reverse), edges[:, 0 if reverse else 1].tolist(),
                        mask.tolist(), pred))
    return np.array(pred, dtype=np.intp), np.array(order, dtype=np.intp)


def make_scenario(variant: Variant | str, links: LinkTable, anchors: AnchorSet,
                  seed: int = 0) -> ConnectivityPattern:
    """Build the access and backhaul matrices for one scenario variant.

    The same seed gives identical strongest-link tie-breaks across variants,
    which keeps the three IAB patterns nested (tree edges are a subset of
    mesh edges, and the strongest-link access set is a subset of the
    load-balanced one).
    """
    variant = Variant(variant)
    zero_b = np.zeros((links.n_bs, links.n_bs), dtype=bool)

    if variant is Variant.ACCESS_SS:
        access, _ = access_signal_strength(links, seed, serving=anchors.y)
        backhaul = zero_b
    elif variant is Variant.ACCESS_LB:
        access, _ = access_load_balanced(links, serving=anchors.y)
        backhaul = zero_b
    elif variant is Variant.IAB_ST:
        access, _ = access_signal_strength(links, seed)
        backhaul = backhaul_spanning_tree(links.gain_bb, anchors, links.exists_bb)
    elif variant is Variant.IAB_MESH_SS:
        access, _ = access_signal_strength(links, seed)
        backhaul = backhaul_mesh(links)
    elif variant is Variant.IAB_MESH_LB:
        access, _ = access_load_balanced(links)
        backhaul = backhaul_mesh(links)
    else:  # pragma: no cover
        raise ConnectivityError(f"unhandled variant {variant}")

    return ConnectivityPattern(variant=variant, access=access, backhaul=backhaul)
