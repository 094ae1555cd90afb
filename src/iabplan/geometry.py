"""Street-grid deployment geometry: candidate gNB sites, UE drops, anchor picks.

The layout is a Manhattan-style grid: `grid_cols` vertical and `grid_rows`
horizontal streets of fixed width, with candidate base-station sites at every
intersection.  UEs are dropped uniformly over the street area (rejection
sampling over the bounding box, which is exactly uniform on the union of
street rectangles).  The default 3x6 grid at 200 m spacing is an approximation
of a downtown deployment; the true site coordinates of such deployments are
never published, so every parameter here is configurable.
"""

from __future__ import annotations

import json
import numbers
from dataclasses import dataclass

import numpy as np

from .artifacts import write_json
from .errors import ConfigError

DEFAULT_STREET_WIDTH_M = 20.0


@dataclass(frozen=True)
class Topology:
    """A street grid with BS candidate sites and UE positions, all in meters."""

    grid_rows: int
    grid_cols: int
    block_size_m: float
    street_width_m: float
    bs_xy: np.ndarray          # (n_bs, 2)
    ue_xy: np.ndarray          # (n_ue, 2)
    street_segments: np.ndarray  # (n_streets, 4) rows of (x0, y0, x1, y1)

    @property
    def n_bs(self) -> int:
        return self.bs_xy.shape[0]

    @property
    def n_ue(self) -> int:
        return self.ue_xy.shape[0]

    @property
    def bs_sites(self) -> list[tuple[int, float, float]]:
        return [(i, float(x), float(y)) for i, (x, y) in enumerate(self.bs_xy)]

    @property
    def ues(self) -> list[tuple[int, float, float]]:
        return [(i, float(x), float(y)) for i, (x, y) in enumerate(self.ue_xy)]

    def in_streets(self, points: np.ndarray) -> np.ndarray:
        """Boolean mask: does each (x, y) row lie inside some street rectangle?"""
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        inside = np.zeros(pts.shape[0], dtype=bool)
        for x0, y0, x1, y1 in self.street_segments:
            inside |= (
                (pts[:, 0] >= x0) & (pts[:, 0] <= x1)
                & (pts[:, 1] >= y0) & (pts[:, 1] <= y1)
            )
        return inside

    def to_dict(self) -> dict:
        return {
            "grid_rows": self.grid_rows,
            "grid_cols": self.grid_cols,
            "block_size_m": self.block_size_m,
            "street_width_m": self.street_width_m,
            "bs_sites": [[i, x, y] for i, x, y in self.bs_sites],
            "ues": [[i, x, y] for i, x, y in self.ues],
            "street_segments": self.street_segments.tolist(),
        }

    def to_json(self, path=None) -> str:
        return write_json(path, self.to_dict())

    @classmethod
    def from_dict(cls, data: dict) -> "Topology":
        try:
            bs = sorted(data["bs_sites"])
            ue = sorted(data["ues"])
            if [row[0] for row in bs] != list(range(len(bs))):
                raise ConfigError("BS site ids must be contiguous from 0")
            if [row[0] for row in ue] != list(range(len(ue))):
                raise ConfigError("UE ids must be contiguous from 0")
            return cls(
                grid_rows=int(data["grid_rows"]),
                grid_cols=int(data["grid_cols"]),
                block_size_m=float(data["block_size_m"]),
                street_width_m=float(data["street_width_m"]),
                bs_xy=np.array([[x, y] for _, x, y in bs], dtype=float).reshape(-1, 2),
                ue_xy=np.array([[x, y] for _, x, y in ue], dtype=float).reshape(-1, 2),
                street_segments=np.asarray(data["street_segments"], dtype=float).reshape(-1, 4),
            )
        except KeyError as exc:
            raise ConfigError(f"topology JSON missing field {exc}") from exc
        except (IndexError, TypeError, ValueError) as exc:
            raise ConfigError(f"malformed topology JSON ({exc})") from exc

    @classmethod
    def from_json(cls, path) -> "Topology":
        with open(path) as fh:
            try:
                data = json.load(fh)
            except json.JSONDecodeError as exc:
                raise ConfigError(f"{path}: invalid topology JSON ({exc})") from exc
        return cls.from_dict(data)


@dataclass(frozen=True)
class AnchorSet:
    """Fiber-drop decision vector over BS sites (True = fiber deployed)."""

    y: np.ndarray  # (n_bs,) bool

    def __post_init__(self):
        y = np.asarray(self.y, dtype=bool)
        object.__setattr__(self, "y", y)
        if y.ndim != 1 or y.size == 0:
            raise ConfigError("anchor vector must be a nonempty 1-d array")
        if not y.any():
            raise ConfigError("at least one site must have a fiber drop")

    @property
    def k(self) -> int:
        return int(self.y.sum())

    @property
    def ids(self) -> np.ndarray:
        return np.flatnonzero(self.y)


def generate_grid(rows: int, cols: int, inter_site_m: float, n_ues: int,
                  seed: int, street_width_m: float = DEFAULT_STREET_WIDTH_M) -> Topology:
    """Build the street grid and drop `n_ues` UEs uniformly into the streets.

    Deterministic for a fixed seed.  BS sites sit at the street intersections
    (row-major ids), so the mean nearest-neighbor site distance equals
    `inter_site_m` exactly whenever the grid has more than one site.
    """
    for name, value in (("rows", rows), ("cols", cols), ("n_ues", n_ues), ("seed", seed)):
        if not _is_int(value):
            raise ConfigError(f"{name} must be an integer, got {value!r}")
    if seed < 0:
        raise ConfigError(f"seed must be >= 0, got {seed}")
    if not (np.isfinite(inter_site_m) and np.isfinite(street_width_m)):
        raise ConfigError("inter-site distance and street width must be finite")
    if rows < 1 or cols < 1:
        raise ConfigError("grid must have at least one row and one column")
    if inter_site_m <= 0:
        raise ConfigError("inter-site distance must be positive")
    if n_ues < 0:
        raise ConfigError("n_ues must be nonnegative")
    if street_width_m <= 0 and n_ues > 0:
        raise ConfigError("zero street area cannot host UEs")

    d, w = float(inter_site_m), float(street_width_m)
    xs = np.arange(cols) * d
    ys = np.arange(rows) * d
    bs_xy = np.array([[x, y] for y in ys for x in xs], dtype=float)

    x_lo, x_hi = -w / 2, (cols - 1) * d + w / 2
    y_lo, y_hi = -w / 2, (rows - 1) * d + w / 2
    segments = []
    for x in xs:   # vertical streets
        segments.append([x - w / 2, y_lo, x + w / 2, y_hi])
    for y in ys:   # horizontal streets
        segments.append([x_lo, y - w / 2, x_hi, y + w / 2])
    street_segments = np.asarray(segments, dtype=float)

    topo = Topology(rows, cols, d, w, bs_xy, np.empty((0, 2)), street_segments)

    rng = np.random.default_rng(seed)
    ue_pts = np.empty((0, 2))
    while ue_pts.shape[0] < n_ues:
        cand = np.column_stack([
            rng.uniform(x_lo, x_hi, size=4 * max(n_ues, 16)),
            rng.uniform(y_lo, y_hi, size=4 * max(n_ues, 16)),
        ])
        ue_pts = np.vstack([ue_pts, cand[topo.in_streets(cand)]])
    ue_xy = ue_pts[:n_ues]

    return Topology(rows, cols, d, w, bs_xy, ue_xy, street_segments)


def _is_int(value) -> bool:
    """An integer, and not a bool."""
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


def _validate_manual(manual, n_bs: int) -> np.ndarray:
    if manual is None:
        raise ConfigError("anchor policy manual-list needs an anchor_list")
    try:
        ids = list(manual)
    except TypeError:
        raise ConfigError(f"manual anchor list is not a list of site ids: {manual!r}") from None
    if not ids:
        raise ConfigError("manual anchor list is empty")
    y = np.zeros(n_bs, dtype=bool)
    for site in ids:
        if not (_is_int(site) and 0 <= site < n_bs):
            raise ConfigError(f"manual anchor list references unknown site id {site!r}")
        if y[site]:
            raise ConfigError(f"manual anchor list repeats site id {site}")
        y[site] = True
    return y


def select_anchors(topology: Topology, k=None, policy: str = "seeded-random", *,
                   manual=None, links=None, seed: int = 0) -> AnchorSet:
    """Pick fiber-drop sites.

    Policies:
      * ``manual-list``: pass the validated user list straight through.
      * ``seeded-random``: the first k entries of a seeded site permutation,
        so sets for growing k (same seed) are nested.
      * ``greedy-coverage``: iteratively add the site that improves the
        strongest remaining downlink for the most UEs.  A documented stand-in
        heuristic for full anchor-placement optimization, which is out of
        scope here; needs `links` for the capacity matrix.
    """
    n = topology.n_bs
    if policy == "manual-list":
        return AnchorSet(_validate_manual(manual, n))
    if not (_is_int(k) and 1 <= k <= n):
        raise ConfigError(f"anchor count k={k!r} is not an integer in 1..{n}")
    if policy == "seeded-random":
        perm = np.random.default_rng(seed).permutation(n)
        y = np.zeros(n, dtype=bool)
        y[perm[:k]] = True
        return AnchorSet(y)
    if policy == "greedy-coverage":
        if links is None:
            raise ConfigError("greedy-coverage needs a LinkTable")
        cap_dl = np.where(links.exists_bu, links.cap_bu, 0.0)  # (B, U)
        best = np.zeros(topology.n_ue)
        count = (cap_dl > best).sum(axis=1)   # per BS, the UEs whose best it would raise
        y = np.zeros(n, dtype=bool)
        for _ in range(k):
            pick = int(np.argmax(np.where(y, -1, count)))  # the lowest id on ties
            y[pick] = True
            # only the UEs whose best the pick raises change any count: each
            # leaves the counts of the BSs that no longer beat its new best
            raised = np.flatnonzero(cap_dl[pick] > best)
            cols, new = cap_dl[:, raised], cap_dl[pick, raised]
            count -= ((cols > best[raised]) & (cols <= new)).sum(axis=1)
            best[raised] = new
        return AnchorSet(y)
    raise ConfigError(f"unknown anchor policy {policy!r}")
