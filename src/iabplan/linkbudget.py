"""Per-link budget: gains -> SNR -> effective SNR -> Shannon capacity.

Two gain sources are supported: the built-in synthetic street-corner model
(free-space path loss plus atmospheric absorption plus a fixed penalty per
street corner on the Manhattan route), and a CSV ingest point for gains
produced by external ray-tracing tools.  The synthetic model is an openly
invented stand-in so the toolkit runs end to end without proprietary data;
it is bypassed entirely when a CSV is supplied.
"""

from __future__ import annotations

import csv
import math
import numbers
from dataclasses import dataclass, fields, replace

import numpy as np

from .artifacts import write_csv
from .errors import ConfigError, IngestionError
from .geometry import Topology

SPEED_OF_LIGHT = 299792458.0
MIN_DISTANCE_M = 1.0   # coincident nodes are clamped to 1 m


@dataclass(frozen=True)
class BudgetConfig:
    """Link-budget parameters.  Defaults give a 28 GHz, 1 GHz-wide deployment."""

    tx_power_dbm: float = 30.0        # UE PA output (uplink only)
    bs_array_gain_db: float = 21.0    # 16x8 planar array
    bs_eirp_dbm: float = 51.0         # every BS transmission; 30 dBm PA + 21 dB array
    bandwidth_hz: float = 1e9
    carrier_hz: float = 28e9
    atmospheric_db_per_km: float = 0.11
    polarization_loss_db: float = 1.0
    alignment_error_db: float = 5.0
    implementation_loss_db: float = 5.0
    fiber_capacity_bps: float = 200e9  # per-anchor wired pipe
    noise_figure_db: float = 7.0      # not part of the published budget; see README
    snr_cap_db: float = 30.0
    min_snr_db: float = 0.0
    corner_loss_db: float = 20.0      # synthetic model only
    effective_snr_mode: str = "parallel"  # "parallel" | "harmonic-mean"

    def __post_init__(self):
        for f in fields(self):
            value = getattr(self, f.name)
            if isinstance(f.default, float) and (isinstance(value, bool) or not (
                    isinstance(value, numbers.Real) and math.isfinite(value))):
                raise ConfigError(f"{f.name} must be a finite number, got {value!r}")
        for name in ("polarization_loss_db", "alignment_error_db",
                     "implementation_loss_db", "atmospheric_db_per_km",
                     "corner_loss_db"):
            if getattr(self, name) < 0:
                raise ConfigError(f"{name} must be nonnegative")
        for name in ("bandwidth_hz", "carrier_hz", "fiber_capacity_bps"):
            if getattr(self, name) <= 0:
                raise ConfigError(f"{name} must be positive, got {getattr(self, name)!r}")
        if self.snr_cap_db <= self.min_snr_db:
            raise ConfigError("snr_cap_db must exceed min_snr_db")
        if self.effective_snr_mode not in ("parallel", "harmonic-mean"):
            raise ConfigError(f"unknown effective_snr_mode {self.effective_snr_mode!r}")

    @property
    def noise_dbm(self) -> float:
        return -174.0 + 10.0 * math.log10(self.bandwidth_hz) + self.noise_figure_db

    def replace(self, **kw) -> "BudgetConfig":
        return replace(self, **kw)


@dataclass(frozen=True)
class Gains:
    """Directed gain matrices in dB; -inf marks an absent pair."""

    bb: np.ndarray  # (B, B) BS -> BS
    bu: np.ndarray  # (B, U) BS -> UE
    ub: np.ndarray  # (U, B) UE -> BS

    @property
    def n_bs(self) -> int:
        return self.bb.shape[0]

    @property
    def n_ue(self) -> int:
        return self.bu.shape[1]


def _street_bands(topology: Topology, xy: np.ndarray):
    """Per point: index of containing vertical / horizontal street, or -1."""
    d, w = topology.block_size_m, topology.street_width_m
    xs = np.arange(topology.grid_cols) * d
    ys = np.arange(topology.grid_rows) * d
    v = np.full(xy.shape[0], -1, dtype=int)
    h = np.full(xy.shape[0], -1, dtype=int)
    for j, x in enumerate(xs):
        v[np.abs(xy[:, 0] - x) <= w / 2] = j
    for i, y in enumerate(ys):
        h[np.abs(xy[:, 1] - y) <= w / 2] = i
    return v, h


def _corner_matrix(topology: Topology, p_xy: np.ndarray, q_xy: np.ndarray) -> np.ndarray:
    """Street corners on the Manhattan route between each (p, q) pair.

    0 if the two points share a street, 1 if they sit on perpendicular
    streets (one turn), 2 otherwise.  Points at intersections belong to both
    a vertical and a horizontal street and take the cheapest combination.
    """
    pv, ph = _street_bands(topology, p_xy)
    qv, qh = _street_bands(topology, q_xy)
    npts, mpts = p_xy.shape[0], q_xy.shape[0]
    corners = np.full((npts, mpts), 2, dtype=float)

    pv_ = pv[:, None]
    ph_ = ph[:, None]
    qv_ = qv[None, :]
    qh_ = qh[None, :]
    perp = ((pv_ >= 0) & (qh_ >= 0)) | ((ph_ >= 0) & (qv_ >= 0))
    corners[perp] = 1
    same = ((pv_ >= 0) & (pv_ == qv_)) | ((ph_ >= 0) & (ph_ == qh_))
    corners[same] = 0
    return corners


def _gain_matrix(topology: Topology, p_xy, q_xy, cfg: BudgetConfig) -> np.ndarray:
    d_m = (np.abs(p_xy[:, 0][:, None] - q_xy[:, 0][None, :])
           + np.abs(p_xy[:, 1][:, None] - q_xy[:, 1][None, :]))
    d_m = np.maximum(d_m, MIN_DISTANCE_M)
    fspl = 20.0 * np.log10(4.0 * math.pi * d_m * cfg.carrier_hz / SPEED_OF_LIGHT)
    atmo = cfg.atmospheric_db_per_km * d_m / 1000.0
    corners = _corner_matrix(topology, p_xy, q_xy)
    return -(fspl + atmo + cfg.corner_loss_db * corners)


def synth_gain(topology: Topology, pair, cfg: BudgetConfig | None = None) -> float:
    """Synthetic gain (dB) for one ordered pair ((kind, id), (kind, id))."""
    cfg = cfg or BudgetConfig()

    def xy(node):
        kind, idx = node
        arr = topology.bs_xy if kind == "bs" else topology.ue_xy
        if not 0 <= idx < arr.shape[0]:
            raise ConfigError(f"node {node!r} not in topology")
        return arr[idx:idx + 1]

    return float(_gain_matrix(topology, xy(pair[0]), xy(pair[1]), cfg)[0, 0])


def synthetic_gains(topology: Topology, cfg: BudgetConfig | None = None) -> Gains:
    """Gain matrices for all BS-BS and BS-UE pairs under the corner model."""
    cfg = cfg or BudgetConfig()
    bb = _gain_matrix(topology, topology.bs_xy, topology.bs_xy, cfg)
    np.fill_diagonal(bb, -np.inf)
    if topology.n_ue:
        bu = _gain_matrix(topology, topology.bs_xy, topology.ue_xy, cfg)
    else:
        bu = np.empty((topology.n_bs, 0))
    return Gains(bb=bb, bu=bu, ub=bu.T.copy())


def load_gains_csv(path, n_bs: int, n_ue: int) -> Gains:
    """Read `from,to,gain_db` rows using global node ids.

    Global ids: 0..n_bs-1 are BS sites, n_bs..n_bs+n_ue-1 are UEs.  Pairs not
    present in the file, or given a gain of -inf, are absent.  Duplicate
    pairs, unknown ids, UE-to-UE rows, NaN or +inf gains and malformed rows
    raise an IngestionError naming the line.
    """
    n = n_bs + n_ue
    full = np.full((n, n), -np.inf)
    seen = set()
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None or [c.strip() for c in header] != ["from", "to", "gain_db"]:
            raise IngestionError(f"{path}: expected header 'from,to,gain_db'")
        for lineno, row in enumerate(reader, start=2):
            if not row or (len(row) == 1 and not row[0].strip()):
                continue
            if len(row) != 3:
                raise IngestionError(f"{path}:{lineno}: expected 3 fields, got {len(row)}")
            try:
                src, dst, gain = int(row[0]), int(row[1]), float(row[2])
            except ValueError as exc:
                raise IngestionError(f"{path}:{lineno}: {exc}") from exc
            if math.isnan(gain) or gain == math.inf:
                raise IngestionError(f"{path}:{lineno}: gain must be finite or -inf, "
                                     f"got {row[2].strip()!r}")
            for node in (src, dst):
                if not 0 <= node < n:
                    raise IngestionError(f"{path}:{lineno}: unknown node id {node}")
            if src >= n_bs and dst >= n_bs:
                raise IngestionError(f"{path}:{lineno}: UE-to-UE links are not supported")
            if (src, dst) in seen:
                raise IngestionError(f"{path}:{lineno}: duplicate pair ({src},{dst})")
            seen.add((src, dst))
            full[src, dst] = gain
    return Gains(
        bb=full[:n_bs, :n_bs].copy(),
        bu=full[:n_bs, n_bs:].copy(),
        ub=full[n_bs:, :n_bs].copy(),
    )


def link_snr(gain_db, direction: str, cfg: BudgetConfig):
    """SNR (dB) of a link with the given gain; accepts scalars or arrays.

    Transmitter EIRP is `bs_eirp_dbm` for a BS and bare `tx_power_dbm` for a
    UE (single antenna element, 0 dBi).  Receive array gain applies only at a
    BS.  -inf gains pass through as -inf.
    """
    if direction == "bs-bs":
        eirp, rx_gain = cfg.bs_eirp_dbm, cfg.bs_array_gain_db
    elif direction == "bs-ue":
        eirp, rx_gain = cfg.bs_eirp_dbm, 0.0
    elif direction == "ue-bs":
        eirp, rx_gain = cfg.tx_power_dbm, cfg.bs_array_gain_db
    else:
        raise ConfigError(f"unknown link direction {direction!r}")
    losses = (cfg.polarization_loss_db + cfg.alignment_error_db
              + cfg.implementation_loss_db)
    return np.asarray(gain_db, dtype=float) + eirp + rx_gain - losses - cfg.noise_dbm


def effective_snr(snr_linear, cfg: BudgetConfig | None = None):
    """Combine the actual SNR with the configured ceiling (default 30 dB).

    Default mode is the two-element parallel combination 1/(1/x + 1/cap),
    which approaches the cap exactly from below and is never above either
    term.  The textbook harmonic mean 2/(1/x + 1/cap) is available as mode
    "harmonic-mean"; note it saturates 3 dB above the nominal ceiling.
    """
    cfg = cfg or BudgetConfig()
    cap = 10.0 ** (cfg.snr_cap_db / 10.0)
    x = np.asarray(snr_linear, dtype=float)
    if np.any(x < 0):
        raise ConfigError("linear SNR must be nonnegative")
    with np.errstate(divide="ignore", over="ignore"):
        eff = 1.0 / (1.0 / x + 1.0 / cap)
    eff = np.where(x == 0, 0.0, eff)
    if cfg.effective_snr_mode == "harmonic-mean":
        eff = 2.0 * eff
    else:
        # The reciprocals can round the result one ulp above x (tiny x) or
        # above cap (huge x); the parallel combination is below both.
        eff = np.minimum(eff, np.minimum(x, cap))
    return eff if eff.ndim else float(eff)


def capacity(eff_snr_linear, bandwidth_hz: float):
    """Shannon capacity in bps."""
    c = bandwidth_hz * np.log2(1.0 + np.asarray(eff_snr_linear, dtype=float))
    return c if c.ndim else float(c)


@dataclass(frozen=True)
class LinkTable:
    """Gain, capacity and existence for every ordered pair.

    A link exists iff its SNR is at least `min_snr_db` (inclusive boundary).
    Capacity is zero for absent links.  There are no UE-UE links.
    """

    gain_bb: np.ndarray
    gain_bu: np.ndarray
    gain_ub: np.ndarray
    cap_bb: np.ndarray
    cap_bu: np.ndarray
    cap_ub: np.ndarray
    exists_bb: np.ndarray
    exists_bu: np.ndarray
    exists_ub: np.ndarray
    cfg: BudgetConfig

    @property
    def n_bs(self) -> int:
        return self.gain_bb.shape[0]

    @property
    def n_ue(self) -> int:
        return self.gain_bu.shape[1]

    def to_csv(self, path, header_meta: dict | None = None) -> None:
        """Audit dump: `from,to,gain_db,snr_db,capacity_bps,exists` (global
        ids), with the SNR derived from the gain as the file is written."""
        blocks = []
        for gain, cap, exists, direction, src_off, dst_off in (
                (self.gain_bb, self.cap_bb, self.exists_bb, "bs-bs", 0, 0),
                (self.gain_bu, self.cap_bu, self.exists_bu, "bs-ue", 0, self.n_bs),
                (self.gain_ub, self.cap_ub, self.exists_ub, "ue-bs", self.n_bs, 0)):
            # every ordered pair but a site to itself
            i, j = np.nonzero(~np.eye(*gain.shape, dtype=bool) if direction == "bs-bs"
                              else np.ones_like(exists))
            g = gain[i, j]
            blocks.append((i + src_off, j + dst_off, g, link_snr(g, direction, self.cfg),
                           cap[i, j], exists[i, j]))
        write_csv(path, header_meta,
                  ["from", "to", "gain_db", "snr_db", "capacity_bps", "exists"],
                  "%d,%d,%.6g,%.6g,%.8g,%d",
                  [np.concatenate(col).tolist() for col in zip(*blocks)])


def build_link_table(gains: Gains, cfg: BudgetConfig | None = None) -> LinkTable:
    """Apply SNR -> existence threshold -> effective SNR -> capacity per pair."""
    cfg = cfg or BudgetConfig()

    def one(gain, direction):
        snr_db = link_snr(gain, direction, cfg)
        exists = snr_db >= cfg.min_snr_db
        with np.errstate(over="ignore"):
            snr_lin = 10.0 ** (snr_db / 10.0)   # 0 for a -inf gain
        eff = np.where(exists, effective_snr(snr_lin, cfg), 0.0)
        return exists, np.where(exists, capacity(eff, cfg.bandwidth_hz), 0.0)

    ex_bb, cap_bb = one(gains.bb, "bs-bs")
    np.fill_diagonal(ex_bb, False)
    np.fill_diagonal(cap_bb, 0.0)
    ex_bu, cap_bu = one(gains.bu, "bs-ue")
    ex_ub, cap_ub = one(gains.ub, "ue-bs")

    return LinkTable(
        gain_bb=gains.bb, gain_bu=gains.bu, gain_ub=gains.ub,
        cap_bb=cap_bb, cap_bu=cap_bu, cap_ub=cap_ub,
        exists_bb=ex_bb, exists_bu=ex_bu, exists_ub=ex_ub,
        cfg=cfg,
    )
