"""Hexagonal 19-cell layout, node drops and large-scale propagation.

The deployment is the standard two-ring hexagonal macro grid: 19 flat-topped
hexagonal cells with cell 1 centered at the origin, cells 2-7 on the inner
ring and cells 8-19 on the outer ring (numbered counter-clockwise, starting
from the positive x axis on the outer ring).  Each macro site carries three
sectorized antennas; N pico-BSs and K MSs are dropped uniformly inside every
cell.  Large-scale propagation combines distance path loss, lognormal
shadowing, the parabolic sector pattern and fixed antenna gains.

Nodes are addressed by tuples:

    ("macro", cell_id, sector)   sector in 0..2
    ("pico",  cell_id, index)    index in 0..N-1
    ("ms",    cell_id, index)    index in 0..K-1

with 1-based cell ids matching the ring numbering above.
"""

from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigurationError, DomainError
from .units import db_to_pow

BANDS = ("B1", "B2", "B3")
SECTOR_BORESIGHTS_DEG = (30.0, 150.0, 270.0)

# Cell id -> lattice coordinates (a, b) on the basis
# v1 = d*(cos 30, sin 30), v2 = d*(cos 90, sin 90), d = inter-site distance.
# Ring 1 and ring 2 are each ordered counter-clockwise by angle; ring 2
# starts at the corner cell on the positive x axis so that the six co-band
# cells of cell 1 under 3-band reuse get the ids {8,10,12,14,16,18}.
_CELL_AXIAL = {
    1: (0, 0),
    2: (1, 0), 3: (0, 1), 4: (-1, 1), 5: (-1, 0), 6: (0, -1), 7: (1, -1),
    8: (2, -1), 9: (2, 0), 10: (1, 1), 11: (0, 2), 12: (-1, 2), 13: (-2, 2),
    14: (-2, 1), 15: (-2, 0), 16: (-1, -1), 17: (0, -2), 18: (1, -2),
    19: (2, -2),
}
N_CELLS = 19
REUSE_MODES = ("F1", "F1_3")
_MAX_DROP_TRIES = 10000


@dataclass
class PropagationParams:
    """Large-scale model parameters (3GPP-style macro/pico defaults)."""

    bandwidth_hz: float = 10e6
    inter_site_distance_m: float = 500.0
    # path loss PL(dB) = a + b*log10(distance); macro distance in km, pico in m
    macro_pathloss: tuple = (128.1, 37.6)
    pico_pathloss: tuple = (38.0, 30.0)
    theta_3db_deg: float = 65.0
    a_m_db: float = 20.0
    shadow_std_macro_db: float = 10.0
    shadow_std_pico_db: float = 6.0
    gain_macro_dbi: float = 15.0
    gain_pico_dbi: float = 0.0
    gain_ms_dbi: float = 0.0
    nf_macro_db: float = 5.0
    nf_pico_db: float = 6.0
    nf_ms_db: float = 9.0
    tx_macro_dbm: float = 46.0
    tx_pico_dbm: float = 24.0
    tx_ms_dbm: float = 23.0
    min_dist_macro_m: float = 10.0
    min_dist_pico_m: float = 1.0

    def __post_init__(self):
        if not np.isfinite(self.theta_3db_deg) or self.theta_3db_deg <= 0:
            raise ConfigurationError("theta_3db_deg must be finite and > 0")
        for name in ("shadow_std_macro_db", "shadow_std_pico_db",
                     "gain_macro_dbi", "gain_pico_dbi", "gain_ms_dbi",
                     "a_m_db", "bandwidth_hz"):
            if not np.isfinite(getattr(self, name)):
                raise ConfigurationError(f"{name} must be finite")
        if self.bandwidth_hz <= 0:
            raise ConfigurationError("bandwidth_hz must be > 0")


@dataclass
class Topology:
    """One random placement (drop) on the 19-cell grid."""

    macro_sites: np.ndarray        # (19, 2) meters
    sector_boresights: np.ndarray  # (19, 3) degrees
    pico_positions: np.ndarray     # (19, N, 2) meters
    ms_positions: np.ndarray       # (19, K, 2) meters
    inter_site_distance: float
    reuse_band: dict               # cell id -> band name
    interferer_set: tuple          # co-band cell ids interfering with cell 1
    reuse: str                     # "F1" or "F1_3"
    seed: int
    k_ms: int = field(default=0)
    n_pico: int = field(default=0)

    def __post_init__(self):
        self.k_ms = int(self.ms_positions.shape[1])
        self.n_pico = int(self.pico_positions.shape[1])

    @property
    def cell_radius(self):
        """Hexagon circumradius (center to vertex)."""
        return self.inter_site_distance / np.sqrt(3.0)


def hexagon_contains(center, radius, points):
    """Membership test for a flat-topped hexagon of given circumradius."""
    d = np.atleast_2d(points) - center
    x, y = np.abs(d[:, 0]), np.abs(d[:, 1])
    eps = 1e-9 * radius
    inside = (y <= np.sqrt(3.0) / 2.0 * radius + eps) & \
             (np.sqrt(3.0) * x + y <= np.sqrt(3.0) * radius + eps)
    return inside if inside.size > 1 else bool(inside[0])


def _sample_in_hexagon(center, radius, rng, reject=None):
    """Uniform point in a hexagon, resampled until `reject` clears."""
    r_in = np.sqrt(3.0) / 2.0 * radius
    for _ in range(_MAX_DROP_TRIES):
        p = center + np.array([rng.uniform(-radius, radius),
                               rng.uniform(-r_in, r_in)])
        if not hexagon_contains(center, radius, p):
            continue
        if reject is not None and reject(p):
            continue
        return p
    raise ConfigurationError("could not place a node satisfying the minimum "
                             "distance constraints; check the geometry")


def build_layout(seed, k_ms, n_pico, params=None, reuse="F1_3"):
    """Build the 19-cell topology for one drop.

    Positions are uniform inside each hexagon with the minimum tx-rx
    distances enforced at drop time (10 m to any macro site, 1 m to any
    pico).  Deterministic for a fixed seed.
    """
    params = params or PropagationParams()
    if k_ms < 1:
        raise ConfigurationError("k_ms must be >= 1")
    if n_pico < 0:
        raise ConfigurationError("n_pico must be >= 0")
    if params.inter_site_distance_m <= 0:
        raise ConfigurationError("inter_site_distance_m must be > 0")
    if reuse not in REUSE_MODES:
        raise ConfigurationError(f"unknown reuse mode {reuse!r}")

    d = params.inter_site_distance_m
    v1 = d * np.array([np.cos(np.pi / 6.0), np.sin(np.pi / 6.0)])
    v2 = d * np.array([0.0, 1.0])
    sites = np.zeros((N_CELLS, 2))
    colors = np.zeros(N_CELLS, dtype=int)
    for cid, (a, b) in _CELL_AXIAL.items():
        sites[cid - 1] = a * v1 + b * v2
        colors[cid - 1] = (a - b) % 3

    if reuse == "F1_3":
        reuse_band = {cid: BANDS[colors[cid - 1]] for cid in _CELL_AXIAL}
    else:
        reuse_band = {cid: BANDS[0] for cid in _CELL_AXIAL}
    own = reuse_band[1]
    interferers = tuple(cid for cid in range(2, N_CELLS + 1)
                        if reuse_band[cid] == own)

    radius = d / np.sqrt(3.0)
    rng = np.random.default_rng(seed)
    pico_positions = np.zeros((N_CELLS, n_pico, 2))
    ms_positions = np.zeros((N_CELLS, k_ms, 2))

    def too_close_to_macros(p):
        return np.min(np.linalg.norm(sites - p, axis=1)) < params.min_dist_macro_m

    for cid in range(1, N_CELLS + 1):
        center = sites[cid - 1]
        placed = []

        def reject_pico(p):
            if too_close_to_macros(p):
                return True
            return any(np.linalg.norm(q - p) < params.min_dist_pico_m
                       for q in placed)

        for j in range(n_pico):
            pos = _sample_in_hexagon(center, radius, rng, reject_pico)
            pico_positions[cid - 1, j] = pos
            placed.append(pos)

    all_picos = pico_positions.reshape(-1, 2)

    def reject_ms(p):
        if too_close_to_macros(p):
            return True
        if all_picos.size and np.min(np.linalg.norm(all_picos - p, axis=1)) \
                < params.min_dist_pico_m:
            return True
        return False

    for cid in range(1, N_CELLS + 1):
        center = sites[cid - 1]
        for j in range(k_ms):
            ms_positions[cid - 1, j] = _sample_in_hexagon(
                center, radius, rng, reject_ms)

    boresights = np.tile(np.array(SECTOR_BORESIGHTS_DEG), (N_CELLS, 1))
    return Topology(
        macro_sites=sites,
        sector_boresights=boresights,
        pico_positions=pico_positions,
        ms_positions=ms_positions,
        inter_site_distance=d,
        reuse_band=reuse_band,
        interferer_set=interferers,
        reuse=reuse,
        seed=int(seed),
    )


def pathloss_macro_db(distance_km, params=None):
    """Macro path loss in dB; distance in kilometers."""
    coeffs = (params or PropagationParams()).macro_pathloss
    distance_km = np.asarray(distance_km, dtype=float)
    if np.any(distance_km <= 0):
        raise DomainError("distance must be > 0")
    out = coeffs[0] + coeffs[1] * np.log10(distance_km)
    return float(out) if out.ndim == 0 else out


def pathloss_pico_db(distance_m, params=None):
    """Pico path loss in dB; distance in meters."""
    coeffs = (params or PropagationParams()).pico_pathloss
    distance_m = np.asarray(distance_m, dtype=float)
    if np.any(distance_m <= 0):
        raise DomainError("distance must be > 0")
    out = coeffs[0] + coeffs[1] * np.log10(distance_m)
    return float(out) if out.ndim == 0 else out


def sector_gain_db(offset_angle_deg, params=None):
    """Parabolic sector pattern -min[12*(theta/theta_3dB)^2, A_m] in dB.

    The offset is wrapped into [-180, 180] degrees, so the function is total
    on any real input.
    """
    params = params or PropagationParams()
    theta = np.mod(np.asarray(offset_angle_deg, dtype=float) + 180.0, 360.0) - 180.0
    # float_power is libm pow, as a scalar ** is; array ** 2 squares instead
    out = -np.minimum(12.0 * np.float_power(theta / params.theta_3db_deg, 2.0),
                      params.a_m_db)
    return float(out) if out.ndim == 0 else out


def shadowing_db(link_class, rng, params=None, size=None):
    """Zero-mean lognormal shadowing sample(s) in dB for a link class."""
    params = params or PropagationParams()
    if link_class == "macro":
        std = params.shadow_std_macro_db
    elif link_class == "pico":
        std = params.shadow_std_pico_db
    else:
        raise DomainError(f"unknown link class {link_class!r}")
    return rng.normal(0.0, std, size=size)


_NODE_KIND_CODE = {"macro": 1, "pico": 2, "ms": 3}


def _node_code(node):
    kind, cell, idx = node
    if kind not in _NODE_KIND_CODE:
        raise DomainError(f"unknown node kind {kind!r}")
    if not 1 <= cell <= N_CELLS or idx < 0:
        raise DomainError(f"invalid node {node!r}")
    return _NODE_KIND_CODE[kind] * 10 ** 6 + int(cell) * 10 ** 4 + int(idx)


def node_position(topology, node):
    """Coordinates of a node; macro sectors share the site position."""
    kind, cell, idx = node
    if kind == "macro":
        if not 0 <= idx < 3:
            raise DomainError(f"invalid sector index in {node!r}")
        return topology.macro_sites[cell - 1]
    if kind == "pico":
        if not 0 <= idx < topology.n_pico:
            raise DomainError(f"invalid pico index in {node!r}")
        return topology.pico_positions[cell - 1, idx]
    if kind == "ms":
        if not 0 <= idx < topology.k_ms:
            raise DomainError(f"invalid MS index in {node!r}")
        return topology.ms_positions[cell - 1, idx]
    raise DomainError(f"unknown node kind {kind!r}")


def link_shadowing_db(topology, tx, rx, params=None):
    """Per-link shadowing, derived deterministically from the topology seed.

    The value depends only on the unordered node pair, so the same link seen
    from either end (or re-queried with a different interferer set) always
    gets the same draw, while distinct links are independent.
    """
    codes = sorted((_node_code(tx), _node_code(rx)))
    ss = np.random.SeedSequence([topology.seed & 0xFFFFFFFF, *codes])
    cls = "macro" if "macro" in (tx[0], rx[0]) else "pico"
    return float(shadowing_db(cls, np.random.default_rng(ss), params))


def _link_ends(topology, nodes, params):
    """Positions (n, 2), macro mask, antenna gains (dBi) and sector
    boresights (degrees, 0 off macro sites) of the nodes at one link end."""
    antenna_dbi = {"macro": params.gain_macro_dbi, "pico": params.gain_pico_dbi}
    pos = np.array([node_position(topology, n) for n in nodes],
                   dtype=float).reshape(-1, 2)
    macro = np.array([n[0] == "macro" for n in nodes], dtype=bool)
    antenna = np.array([antenna_dbi.get(n[0], params.gain_ms_dbi)
                        for n in nodes], dtype=float)
    boresight = np.array([topology.sector_boresights[n[1] - 1, n[2]]
                          if n[0] == "macro" else 0.0 for n in nodes],
                         dtype=float)
    return pos, macro, antenna, boresight


def link_gain_linear(tx_nodes, rx_nodes, topology, params=None):
    """Large-scale linear power gains, shape (len(tx_nodes), len(rx_nodes)).

    Combines path loss, the per-link shadowing of :func:`link_shadowing_db`,
    the sector pattern (applied at a macro endpoint, whichever side of the
    link it is on) and antenna gains.  A link is in the macro class if either
    endpoint is a macro sector.
    """
    params = params or PropagationParams()
    p_tx, macro_tx, ant_tx, bore_tx = _link_ends(topology, tx_nodes, params)
    p_rx, macro_rx, ant_rx, bore_rx = _link_ends(topology, rx_nodes, params)
    diff = p_tx[:, None, :] - p_rx[None, :, :]
    # vecdot is the BLAS dot np.linalg.norm takes on a 2-vector
    dist = np.sqrt(np.vecdot(diff, diff))
    if np.any(dist == 0.0):
        raise DomainError("tx and rx positions coincide")

    gain_db = np.where(
        macro_tx[:, None] | macro_rx[None, :],
        -pathloss_macro_db(np.maximum(dist, params.min_dist_macro_m) / 1000.0,
                           params),
        -pathloss_pico_db(np.maximum(dist, params.min_dist_pico_m), params))
    # bearing from each end toward the other, in degrees
    bearing_tx = np.degrees(np.arctan2(-diff[..., 1], -diff[..., 0]))
    bearing_rx = np.degrees(np.arctan2(diff[..., 1], diff[..., 0]))
    # the antenna gain, then the sector pattern at a macro end, at the tx end
    # and then at the rx end: the order of the sums fixes the rounding
    gain_db = gain_db + ant_tx[:, None]
    gain_db = gain_db + np.where(
        macro_tx[:, None],
        sector_gain_db(bearing_tx - bore_tx[:, None], params), 0.0)
    gain_db = gain_db + ant_rx[None, :]
    gain_db = gain_db + np.where(
        macro_rx[None, :],
        sector_gain_db(bearing_rx - bore_rx[None, :], params), 0.0)

    shadow = np.array([[link_shadowing_db(topology, t, r, params)
                        for r in rx_nodes] for t in tx_nodes],
                      dtype=float).reshape(gain_db.shape)
    return db_to_pow(gain_db + shadow)
