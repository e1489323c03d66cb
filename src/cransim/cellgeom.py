"""Hexagonal 19-cell layout, node drops and large-scale propagation.

The deployment is the standard two-ring hexagonal macro grid: 19 flat-topped
hexagonal cells with cell 1 centered at the origin, cells 2-7 on the inner
ring and cells 8-19 on the outer ring (numbered counter-clockwise, starting
from the positive x axis on the outer ring).  Each macro site carries three
sectorized antennas; N pico-BSs and K MSs are dropped uniformly inside every
cell.  Large-scale propagation combines distance path loss, lognormal
shadowing, the parabolic sector pattern and fixed antenna gains.

A drop is one rejection sampler over one stream, ``default_rng(seed)``: every
cell's picos, then every cell's MSs, each node taking the first uniform
candidate in its bounding box that lies in its hexagon and keeps the minimum
distances.  The candidates are drawn in batches and tested once against the
hexagon at the origin; every cell's nodes are then guessed at once, and only
a cell whose guess fails is scanned candidate window by window.  Each link's
shadowing is ``normal(0, std)`` from numpy's own PCG64 Generator, seeded by
``SeedSequence([seed mod 2^32, lower node code, higher node code])``, so it
depends on the unordered node pair alone.  The SeedSequence state words of
a whole link set are computed at once as array arithmetic, bit for bit
numpy's.

Nodes are addressed by tuples:

    ("macro", cell_id, sector)   sector in 0..2
    ("pico",  cell_id, index)    index in 0..N-1
    ("ms",    cell_id, index)    index in 0..K-1

with 1-based cell ids matching the ring numbering above.
"""

from dataclasses import dataclass

import numpy as np
from numpy.random import PCG64, Generator
from numpy.random.bit_generator import ISeedSequence

from .errors import ConfigurationError, DomainError, check_fields
from .units import db_to_pow

SECTOR_BORESIGHTS_DEG = (30.0, 150.0, 270.0)
N_SECTORS = len(SECTOR_BORESIGHTS_DEG)    # of every macro site

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


@dataclass(frozen=True)
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
        check_fields(self, "propagation.")
        for name in ("inter_site_distance_m", "theta_3db_deg", "bandwidth_hz"):
            if getattr(self, name) <= 0:
                raise ConfigurationError(f"{name} must be > 0")
        if self.shadow_std_macro_db < 0 or self.shadow_std_pico_db < 0:
            raise ConfigurationError("shadowing std must be >= 0")


@dataclass
class Topology:
    """One random placement (drop) on the 19-cell grid."""

    macro_sites: np.ndarray        # (19, 2) meters
    pico_positions: np.ndarray     # (19, N, 2) meters
    ms_positions: np.ndarray       # (19, K, 2) meters
    interferer_set: tuple          # co-band cell ids interfering with cell 1
    seed: int

    @property
    def k_ms(self):
        return self.ms_positions.shape[1]

    @property
    def n_pico(self):
        return self.pico_positions.shape[1]


def hexagon_contains(center, radius, points):
    """Membership test for a flat-topped hexagon of given circumradius;
    ``points`` and ``center`` broadcast over all but the last axis.  The
    result has the broadcast shape: a bool for one 1-D point and center."""
    d = np.asarray(points) - center
    x, y = np.abs(d[..., 0]), np.abs(d[..., 1])
    eps = 1e-9 * radius
    inside = (y <= np.sqrt(3.0) / 2.0 * radius + eps) & \
             (np.sqrt(3.0) * x + y <= np.sqrt(3.0) * radius + eps)
    return bool(inside) if inside.ndim == 0 else inside


class _Candidates:
    """The layout generator's stream of candidate node offsets, and the
    stream positions of those that lie in the hexagon.

    ``uniform(-high, high, size=(n, 2))`` gives the (x, y) pairs of successive
    scalar ``uniform(-R, R)``, ``uniform(-r_in, r_in)`` calls bit for bit, so
    one array holds the stream.  The offsets do not depend on the cell, so
    one test against the hexagon at the origin gives one ascending list of
    in-hexagon positions for every cell.  Nothing draws from the generator
    after the last node, so the stream may be drawn past the last candidate
    a node takes.
    """

    def __init__(self, rng, radius, n_nodes):
        self.rng, self.radius = rng, radius
        self.high = np.array([radius, np.sqrt(3.0) / 2.0 * radius])
        self.offsets = np.empty((0, 2))
        self.inside = np.empty(0, dtype=int)
        # three in four candidates fall in the hexagon
        self._draw(n_nodes * 3 // 2 + 32)

    def take(self, k, n):
        """Stream positions of in-hexagon candidates k to k + n - 1."""
        while len(self.inside) < k + n:
            self._draw(max(256, len(self.offsets)))
        return self.inside[k:k + n]

    def _draw(self, n):
        batch = self.rng.uniform(-self.high, self.high, size=(n, 2))
        inside = np.flatnonzero(hexagon_contains(0.0, self.radius, batch))
        self.inside = np.concatenate([self.inside, inside + len(self.offsets)])
        self.offsets = np.concatenate([self.offsets, batch])


def _too_close(points, placed, spacing):
    """Mask (..., m, n): which of the (..., m, 2) points lie closer than
    ``spacing`` to which of the (..., n, 2) ``placed``."""
    diff = placed[..., None, :, :] - points[..., :, None, :]
    # vecdot is the BLAS dot np.linalg.norm takes on a 2-vector
    return np.sqrt(np.vecdot(diff, diff)) < spacing


def _scan(candidates, site, k, need, near, spacing, placed):
    """In-hexagon indices of one cell's next ``need`` nodes from candidate
    ``k`` on, each keeping ``spacing`` from ``placed`` and the nodes before
    it.  Windows of 8 doubling to 1024 candidates take one batch test each;
    a passing candidate is tested again against the window's earlier picks."""
    picks, width = [], 8
    last = candidates.inside[k - 1] if k else -1
    while len(picks) < need:
        window = candidates.take(k, width)
        points = site + candidates.offsets[window]
        ok = ~near(points) & ~_too_close(points, placed, spacing).any(axis=1)
        for n in np.flatnonzero(ok).tolist():
            if len(picks) == need or window[n] - last > _MAX_DROP_TRIES:
                break
            if not _too_close(points[n:n + 1], placed, spacing).any():
                picks.append(k + n)
                last = window[n]
                placed = np.concatenate([placed, points[n:n + 1]])
        if len(picks) < need and window[-1] - last > _MAX_DROP_TRIES:
            raise ConfigurationError(
                "could not place a node satisfying the minimum "
                "distance constraints; check the geometry")
        k, width = k + width, min(2 * width, 1024)
    return picks


def _place(candidates, sites, k, count, near, spacing=0.0):
    """(positions (n_cells, count, 2), next in-hexagon index): ``count``
    nodes in each cell, cell after cell, from in-hexagon candidate ``k`` on.

    A node takes the first in-hexagon candidate after the previous node's
    that ``near`` (a mask over (m, 2) points) does not reject and that lies
    ``spacing`` from the cell's earlier nodes: the candidate a one-node
    rejection sampler would take.  A node with no such candidate within
    ``_MAX_DROP_TRIES`` stream positions of the previous node's is a
    ConfigurationError.

    Each pass guesses that every unsettled cell takes its next ``count``
    candidates in turn, and tests the guess with one ``near`` test, one
    spacing test and one check of the try limit.  The cells before the
    first failing pick are settled; that cell keeps its picks before the
    failing one, and `_scan` finds the rest.
    """
    n_cells = len(sites)
    picks = np.zeros((n_cells, count), dtype=int)
    earlier = np.tril(np.ones((count, count), dtype=bool), -1)
    settled = 0
    while settled < n_cells:
        shape = (n_cells - settled, count)
        guess = candidates.take(k, shape[0] * count)
        points = sites[settled:, None, :] \
            + candidates.offsets[guess].reshape(*shape, 2)
        gaps = np.diff(guess, prepend=candidates.inside[k - 1] if k else -1)
        bad = (near(points.reshape(-1, 2))
               | (gaps > _MAX_DROP_TRIES)).reshape(shape)
        bad |= (_too_close(points, points, spacing) & earlier).any(axis=2)
        picks[settled:] = k + np.arange(guess.size).reshape(shape)
        if not bad.any():
            k += guess.size
            break
        first, j = divmod(int(np.argmax(bad)), count)
        settled, k = settled + first, k + first * count
        picks[settled, j:] = _scan(candidates, sites[settled], k + j,
                                   count - j, near, spacing, points[first, :j])
        k = int(picks[settled, -1]) + 1
        settled += 1
    return sites[:, None, :] + candidates.offsets[candidates.inside[picks]], k


def build_layout(seed, k_ms, n_pico, params=None, reuse="F1_3"):
    """Build the 19-cell topology for one drop.

    Positions are uniform inside each hexagon.  Every node keeps
    ``min_dist_macro_m`` from every macro site; a pico keeps
    ``min_dist_pico_m`` from its own cell's earlier picos, and an MS keeps
    it from every pico.  Both distances come from ``params`` (10 m and 1 m
    by default).  Deterministic for a fixed seed.
    """
    params = params or PropagationParams()
    if k_ms < 1:
        raise ConfigurationError("k_ms must be >= 1")
    if n_pico < 0:
        raise ConfigurationError("n_pico must be >= 0")
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
    # under F1_3 a cell's band is its reuse color; under F1 all share one
    interferers = tuple(cid for cid in range(2, N_CELLS + 1)
                        if reuse == "F1" or colors[cid - 1] == colors[0])

    candidates = _Candidates(np.random.default_rng(seed), d / np.sqrt(3.0),
                             N_CELLS * (n_pico + k_ms))

    def near(nodes, distance):
        """Mask over (m, 2) points: closer than ``distance`` to a node.  The
        sum of squares is np.linalg.norm(axis=1)'s arithmetic."""
        def test(points):
            dx = nodes[:, 0] - points[:, 0:1]
            dy = nodes[:, 1] - points[:, 1:2]
            return np.sqrt(dx * dx + dy * dy).min(axis=1, initial=np.inf) \
                < distance
        return test

    near_macro = near(sites, params.min_dist_macro_m)
    # every cell's picos, then every cell's MSs, from one stream; only the
    # picos' spacing from their own cell's earlier picos depends on order
    pico_positions, k = _place(candidates, sites, 0, n_pico, near_macro,
                               spacing=params.min_dist_pico_m)
    near_pico = near(pico_positions.reshape(-1, 2), params.min_dist_pico_m)
    ms_positions, _ = _place(candidates, sites, k, k_ms,
                             lambda p: near_macro(p) | near_pico(p))

    return Topology(macro_sites=sites, pico_positions=pico_positions,
                    ms_positions=ms_positions, interferer_set=interferers,
                    seed=int(seed))


def _pathloss_db(coeffs, distance):
    """a + b*log10(distance) for coeffs (a, b): a float for a scalar."""
    distance = np.asarray(distance, dtype=float)
    if np.any(distance <= 0):
        raise DomainError("distance must be > 0")
    out = coeffs[0] + coeffs[1] * np.log10(distance)
    return float(out) if out.ndim == 0 else out


def pathloss_macro_db(distance_km, params=None):
    """Macro path loss in dB; distance in kilometers."""
    return _pathloss_db((params or PropagationParams()).macro_pathloss,
                        distance_km)


def pathloss_pico_db(distance_m, params=None):
    """Pico path loss in dB; distance in meters."""
    return _pathloss_db((params or PropagationParams()).pico_pathloss,
                        distance_m)


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


_NODE_KIND_CODE = {"macro": 1, "pico": 2, "ms": 3}
_MAX_NODE_INDEX = 10 ** 4


def _node_code(node):
    """kind * 10^6 + cell * 10^4 + index: distinct for distinct valid nodes,
    and below 2^32."""
    kind, cell, idx = node
    if kind not in _NODE_KIND_CODE:
        raise DomainError(f"unknown node kind {kind!r}")
    if not 1 <= cell <= N_CELLS or not 0 <= idx < _MAX_NODE_INDEX:
        raise DomainError(f"invalid node {node!r}")
    return _NODE_KIND_CODE[kind] * 10 ** 6 + int(cell) * 10 ** 4 + int(idx)


def node_position(topology, node):
    """Coordinates of a node; macro sectors share the site position."""
    kind, cell, idx = node
    _node_code(node)    # refuses an unknown kind or a cell off the grid
    if kind == "macro":
        if not 0 <= idx < N_SECTORS:
            raise DomainError(f"invalid sector index in {node!r}")
        return topology.macro_sites[cell - 1]
    if kind == "pico":
        if not 0 <= idx < topology.n_pico:
            raise DomainError(f"invalid pico index in {node!r}")
        return topology.pico_positions[cell - 1, idx]
    if not 0 <= idx < topology.k_ms:
        raise DomainError(f"invalid MS index in {node!r}")
    return topology.ms_positions[cell - 1, idx]


# np.random.SeedSequence's constants: entropy mixing into a pool of four
# words, then generate_state
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_POOL_SIZE = 4


def _hashmix(values, hash_const, mult):
    """SeedSequence's hashmix of each row of the (m, n) uint32 ``values`` in
    turn, the hash constant starting at ``hash_const``; returns the hashed
    rows and the next hash constant.  uint32 array arithmetic wraps modulo
    2^32 as the reference's does."""
    consts = [hash_const]
    for _ in range(len(values)):
        consts.append(consts[-1] * mult & 0xFFFFFFFF)
    consts = np.array(consts, dtype=np.uint32)[:, None]
    values = (values ^ consts[:-1]) * consts[1:]
    return values ^ (values >> 16), int(consts[-1, 0])


def _seed_state_words(entropy):
    """``SeedSequence(row).generate_state(4, np.uint64)`` for each row of an
    (n, e) uint32 array, e <= 4, as an (n, 4) uint64 array.

    The hash constants do not depend on the entropy, so every step of
    SeedSequence's algorithm is an array operation over all n rows.
    """
    n, width = entropy.shape
    pool = np.zeros((_POOL_SIZE, n), dtype=np.uint32)
    pool[:width] = entropy.T
    pool, hash_const = _hashmix(pool, _INIT_A, _MULT_A)
    for i_src in range(_POOL_SIZE):
        # mixing into the other words leaves word i_src as it is
        dst = [i for i in range(_POOL_SIZE) if i != i_src]
        mixed, hash_const = _hashmix(
            np.broadcast_to(pool[i_src], (len(dst), n)), hash_const, _MULT_A)
        result = (np.uint32(_MIX_MULT_L) * pool[dst]
                  - np.uint32(_MIX_MULT_R) * mixed)
        pool[dst] = result ^ (result >> 16)
    words, _ = _hashmix(pool[np.arange(2 * _POOL_SIZE) % _POOL_SIZE],
                        _INIT_B, _MULT_B)
    # little-endian pairs of uint32 words make the uint64 words; each row
    # must be contiguous, for PCG64 reads it as a C array
    words = words.astype(np.uint64)
    return np.ascontiguousarray((words[0::2] | words[1::2] << 32).T)


class _StateWords(ISeedSequence):
    """Seeds a bit generator with state words computed beforehand."""

    def __init__(self, words):
        self.words = words

    def generate_state(self, n_words, dtype=np.uint32):
        return self.words


def link_shadowing_db(topology, tx_nodes, rx_nodes, params=None):
    """Lognormal shadowing in dB of every (tx, rx) link, shape
    (len(tx_nodes), len(rx_nodes)).

    Link (a, b) draws ``normal(0, std)`` from PCG64 seeded by
    ``SeedSequence([seed mod 2^32, lower code, higher code])``, where
    ``seed`` is the topology's, the codes are the two nodes' and ``std`` is
    the macro class's if either end is a macro sector, the pico class's
    otherwise.  So the same link seen from either end (or re-queried with a
    different link set) always gets the same draw, while distinct links are
    independent.

    Each draw is numpy's own ``Generator(PCG64)``; only the SeedSequence
    state words that seed it are computed for the whole link set at once.
    """
    params = params or PropagationParams()
    shape = (len(tx_nodes), len(rx_nodes))
    tx_code = np.array([_node_code(n) for n in tx_nodes], dtype=np.uint32)
    rx_code = np.array([_node_code(n) for n in rx_nodes], dtype=np.uint32)
    entropy = np.stack([
        np.full(shape, topology.seed & 0xFFFFFFFF, dtype=np.uint32),
        np.minimum.outer(tx_code, rx_code),
        np.maximum.outer(tx_code, rx_code)], axis=-1).reshape(-1, 3)
    macro = np.logical_or.outer([n[0] == "macro" for n in tx_nodes],
                                [n[0] == "macro" for n in rx_nodes])
    std = np.where(macro, params.shadow_std_macro_db,
                   params.shadow_std_pico_db).ravel()
    draws = [Generator(PCG64(_StateWords(words))).normal(0.0, s)
             for words, s in zip(_seed_state_words(entropy), std.tolist())]
    return np.array(draws, dtype=float).reshape(shape)


def _link_ends(topology, nodes, params):
    """Positions (n, 2), macro mask, antenna gains (dBi) and sector
    boresights (degrees, 0 off macro sites) of the nodes at one link end."""
    antenna_dbi = {"macro": params.gain_macro_dbi, "pico": params.gain_pico_dbi}
    pos = np.array([node_position(topology, n) for n in nodes],
                   dtype=float).reshape(-1, 2)
    macro = np.array([n[0] == "macro" for n in nodes], dtype=bool)
    antenna = np.array([antenna_dbi.get(n[0], params.gain_ms_dbi)
                        for n in nodes], dtype=float)
    boresight = np.array([SECTOR_BORESIGHTS_DEG[n[2]]
                          if n[0] == "macro" else 0.0 for n in nodes],
                         dtype=float)
    return pos, macro, antenna, boresight


def link_gain_linear(tx_nodes, rx_nodes, topology, params=None):
    """Large-scale linear power gains, shape (len(tx_nodes), len(rx_nodes)).

    Combines path loss, the sector pattern (applied at a macro endpoint,
    whichever side of the link it is on), antenna gains and the shadowing of
    :func:`link_shadowing_db`.  A link is in the macro class if either
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

    return db_to_pow(gain_db
                     + link_shadowing_db(topology, tx_nodes, rx_nodes, params))
