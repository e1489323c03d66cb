"""Per-slot channel realizations and effective noise for one cluster.

The cluster under study is served by the three sector antennas of its own
macro site plus the pico-BSs dropped in the cell; its K MSs are the served
users.  Everything outside the cluster is folded into the effective noise:
thermal noise plus the received power from the co-band cells, which transmit
at full power (all sector antennas and picos on the downlink, one active MS
per sector on the uplink).

Large-scale link gains (path loss, shadowing, antenna terms) are fixed for
the lifetime of a drop; small-scale Rayleigh fades are redrawn independently
per slot.  A cluster is built for one direction and tabulates only that
direction's interference; its slots carry that direction's noise alone.
"""

from dataclasses import dataclass

import numpy as np

from . import cellgeom
from .errors import DomainError
from .units import dbm_to_watts

THERMAL_NOISE_DBM_PER_HZ = -174.0
CLUSTER_CELL = 1   # the served cell; topology.interferer_set is its co-band set
DIRECTIONS = ("uplink", "downlink")


def thermal_noise_w(nf_db, bandwidth_hz):
    """Thermal noise floor in watts for a receiver noise figure."""
    dbm = THERMAL_NOISE_DBM_PER_HZ + 10.0 * np.log10(bandwidth_hz) + nf_db
    return float(dbm_to_watts(dbm))


def tx_power_w(params):
    """Full transmit power in watts of each node kind."""
    return {"macro": float(dbm_to_watts(params.tx_macro_dbm)),
            "pico": float(dbm_to_watts(params.tx_pico_dbm)),
            "ms": float(dbm_to_watts(params.tx_ms_dbm))}


def noise_floor_w(params):
    """Thermal noise floor in watts of each node kind's receiver."""
    return {kind: thermal_noise_w(nf, params.bandwidth_hz)
            for kind, nf in (("macro", params.nf_macro_db),
                             ("pico", params.nf_pico_db),
                             ("ms", params.nf_ms_db))}


@dataclass
class ChannelRealization:
    """One slot of small-scale fading for the cluster.

    ``h_ul[i, k]`` is the complex gain from MS k to BS antenna i (so the BS
    observation vector is ``h_ul @ x + z``); ``h_dl[k, i]`` the gain from BS
    antenna i to MS k.  Noise variances are in watts and include the
    inter-cluster interference; the noise of the direction a realization
    was not drawn for is None.
    """

    h_ul: np.ndarray
    h_dl: np.ndarray
    sigma2_z_ul: np.ndarray
    sigma2_z_dl: np.ndarray
    slot_index: int = 0

    def __post_init__(self):
        n_bs, n_ms = self.h_ul.shape
        if self.h_dl.shape != (n_ms, n_bs):
            raise DomainError("h_dl shape inconsistent with h_ul")
        for noise, n in ((self.sigma2_z_ul, n_bs), (self.sigma2_z_dl, n_ms)):
            if noise is None:
                continue
            if noise.shape != (n,):
                raise DomainError(
                    "noise vector shapes inconsistent with channel")
            if np.any(noise <= 0):
                raise DomainError("noise variances must be strictly positive")

    @property
    def n_bs(self):
        return self.h_ul.shape[0]

    @property
    def n_ms(self):
        return self.h_ul.shape[1]


@dataclass
class Cluster:
    """Drop-level state for the cluster in one direction: nodes and
    large-scale quantities.  The other direction's interference is None."""

    params: cellgeom.PropagationParams
    direction: str
    bs_nodes: list
    ms_nodes: list
    gain: np.ndarray            # (n_bs, n_ms) large-scale linear gains
    thermal_ul: np.ndarray      # (n_bs,) watts
    sigma2_dl: np.ndarray       # downlink: (n_ms,) watts, thermal + interference
    ul_interference: np.ndarray  # uplink: (n_cells, k_ms, n_bs) rx power if that MS is active

    @property
    def n_macro(self):
        return sum(node[0] == "macro" for node in self.bs_nodes)

    @property
    def n_bs(self):
        return len(self.bs_nodes)

    @property
    def n_ms(self):
        return len(self.ms_nodes)

    def backhaul_capacities(self, c_macro, c_pico):
        return np.array([c_macro] * self.n_macro
                        + [c_pico] * (self.n_bs - self.n_macro), dtype=float)

    def power_limits_dl(self):
        power = tx_power_w(self.params)
        return np.array([power[node[0]] for node in self.bs_nodes])

    def power_limits_ul(self):
        return np.full(self.n_ms, tx_power_w(self.params)["ms"])


def _cluster_nodes(topology):
    bs = [("macro", CLUSTER_CELL, s) for s in range(3)]
    bs += [("pico", CLUSTER_CELL, j) for j in range(topology.n_pico)]
    ms = [("ms", CLUSTER_CELL, j) for j in range(topology.k_ms)]
    return bs, ms


def build_cluster(topology, params=None, *, direction):
    """Precompute the drop-level large-scale state of one cluster for one
    direction ("uplink" or "downlink").

    The inter-cluster interference model lives here and in
    ``realize_channel`` only.  A downlink cluster gives each MS's noise: its
    thermal floor plus every co-band cell's sector antennas and picos at
    full power.  An uplink cluster tabulates the interference each co-band
    MS would cause at each cluster BS, for ``realize_channel`` to draw the
    active MSs from.  Each evaluates only its own interferer links.
    """
    if direction not in DIRECTIONS:
        raise DomainError(f"unknown direction {direction!r}")
    params = params or cellgeom.PropagationParams()
    bs_nodes, ms_nodes = _cluster_nodes(topology)
    n_bs, n_ms = len(bs_nodes), len(ms_nodes)
    cells = topology.interferer_set

    gain = cellgeom.link_gain_linear(bs_nodes, ms_nodes, topology, params)
    power, floor = tx_power_w(params), noise_floor_w(params)
    thermal_ul = np.array([floor[b[0]] for b in bs_nodes])

    sigma2_dl = ul_interference = None
    if direction == "downlink":
        dl_nodes = [(kind, c, j) for c in cells
                    for kind, n in (("macro", 3), ("pico", topology.n_pico))
                    for j in range(n)]
        dl_rx = np.array([power[n[0]] for n in dl_nodes])[:, None] \
            * cellgeom.link_gain_linear(dl_nodes, ms_nodes, topology, params)
        sigma2_dl = np.full(n_ms, floor["ms"])
        for row in dl_rx:   # one interferer at a time, in a fixed order
            sigma2_dl += row
    else:
        ul_nodes = [("ms", c, j) for c in cells for j in range(topology.k_ms)]
        ul_interference = (power["ms"] * cellgeom.link_gain_linear(
            ul_nodes, bs_nodes, topology, params)).reshape(
                len(cells), topology.k_ms, n_bs)

    return Cluster(params=params, direction=direction,
                   bs_nodes=bs_nodes, ms_nodes=ms_nodes, gain=gain,
                   thermal_ul=thermal_ul, sigma2_dl=sigma2_dl,
                   ul_interference=ul_interference)


def realize_channel(cluster, slot, rng):
    """Draw one slot of i.i.d. Rayleigh fading for the cluster.

    Uplink and downlink fades are independent and both are drawn, uplink
    first, whatever the cluster's direction.  An uplink slot's noise then
    adds the interference of one uniformly chosen active MS per sector of
    each co-band cell; a downlink slot's is the cluster's drop-level noise,
    and it draws nothing more.  Deterministic given the rng state.
    """
    n_bs, n_ms = cluster.n_bs, cluster.n_ms
    fade_ul = (rng.standard_normal((n_bs, n_ms))
               + 1j * rng.standard_normal((n_bs, n_ms))) / np.sqrt(2.0)
    fade_dl = (rng.standard_normal((n_ms, n_bs))
               + 1j * rng.standard_normal((n_ms, n_bs))) / np.sqrt(2.0)
    amp = np.sqrt(cluster.gain)
    h_ul = amp * fade_ul
    h_dl = amp.T * fade_dl

    sigma2_ul = sigma2_dl = None
    if cluster.direction == "downlink":
        sigma2_dl = cluster.sigma2_dl.copy()
    else:
        sigma2_ul = cluster.thermal_ul.copy()
        for ci in range(cluster.ul_interference.shape[0]):
            active = rng.integers(0, n_ms, size=3)
            sigma2_ul += cluster.ul_interference[ci, active].sum(axis=0)

    return ChannelRealization(h_ul=h_ul, h_dl=h_dl,
                              sigma2_z_ul=sigma2_ul, sigma2_z_dl=sigma2_dl,
                              slot_index=int(slot))
