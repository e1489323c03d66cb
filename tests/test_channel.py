from dataclasses import replace

import numpy as np
import pytest

from cransim import cellgeom, channel
from cransim.errors import DomainError
from cransim.units import dbm_to_watts
from helpers import link_gain_oracle, link_shadowing_oracle


DIRECTIONS = channel.DIRECTIONS


@pytest.fixture(scope="module")
def small_drop():
    """A small drop and its uplink cluster."""
    params = cellgeom.PropagationParams()
    topo = cellgeom.build_layout(21, 3, 1, params)
    return topo, params, channel.build_cluster(topo, params,
                                               direction="uplink")


@pytest.fixture(scope="module")
def small_drop_dl(small_drop):
    """The same drop and its downlink cluster."""
    topo, params, _ = small_drop
    return topo, params, channel.build_cluster(topo, params,
                                               direction="downlink")


def test_realization_determinism(small_drop):
    topo, params, cluster = small_drop
    c1 = channel.realize_channel(cluster, 4, np.random.default_rng(99))
    c2 = channel.realize_channel(cluster, 4, np.random.default_rng(99))
    assert np.array_equal(c1.h_ul, c2.h_ul)
    assert np.array_equal(c1.h_dl, c2.h_dl)
    assert np.array_equal(c1.sigma2_z_ul, c2.sigma2_z_ul)


def test_slots_share_large_scale_but_not_fades(small_drop_dl):
    topo, params, cluster = small_drop_dl
    c1 = channel.realize_channel(cluster, 0, np.random.default_rng(0))
    c2 = channel.realize_channel(cluster, 1, np.random.default_rng(1))
    assert not np.allclose(c1.h_ul, c2.h_ul)
    assert np.array_equal(c1.sigma2_z_dl, c2.sigma2_z_dl)  # drop-level quantity


def test_fade_power_averages_to_link_gain(small_drop):
    topo, params, cluster = small_drop
    n_slots = 8000
    acc = np.zeros_like(cluster.gain)
    for t in range(n_slots):
        c = channel.realize_channel(cluster, t, np.random.default_rng(1000 + t))
        acc += np.abs(c.h_ul) ** 2
    mean_gain = acc / n_slots
    rel = mean_gain / cluster.gain - 1.0
    assert np.all(np.abs(rel) < 0.06)
    assert abs(np.mean(rel)) < 0.02


def test_thermal_floors_without_interference(small_drop):
    topo, params, _ = small_drop
    quiet = {d: channel.build_cluster(replace(topo, interferer_set=()),
                                      params, direction=d)
             for d in DIRECTIONS}
    assert np.allclose(quiet["uplink"].thermal_ul,
                       dbm_to_watts([-99.0] * 3 + [-98.0]),
                       rtol=1e-9, atol=0.0)
    assert np.allclose(quiet["downlink"].sigma2_dl, dbm_to_watts(-95.0),
                       rtol=1e-9, atol=0.0)
    c = channel.realize_channel(quiet["uplink"], 0, np.random.default_rng(3))
    assert np.array_equal(c.sigma2_z_ul, quiet["uplink"].thermal_ul)


def test_downlink_interference_accumulates_coband_cells(small_drop_dl):
    topo, params, cluster = small_drop_dl
    node = ("ms", 1, 1)
    expected = channel.thermal_noise_w(params.nf_ms_db, params.bandwidth_hz)
    p_macro = dbm_to_watts(params.tx_macro_dbm)
    p_pico = dbm_to_watts(params.tx_pico_dbm)
    for c in (8, 10, 12, 14, 16, 18):
        for s in range(3):
            expected += p_macro * link_gain_oracle(
                ("macro", c, s), node, topo, params)
        for j in range(topo.n_pico):
            expected += p_pico * link_gain_oracle(
                ("pico", c, j), node, topo, params)
    assert cluster.sigma2_dl[1] == pytest.approx(expected, rel=1e-12)


@pytest.mark.parametrize("n_pico", [0, 3, 20])
def test_cluster_shadowing_matches_per_link_oracle(n_pico, monkeypatch):
    """Every link build_cluster draws shadowing for gets the value of its
    own SeedSequence and Generator, also for drop seeds of 2^32 and above,
    which enter the seed sequence modulo 2^32.  Each direction draws two
    link sets: the cluster's own links, then its interferers' links."""
    params = cellgeom.PropagationParams()
    link_sets = []
    batched = cellgeom.link_shadowing_db

    def record(topology, tx_nodes, rx_nodes, params=None):
        shadow = batched(topology, tx_nodes, rx_nodes, params)
        link_sets.append((tx_nodes, rx_nodes, shadow))
        return shadow

    monkeypatch.setattr(cellgeom, "link_shadowing_db", record)
    interferers = {"uplink": {"ms"},
                   "downlink": {"macro", "pico"} if n_pico else {"macro"}}
    for seed in (17 + n_pico, 2 ** 32 + 17 + n_pico, 2 ** 64 - 1 - n_pico):
        topo = cellgeom.build_layout(seed, 5, n_pico, params)
        for direction in DIRECTIONS:
            link_sets.clear()
            cluster = channel.build_cluster(topo, params, direction=direction)
            assert len(link_sets) == 2
            assert link_sets[0][:2] == (cluster.bs_nodes, cluster.ms_nodes)
            assert {n[0] for n in link_sets[1][0]} == interferers[direction]
            for tx_nodes, rx_nodes, shadow in link_sets:
                expected = [[link_shadowing_oracle(topo, t, r, params)
                             for r in rx_nodes] for t in tx_nodes]
                assert np.array_equal(shadow,
                                      np.reshape(expected, shadow.shape))


def test_seed_state_words_match_seed_sequence():
    rng = np.random.default_rng(5)
    for width in (1, 3, 4):
        entropy = rng.integers(0, 2 ** 32, size=(300, width),
                               dtype=np.uint64)
        entropy[:10] = 0
        entropy[10:20] = 2 ** 32 - 1
        words = cellgeom._seed_state_words(entropy.astype(np.uint32))
        expected = [np.random.SeedSequence([int(e) for e in row])
                    .generate_state(4, np.uint64) for row in entropy]
        assert np.array_equal(words, expected)


@pytest.mark.parametrize("n_pico, k_ms, reuse", [
    (0, 3, "F1_3"), (2, 1, "F1_3"), (20, 2, "F1_3"), (2, 3, "F1")])
def test_cluster_gains_match_scalar_oracle_bitwise(n_pico, k_ms, reuse):
    """In each direction, the array link gains and the interference sums
    built from them are bit-for-bit those of the per-link scalar formula,
    summed from the thermal floor one interferer at a time; the other
    direction's interference is not built."""
    params = cellgeom.PropagationParams()
    topo = cellgeom.build_layout(40 + n_pico, k_ms, n_pico, params,
                                 reuse=reuse)
    up = channel.build_cluster(topo, params, direction="uplink")
    down = channel.build_cluster(topo, params, direction="downlink")
    gain = np.array([[link_gain_oracle(b, m, topo, params)
                      for m in up.ms_nodes] for b in up.bs_nodes])
    assert np.array_equal(up.gain, gain)
    assert np.array_equal(down.gain, gain)
    assert up.sigma2_dl is None and down.ul_interference is None

    p_macro = dbm_to_watts(params.tx_macro_dbm)
    p_pico = dbm_to_watts(params.tx_pico_dbm)
    sigma2_dl = []
    for m in down.ms_nodes:
        total = channel.thermal_noise_w(params.nf_ms_db, params.bandwidth_hz)
        for c in topo.interferer_set:
            for s in range(3):
                total += p_macro * link_gain_oracle(("macro", c, s), m, topo,
                                                    params)
            for j in range(n_pico):
                total += p_pico * link_gain_oracle(("pico", c, j), m, topo,
                                                   params)
        sigma2_dl.append(total)
    assert np.array_equal(down.sigma2_dl, sigma2_dl)

    p_ms = dbm_to_watts(params.tx_ms_dbm)
    ul = [[[p_ms * link_gain_oracle(("ms", c, j), b, topo, params)
            for b in up.bs_nodes] for j in range(k_ms)]
          for c in topo.interferer_set]
    assert np.array_equal(up.ul_interference, ul)


def test_directions_draw_the_same_fades(small_drop, small_drop_dl):
    """Both directions draw every fade in one order, uplink first, so a
    slot's channels do not depend on the direction; only the uplink then
    draws its active interferers, and each slot carries its direction's
    noise alone."""
    topo, _, up = small_drop
    _, _, down = small_drop_dl
    rng_up, rng_down = np.random.default_rng(8), np.random.default_rng(8)
    c_up = channel.realize_channel(up, 2, rng_up)
    c_down = channel.realize_channel(down, 2, rng_down)
    assert np.array_equal(c_up.h_ul, c_down.h_ul)
    assert np.array_equal(c_up.h_dl, c_down.h_dl)
    assert c_up.sigma2_z_dl is None and c_down.sigma2_z_ul is None
    assert np.array_equal(c_down.sigma2_z_dl, down.sigma2_dl)
    # the uplink drew one active MS per sector of each co-band cell more
    for _ in topo.interferer_set:
        rng_down.integers(0, topo.k_ms, size=3)
    assert rng_up.bit_generator.state == rng_down.bit_generator.state


def test_build_cluster_rejects_unknown_direction(small_drop):
    topo, params, _ = small_drop
    with pytest.raises(DomainError):
        channel.build_cluster(topo, params, direction="sidelink")


def _mean_ul_interference(cluster):
    """Expected uplink interference per BS: three active MSs per co-band
    cell, each uniformly chosen among the cell's MSs."""
    return 3.0 * cluster.ul_interference.mean(axis=1).sum(axis=0)


def test_noise_f1_never_below_f13():
    params = cellgeom.PropagationParams()
    c13, c1 = ({d: channel.build_cluster(
        cellgeom.build_layout(33, 2, 1, params, reuse=reuse), params,
        direction=d) for d in DIRECTIONS} for reuse in ("F1_3", "F1"))
    assert np.all(c1["downlink"].sigma2_dl >= c13["downlink"].sigma2_dl)
    assert np.all(_mean_ul_interference(c1["uplink"])
                  >= _mean_ul_interference(c13["uplink"]))


def test_realized_noise_at_least_thermal(small_drop, small_drop_dl):
    topo, params, cluster = small_drop
    c = channel.realize_channel(cluster, 0, np.random.default_rng(5))
    assert np.all(c.sigma2_z_ul >= cluster.thermal_ul)
    c = channel.realize_channel(small_drop_dl[2], 0, np.random.default_rng(5))
    floor_ms = channel.thermal_noise_w(params.nf_ms_db, params.bandwidth_hz)
    assert np.all(c.sigma2_z_dl >= floor_ms)


def test_uplink_activity_model(small_drop):
    topo, params, cluster = small_drop
    p_ms = dbm_to_watts(params.tx_ms_dbm)
    assert cluster.ul_interference[0, 2, 0] == pytest.approx(
        p_ms * link_gain_oracle(
            ("ms", topo.interferer_set[0], 2), ("macro", 1, 0), topo, params),
        rel=1e-12)
    lo = cluster.thermal_ul + 3.0 * cluster.ul_interference.min(axis=1).sum(axis=0)
    hi = cluster.thermal_ul + 3.0 * cluster.ul_interference.max(axis=1).sum(axis=0)
    n_slots = 4000
    acc = np.zeros(cluster.n_bs)
    for t in range(n_slots):
        noise = channel.realize_channel(
            cluster, t, np.random.default_rng(5000 + t)).sigma2_z_ul
        assert np.all(noise >= lo * (1 - 1e-12))
        assert np.all(noise <= hi * (1 + 1e-12))
        acc += noise
    expected = cluster.thermal_ul + _mean_ul_interference(cluster)
    assert np.allclose(acc / n_slots, expected, rtol=0.05, atol=0.0)


def test_realization_validation():
    with pytest.raises(DomainError):
        channel.ChannelRealization(
            h_ul=np.zeros((2, 3), dtype=complex),
            h_dl=np.zeros((2, 3), dtype=complex),
            sigma2_z_ul=np.ones(2), sigma2_z_dl=np.ones(3))
    with pytest.raises(DomainError):
        channel.ChannelRealization(
            h_ul=np.zeros((2, 3), dtype=complex),
            h_dl=np.zeros((3, 2), dtype=complex),
            sigma2_z_ul=np.zeros(2), sigma2_z_dl=np.ones(3))


def test_realization_refuses_non_finite_noise():
    """A NaN fails the bare ``noise <= 0`` test, so it is named here."""
    h = np.zeros((2, 2), dtype=complex)
    for bad in (np.nan, np.inf, -np.inf):
        for ul, dl in ((np.array([bad, 1.0]), np.ones(2)),
                       (np.ones(2), np.array([1.0, bad]))):
            with pytest.raises(DomainError, match="must be finite and > 0"):
                channel.ChannelRealization(h, h, ul, dl)
    # the noise of the direction not drawn may be None
    channel.ChannelRealization(h, h, np.ones(2), None)


def test_cluster_capacity_and_power_vectors(small_drop):
    topo, params, cluster = small_drop
    c = cluster.backhaul_capacities(3.0, 1.0)
    assert np.array_equal(c, [3.0, 3.0, 3.0, 1.0])
    p = cluster.power_limits_dl()
    assert p[0] == pytest.approx(dbm_to_watts(46.0))
    assert p[3] == pytest.approx(dbm_to_watts(24.0))
    assert np.allclose(cluster.power_limits_ul(), dbm_to_watts(23.0))
