import dataclasses

import numpy as np
import pytest

from cransim import cellgeom
from cransim.errors import ConfigurationError, DomainError
from helpers import layout_oracle


def test_pathloss_macro_reference_points():
    assert cellgeom.pathloss_macro_db(1.0) == pytest.approx(128.1, abs=1e-12)
    assert cellgeom.pathloss_macro_db(0.1) == pytest.approx(90.5, abs=1e-9)
    assert cellgeom.pathloss_macro_db(10.0) == pytest.approx(165.7, abs=1e-9)


def test_pathloss_pico_reference_points():
    assert cellgeom.pathloss_pico_db(1.0) == pytest.approx(38.0, abs=1e-12)
    assert cellgeom.pathloss_pico_db(10.0) == pytest.approx(68.0, abs=1e-9)
    assert cellgeom.pathloss_pico_db(100.0) == pytest.approx(98.0, abs=1e-9)


def test_pathloss_domain_errors():
    with pytest.raises(DomainError):
        cellgeom.pathloss_macro_db(0.0)
    with pytest.raises(DomainError):
        cellgeom.pathloss_pico_db(-1.0)


def test_pathloss_strictly_increasing():
    d = np.linspace(0.01, 20.0, 200)
    assert np.all(np.diff(cellgeom.pathloss_macro_db(d)) > 0)
    assert np.all(np.diff(cellgeom.pathloss_pico_db(d * 1000)) > 0)


def test_sector_gain_reference_points():
    assert cellgeom.sector_gain_db(0.0) == pytest.approx(0.0, abs=1e-12)
    assert cellgeom.sector_gain_db(65.0) == pytest.approx(-12.0, abs=1e-12)
    assert cellgeom.sector_gain_db(180.0) == pytest.approx(-20.0, abs=1e-12)


def test_sector_gain_even_monotone_bounded():
    theta = np.linspace(0.0, 180.0, 361)
    g = cellgeom.sector_gain_db(theta)
    assert np.allclose(g, cellgeom.sector_gain_db(-theta))
    assert np.all(np.diff(g) <= 1e-12)
    assert np.all(g <= 0.0) and np.all(g >= -20.0)
    # total on un-normalized inputs via wrapping
    assert cellgeom.sector_gain_db(360.0) == pytest.approx(0.0, abs=1e-9)


def test_shadowing_sample_stddev():
    # 57 macro sectors and 57 picos, each linked to 1900 MSs
    topo = cellgeom.build_layout(11, 100, 3)
    cells = range(1, 20)
    ms = [("ms", c, j) for c in cells for j in range(100)]
    macro = cellgeom.link_shadowing_db(
        topo, [("macro", c, s) for c in cells for s in range(3)], ms)
    pico = cellgeom.link_shadowing_db(
        topo, [("pico", c, j) for c in cells for j in range(3)], ms)
    # 108300 draws per class: the standard error of the sample stddev is
    # 0.02 dB (macro) and 0.013 dB (pico), of the macro mean 0.03 dB
    assert np.std(macro) == pytest.approx(10.0, abs=0.1)
    assert np.std(pico) == pytest.approx(6.0, abs=0.1)
    assert abs(np.mean(macro)) < 0.15


def test_shadowing_deterministic_and_classes():
    topo = cellgeom.build_layout(3, 2, 1)
    tx = [("macro", 1, 0), ("pico", 1, 0), ("ms", 2, 1)]
    rx = [("ms", 1, 0), ("ms", 1, 1)]
    a = cellgeom.link_shadowing_db(topo, tx, rx)
    assert a.shape == (3, 2)
    assert np.array_equal(a, cellgeom.link_shadowing_db(topo, tx, rx))
    # a link is in the macro class if either end is a macro sector
    no_macro = cellgeom.PropagationParams(shadow_std_macro_db=0.0)
    b = cellgeom.link_shadowing_db(topo, tx, rx, no_macro)
    assert np.all(b[0] == 0.0) and np.array_equal(b[1:], a[1:])
    flipped = cellgeom.link_shadowing_db(topo, rx, tx, no_macro)
    assert np.all(flipped[:, 0] == 0.0)
    with pytest.raises(DomainError):
        cellgeom.link_shadowing_db(topo, [("femto", 1, 0)], rx)


def test_shadowing_stream_golden_values():
    """The shadowing stream itself, pinned: a numpy release that changed
    SeedSequence, PCG64 or ``Generator.normal`` would move every result.
    Each value is integer hashing, one PCG64 output and IEEE products (the
    ziggurat's fast path), so it does not depend on the CPU or libm."""
    topo = cellgeom.build_layout(2 ** 40 + 9, 5, 3)
    tx = [("macro", 1, 0), ("macro", 12, 2), ("pico", 1, 2), ("pico", 19, 0)]
    rx = [("ms", 1, 1), ("ms", 1, 4), ("ms", 8, 3), ("ms", 17, 1)]
    golden = [
        # macro class, std 10 dB
        ["0x1.0290bfa751aecp+4", "-0x1.857e4b6313f1cp-2",
         "-0x1.235320eefa94dp+2", "-0x1.cdcb72805b800p+0"],
        ["-0x1.5db6648bda460p+3", "0x1.561e3919cb513p+1",
         "-0x1.20f4534a572a1p+4", "0x1.75cfcc0967233p+2"],
        # pico class, std 6 dB
        ["0x1.c0c6bdd75af00p+0", "-0x1.41acc44a3be24p+2",
         "0x1.5fd95ff7dc4bfp+2", "0x1.5f599761b311cp+3"],
        ["-0x1.b659c865fd186p+3", "-0x1.7f1fecace0caap-3",
         "-0x1.05509206b3d54p-1", "-0x1.1477449c1f4bfp+3"],
    ]
    got = cellgeom.link_shadowing_db(topo, tx, rx)
    assert [[v.hex() for v in row] for row in got.tolist()] == golden


def test_node_codes_distinct_and_32_bit():
    assert cellgeom._node_code(("ms", 1, 9999)) \
        != cellgeom._node_code(("ms", 2, 0))
    assert cellgeom._node_code(("ms", 19, 9999)) < 2 ** 32
    # ("ms", 1, 10000) would share ("ms", 2, 0)'s code, and its draw
    for node in (("ms", 1, 10000), ("pico", 1, -1), ("macro", 0, 0),
                 ("macro", 20, 0)):
        with pytest.raises(DomainError):
            cellgeom._node_code(node)


def test_node_position_rejects_cells_outside_the_grid():
    # cell 0 would wrap to cell 19's row, and cell 20 index past the grid
    topo = cellgeom.build_layout(7, 2, 1)
    for node in (("macro", 0, 0), ("macro", 20, 0), ("pico", 0, 0),
                 ("pico", 20, 0), ("ms", 0, 1), ("ms", 20, 1)):
        with pytest.raises(DomainError):
            cellgeom.node_position(topo, node)
    with pytest.raises(DomainError):
        cellgeom.link_gain_linear([("pico", 20, 0)], [("ms", 1, 0)], topo)


def test_build_layout_deterministic_counts():
    t1 = cellgeom.build_layout(7, 2, 1)
    t2 = cellgeom.build_layout(7, 2, 1)
    assert t1.ms_positions.shape == (19, 2, 2)
    assert t1.pico_positions.shape == (19, 1, 2)
    assert np.array_equal(t1.ms_positions, t2.ms_positions)
    assert np.array_equal(t1.pico_positions, t2.pico_positions)


@pytest.mark.parametrize("k_ms,n_pico,reuse", [
    (1, 0, "F1_3"), (5, 3, "F1_3"), (5, 5, "F1_3"), (5, 10, "F1_3"),
    (5, 20, "F1_3"), (4, 1, "F1_3"), (2, 1, "F1")])
def test_build_layout_matches_one_node_sampler(k_ms, n_pico, reuse):
    params = cellgeom.PropagationParams()
    for seed in [*range(30), 2 ** 40 + 9, 2 ** 64 - 1]:
        topo = cellgeom.build_layout(seed, k_ms, n_pico, params, reuse)
        picos, ms = layout_oracle(seed, k_ms, n_pico, params,
                                  topo.macro_sites)
        assert np.array_equal(topo.pico_positions, picos), seed
        assert np.array_equal(topo.ms_positions, ms), seed


def test_build_layout_matches_one_node_sampler_under_rejections():
    for macro_m, pico_m, seeds in (
            # a tenth to a half of the candidates rejected, so that picks
            # are rejected after the batch test and the scan is repeated
            (150.0, 60.0, range(10)),
            # about nine in ten rejected: long runs of rejected candidates,
            # each cell rescanned many times
            (250.0, 1.0, range(3))):
        params = cellgeom.PropagationParams(min_dist_macro_m=macro_m,
                                            min_dist_pico_m=pico_m)
        for seed in seeds:
            topo = cellgeom.build_layout(seed, 4, 8, params)
            picos, ms = layout_oracle(seed, 4, 8, params, topo.macro_sites)
            assert np.array_equal(topo.pico_positions, picos), seed
            assert np.array_equal(topo.ms_positions, ms), seed


@pytest.mark.parametrize("macro_m,tries,seeds", [
    # about nine in ten candidates rejected: about half of the seeds hold a
    # node that runs out of tries while its cell is scanned
    (250.0, 80, range(24)),
    # few rejections: five candidates in a row outside the hexagon end a
    # node's tries within the all-cell guess
    (10.0, 5, range(16))])
def test_build_layout_matches_one_node_sampler_at_the_try_limit(
        monkeypatch, macro_m, tries, seeds):
    monkeypatch.setattr(cellgeom, "_MAX_DROP_TRIES", tries)
    params = cellgeom.PropagationParams(min_dist_macro_m=macro_m)
    sites = cellgeom.build_layout(0, 1, 0).macro_sites
    outcomes = set()
    for seed in seeds:
        try:
            topo = cellgeom.build_layout(seed, 4, 8, params)
        except ConfigurationError:
            topo = None
        try:
            picos, ms = layout_oracle(seed, 4, 8, params, sites, tries)
        except ConfigurationError:
            assert topo is None, seed
        else:
            assert topo is not None, seed
            assert np.array_equal(topo.pico_positions, picos), seed
            assert np.array_equal(topo.ms_positions, ms), seed
        outcomes.add(topo is None)
    assert outcomes == {False, True}


def test_build_layout_unplaceable_node():
    # no point of a cell lies 300 m from its own site
    params = cellgeom.PropagationParams(min_dist_macro_m=300.0)
    with pytest.raises(ConfigurationError, match="could not place"):
        cellgeom.build_layout(1, 1, 0, params)
    # a second pico cannot keep 600 m from the first
    params = cellgeom.PropagationParams(min_dist_pico_m=600.0)
    with pytest.raises(ConfigurationError, match="could not place"):
        cellgeom.build_layout(1, 1, 2, params)


def test_build_layout_positions_inside_cells():
    params = cellgeom.PropagationParams()
    topo = cellgeom.build_layout(7, 5, 20, params)
    radius = params.inter_site_distance_m / np.sqrt(3.0)
    for c in range(19):
        center = topo.macro_sites[c]
        assert np.all(cellgeom.hexagon_contains(
            center, radius, topo.pico_positions[c]))
        assert np.all(cellgeom.hexagon_contains(
            center, radius, topo.ms_positions[c]))
    assert topo.pico_positions[0].shape == (20, 2)


def test_build_layout_degenerate_no_picos():
    topo = cellgeom.build_layout(123, 1, 0)
    assert topo.pico_positions.shape == (19, 0, 2)
    assert topo.ms_positions.shape == (19, 1, 2)


def test_build_layout_validation():
    with pytest.raises(ConfigurationError):
        cellgeom.build_layout(1, 0, 1)
    with pytest.raises(ConfigurationError):
        cellgeom.build_layout(1, 1, -1)
    # params are checked once, when built, and cannot be changed after
    params = cellgeom.PropagationParams()
    for distance in (0.0, np.nan, np.inf):
        with pytest.raises(ConfigurationError,
                           match="inter_site_distance_m"):
            cellgeom.PropagationParams(inter_site_distance_m=distance)
        with pytest.raises(dataclasses.FrozenInstanceError):
            params.inter_site_distance_m = distance
    assert params == cellgeom.PropagationParams()


def test_ring_geometry():
    topo = cellgeom.build_layout(0, 1, 0)
    d = cellgeom.PropagationParams().inter_site_distance_m
    radii = np.linalg.norm(topo.macro_sites, axis=1)
    assert radii[0] == pytest.approx(0.0, abs=1e-9)
    assert np.allclose(radii[1:7], d)
    outer = sorted(radii[7:])
    assert np.allclose(outer[:6], np.sqrt(3.0) * d)
    assert np.allclose(outer[6:], 2.0 * d)
    # corner cells of the outer ring carry the even ids 8..18
    corner_ids = [cid for cid in range(8, 20)
                  if np.isclose(radii[cid - 1], np.sqrt(3.0) * d)]
    assert corner_ids == [8, 10, 12, 14, 16, 18]


def test_reuse_band_and_interferers():
    topo = cellgeom.build_layout(0, 1, 0, reuse="F1_3")
    assert topo.interferer_set == (8, 10, 12, 14, 16, 18)

    full = cellgeom.build_layout(0, 1, 0, reuse="F1")
    assert full.interferer_set == tuple(range(2, 20))


def test_sector_boresights_spacing():
    b = np.sort(cellgeom.SECTOR_BORESIGHTS_DEG)
    assert np.allclose(np.diff(b), 120.0)


def test_topology_counts_follow_positions():
    topo = cellgeom.build_layout(0, 2, 3)
    assert (topo.k_ms, topo.n_pico) == (2, 3)
    # the counts are read from the positions, not stored beside them
    with pytest.raises(TypeError):
        dataclasses.replace(topo, k_ms=7)


def test_hexagon_contains_keeps_the_points_shape():
    center = np.zeros(2)
    assert cellgeom.hexagon_contains(center, 1.0, np.zeros(2)) is True
    assert cellgeom.hexagon_contains(center, 1.0, [0.0, 5.0]) is False
    one = cellgeom.hexagon_contains(center, 1.0, np.zeros((1, 2)))
    assert one.shape == (1,) and one.tolist() == [True]
    assert cellgeom.hexagon_contains(
        center, 1.0, np.zeros((3, 1, 2))).shape == (3, 1)


def test_min_drop_distances():
    topo = cellgeom.build_layout(5, 5, 3)
    sites = topo.macro_sites
    picos = topo.pico_positions.reshape(-1, 2)
    for p in picos:
        assert np.min(np.linalg.norm(sites - p, axis=1)) >= 10.0
    for m in topo.ms_positions.reshape(-1, 2):
        assert np.min(np.linalg.norm(sites - m, axis=1)) >= 10.0
        if picos.size:
            assert np.min(np.linalg.norm(picos - m, axis=1)) >= 1.0


def _toy_topology(ms_xy, pico_xy=(200.0, 0.0)):
    """Hand-placed single-relevant-cell topology for link-budget checks."""
    base = cellgeom.build_layout(1, 1, 1)
    topo = cellgeom.Topology(
        macro_sites=base.macro_sites.copy(),
        pico_positions=base.pico_positions.copy(),
        ms_positions=base.ms_positions.copy(),
        interferer_set=base.interferer_set, seed=base.seed)
    topo.ms_positions[0, 0] = ms_xy
    topo.pico_positions[0, 0] = pico_xy
    return topo


def _gain_db_without_shadowing(topo, tx, rx):
    g = cellgeom.link_gain_linear([tx], [rx], topo)
    assert g.shape == (1, 1)
    return 10 * np.log10(g[0, 0]) \
        - cellgeom.link_shadowing_db(topo, [tx], [rx])[0, 0]


def test_link_gain_macro_boresight_reference():
    # MS 1 km from the site, dead on sector 0's boresight (30 degrees)
    ms_xy = 1000.0 * np.array([np.cos(np.radians(30.0)),
                               np.sin(np.radians(30.0))])
    topo = _toy_topology(ms_xy)
    g_db = _gain_db_without_shadowing(topo, ("macro", 1, 0), ("ms", 1, 0))
    assert g_db == pytest.approx(15.0 - 128.1, abs=1e-9)


def test_link_gain_pico_reference():
    topo = _toy_topology(ms_xy=(210.0, 0.0), pico_xy=(200.0, 0.0))
    g_db = _gain_db_without_shadowing(topo, ("pico", 1, 0), ("ms", 1, 0))
    assert g_db == pytest.approx(-68.0, abs=1e-9)


def test_derived_shadowing_is_symmetric_and_per_link():
    topo = _toy_topology(ms_xy=(400.0, 120.0))
    ms, macros = [("ms", 1, 0)], [("macro", 1, 1), ("macro", 1, 2)]
    d = cellgeom.link_shadowing_db(topo, macros, ms)
    assert np.array_equal(d.T, cellgeom.link_shadowing_db(topo, ms, macros))
    assert d[0, 0] != d[1, 0]
    # a link's draw does not depend on the rest of the link set
    assert d[0, 0] == cellgeom.link_shadowing_db(topo, macros[:1], ms)[0, 0]


def test_link_gain_coincident_positions():
    topo = _toy_topology(ms_xy=(200.0, 0.0), pico_xy=(200.0, 0.0))
    with pytest.raises(DomainError):
        cellgeom.link_gain_linear([("pico", 1, 0)], [("ms", 1, 0)], topo)


def test_propagation_params_validation():
    with pytest.raises(ConfigurationError):
        cellgeom.PropagationParams(theta_3db_deg=0.0)
    with pytest.raises(ConfigurationError):
        cellgeom.PropagationParams(shadow_std_macro_db=np.inf)
    with pytest.raises(ConfigurationError):
        cellgeom.PropagationParams(shadow_std_pico_db=-1.0)
    # a NaN distance rule would be silently off, and a bad inter-site
    # distance is refused here, before any drop is built
    for name, value in (
            ("inter_site_distance_m", np.nan),
            ("inter_site_distance_m", np.inf),
            ("inter_site_distance_m", -5.0), ("min_dist_macro_m", np.nan),
            ("min_dist_pico_m", np.nan), ("tx_ms_dbm", -np.inf),
            ("nf_pico_db", np.nan), ("macro_pathloss", (128.1, np.nan)),
            ("pico_pathloss", (np.inf, 30.0))):
        with pytest.raises(ConfigurationError, match=name):
            cellgeom.PropagationParams(**{name: value})
