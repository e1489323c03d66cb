import numpy as np
import pytest

from cransim import cellgeom
from cransim.errors import ConfigurationError, DomainError


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
    rng = np.random.default_rng(11)
    macro = cellgeom.shadowing_db("macro", rng, size=10 ** 6)
    pico = cellgeom.shadowing_db("pico", rng, size=10 ** 6)
    assert np.std(macro) == pytest.approx(10.0, abs=0.1)
    assert np.std(pico) == pytest.approx(6.0, abs=0.1)
    assert abs(np.mean(macro)) < 0.05


def test_shadowing_deterministic_and_classes():
    a = cellgeom.shadowing_db("macro", np.random.default_rng(3), size=10)
    b = cellgeom.shadowing_db("macro", np.random.default_rng(3), size=10)
    assert np.array_equal(a, b)
    with pytest.raises(DomainError):
        cellgeom.shadowing_db("femto", np.random.default_rng(0))


def test_build_layout_deterministic_counts():
    t1 = cellgeom.build_layout(7, 2, 1)
    t2 = cellgeom.build_layout(7, 2, 1)
    assert t1.ms_positions.shape == (19, 2, 2)
    assert t1.pico_positions.shape == (19, 1, 2)
    assert np.array_equal(t1.ms_positions, t2.ms_positions)
    assert np.array_equal(t1.pico_positions, t2.pico_positions)


def test_build_layout_positions_inside_cells():
    topo = cellgeom.build_layout(7, 5, 20)
    for c in range(19):
        center = topo.macro_sites[c]
        assert np.all(cellgeom.hexagon_contains(
            center, topo.cell_radius, topo.pico_positions[c]))
        assert np.all(cellgeom.hexagon_contains(
            center, topo.cell_radius, topo.ms_positions[c]))
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
    bad = cellgeom.PropagationParams()
    bad.inter_site_distance_m = 0.0
    with pytest.raises(ConfigurationError):
        cellgeom.build_layout(1, 1, 1, bad)


def test_ring_geometry():
    topo = cellgeom.build_layout(0, 1, 0)
    d = topo.inter_site_distance
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
    own = topo.reuse_band[1]
    sharing = [cid for cid in range(2, 20) if topo.reuse_band[cid] == own]
    assert sharing == [8, 10, 12, 14, 16, 18]
    assert set(topo.reuse_band.values()) == {"B1", "B2", "B3"}

    full = cellgeom.build_layout(0, 1, 0, reuse="F1")
    assert full.interferer_set == tuple(range(2, 20))


def test_sector_boresights_spacing():
    topo = cellgeom.build_layout(0, 1, 0)
    for c in range(19):
        b = np.sort(topo.sector_boresights[c])
        assert np.allclose(np.diff(b), 120.0)


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
        sector_boresights=base.sector_boresights.copy(),
        pico_positions=base.pico_positions.copy(),
        ms_positions=base.ms_positions.copy(),
        inter_site_distance=base.inter_site_distance,
        reuse_band=base.reuse_band, interferer_set=base.interferer_set,
        reuse=base.reuse, seed=base.seed)
    topo.ms_positions[0, 0] = ms_xy
    topo.pico_positions[0, 0] = pico_xy
    return topo


def _gain_db_without_shadowing(topo, tx, rx):
    g = cellgeom.link_gain_linear([tx], [rx], topo)
    assert g.shape == (1, 1)
    return 10 * np.log10(g[0, 0]) - cellgeom.link_shadowing_db(topo, tx, rx)


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
    d1 = cellgeom.link_shadowing_db(topo, ("macro", 1, 1), ("ms", 1, 0))
    d2 = cellgeom.link_shadowing_db(topo, ("ms", 1, 0), ("macro", 1, 1))
    assert d1 == d2
    d3 = cellgeom.link_shadowing_db(topo, ("macro", 1, 2), ("ms", 1, 0))
    assert d1 != d3


def test_link_gain_coincident_positions():
    topo = _toy_topology(ms_xy=(200.0, 0.0), pico_xy=(200.0, 0.0))
    with pytest.raises(DomainError):
        cellgeom.link_gain_linear([("pico", 1, 0)], [("ms", 1, 0)], topo)


def test_propagation_params_validation():
    with pytest.raises(ConfigurationError):
        cellgeom.PropagationParams(theta_3db_deg=0.0)
    with pytest.raises(ConfigurationError):
        cellgeom.PropagationParams(shadow_std_macro_db=np.inf)
