"""What the solvers must not care about.

Uplink: the scale of the weights, and the labels of the BSs or of the MSs
(with their weights and power limits).  Downlink: the labels of the BSs
(with their capacities and power limits) or of the MSs (with their
weights).  Both: one scale on every power limit and noise power.  Downlink
re-check: the BS order along which a chain of backhaul increments is
taken.  Every property runs on fixed random instances.

The tolerances come from measured spreads.  Over 2000 uplink instances of
`ul_instance` (seed 11), in both modes, weight scales from 1e-6 to 1e6 and
BS relabelings left every power, noise power and rate bit-identical, and
scaled objectives differed by at most 4.4e-16 relative.  MS relabelings
left the powers bit-identical and moved noise powers, rates and objectives
by at most 1.8e-14 relative.  Over 8000 chains (2000 instances of
`chain_instance`, seed 5), `feasible_dl` margins lay in [-1.8e-14, 0].
Both tolerances below are about ten times the largest of these spreads.

Over 200 downlink instances of `dl_instance` (seed 81), one BS and one MS
relabeling each moved the point-to-point objective by at most 2.0e-2
relative (median 2e-5) and the multiterminal one by at most 3.2e-2 (median
1e-4); DL_RELABEL_RTOL is about twice these.  Over 100 instances (seed 5)
at three power-of-4 scales, the downlink rates moved by at most 1.8e-15;
DL_SCALE_ATOL is about ten times that.
"""

import numpy as np
import pytest

from cransim import downlink, uplink
from cransim.channel import ChannelRealization
from helpers import (backhaul_mv_dl, cn_samples, rand_channel, rand_psd,
                     solve_multiterminal)

UL_RTOL = 2e-13
MARGIN_TOL = 2e-13
DL_SCALE_ATOL = 2e-14
DL_RELABEL_RTOL = {"point_to_point": 4e-2, "multiterminal": 6.5e-2}
MODES = ("point_to_point", "multiterminal")


def ul_instance(rng):
    """(channel, capacities, weights, power limits): gains over four
    decades and weights over six, as proportional-fair weights span."""
    n_bs, n_ms = int(rng.integers(2, 7)), int(rng.integers(2, 7))
    h = cn_samples(rng, (n_bs, n_ms)) \
        * np.sqrt(10.0 ** rng.uniform(-1.0, 3.0, (n_bs, n_ms)))
    ch = ChannelRealization(h_ul=h, h_dl=h.conj().T.copy(),
                            sigma2_z_ul=rng.uniform(0.5, 2.0, n_bs),
                            sigma2_z_dl=None)
    return (ch, rng.uniform(0.5, 4.0, n_bs), 10.0 ** rng.uniform(-3, 3, n_ms),
            rng.uniform(0.5, 2.0, n_ms))


def assert_close(got, want, rtol):
    np.testing.assert_allclose(got, want, rtol=rtol, atol=0.0)


@pytest.mark.parametrize("mode", MODES)
def test_uplink_design_ignores_the_weight_scale(mode):
    rng = np.random.default_rng(71)
    for _ in range(150):
        ch, c, w, p_max = ul_instance(rng)
        want = uplink.optimize_ul(ch, c, w, mode, p_max)
        # scaling by a power of two is exact, down to the objective
        for s in (2.0 ** -20, 0.25, 2.0 ** 17):
            got = uplink.optimize_ul(ch, c, s * w, mode, p_max)
            for name in ("p", "omega", "order"):
                assert np.array_equal(getattr(got.design, name),
                                      getattr(want.design, name)), (s, name)
            assert np.array_equal(got.rates, want.rates), s
            assert got.objective == s * want.objective, s
        for s in (1e-6, 1e-3, 0.1, 3.0, 1e3, 1e6):
            got = uplink.optimize_ul(ch, c, s * w, mode, p_max)
            assert_close(got.design.p, want.design.p, UL_RTOL)
            assert_close(got.design.omega, want.design.omega, UL_RTOL)
            assert got.design.order == want.design.order, s
            assert_close(got.rates, want.rates, UL_RTOL)
            assert_close(got.objective / s, want.objective, UL_RTOL)


@pytest.mark.parametrize("mode", MODES)
def test_uplink_design_ignores_labels(mode):
    """Relabeled BSs, or MSs with their weights and power limits, give the
    relabeled design.  With no macro antennas the decompression order
    depends on received powers only, not on BS labels."""
    rng = np.random.default_rng(72)
    for _ in range(150):
        ch, c, w, p_max = ul_instance(rng)
        want = uplink.optimize_ul(ch, c, w, mode, p_max, n_macro=0)

        pb = rng.permutation(ch.n_bs)
        got = uplink.optimize_ul(ChannelRealization(
            h_ul=ch.h_ul[pb], h_dl=ch.h_dl[:, pb],
            sigma2_z_ul=ch.sigma2_z_ul[pb], sigma2_z_dl=None),
            c[pb], w, mode, p_max, n_macro=0)
        assert_close(got.design.p, want.design.p, UL_RTOL)
        assert_close(got.design.omega, want.design.omega[pb], UL_RTOL)
        assert tuple(pb[list(got.design.order)]) == want.design.order
        assert_close(got.rates, want.rates, UL_RTOL)

        pm = rng.permutation(ch.n_ms)
        got = uplink.optimize_ul(ChannelRealization(
            h_ul=ch.h_ul[:, pm], h_dl=ch.h_dl[pm],
            sigma2_z_ul=ch.sigma2_z_ul, sigma2_z_dl=None),
            c, w[pm], mode, p_max[pm], n_macro=0)
        assert_close(got.design.p, want.design.p[pm], UL_RTOL)
        assert_close(got.design.omega, want.design.omega, UL_RTOL)
        assert got.design.order == want.design.order
        assert_close(got.rates, want.rates[pm], UL_RTOL)
        assert_close(got.objective, want.objective, UL_RTOL)


def dl_instance(rng):
    """(channel, capacities, power limits, weights) of 2 to 4 BSs and 2 or
    3 MSs at unit scale."""
    n_bs, n_ms = int(rng.integers(2, 5)), int(rng.integers(2, 4))
    return (rand_channel(rng, n_bs, n_ms), rng.uniform(1.0, 4.0, n_bs),
            rng.uniform(0.5, 2.0, n_bs), rng.uniform(0.5, 2.0, n_ms))


def solve_dl(ch, c, p_bs, w, mode):
    """optimize_dl in `mode`; multiterminal refines the point-to-point
    design of the same instance."""
    if mode == "multiterminal":
        return solve_multiterminal(ch, c, p_bs, w)
    return downlink.optimize_dl(ch, c, p_bs, w, mode)


def scaled_noise(ch, s):
    return ChannelRealization(
        h_ul=ch.h_ul, h_dl=ch.h_dl, sigma2_z_ul=s * ch.sigma2_z_ul,
        sigma2_z_dl=None if ch.sigma2_z_dl is None else s * ch.sigma2_z_dl)


def test_downlink_objective_ignores_labels():
    """Relabeled BSs with their capacities and power limits, or MSs with
    their weights, leave the downlink objective within DL_RELABEL_RTOL of
    the original's in both modes.  The solver is not exactly equivariant:
    a relabeling reorders its sums, and the ascent then takes another
    path."""
    rng = np.random.default_rng(77)
    for _ in range(4):
        ch, c, p_bs, w = dl_instance(rng)
        pb, pm = rng.permutation(ch.n_bs), rng.permutation(ch.n_ms)
        relabeled = (
            (ChannelRealization(h_ul=ch.h_ul[pb], h_dl=ch.h_dl[:, pb],
                                sigma2_z_ul=ch.sigma2_z_ul[pb],
                                sigma2_z_dl=ch.sigma2_z_dl),
             c[pb], p_bs[pb], w),
            (ChannelRealization(h_ul=ch.h_ul[:, pm], h_dl=ch.h_dl[pm],
                                sigma2_z_ul=ch.sigma2_z_ul,
                                sigma2_z_dl=ch.sigma2_z_dl[pm]),
             c, p_bs, w[pm]))
        want = [downlink.optimize_dl(ch, c, p_bs, w, "point_to_point")]
        want.append(solve_dl(ch, c, p_bs, w, "multiterminal"))
        for instance in relabeled:
            got = [downlink.optimize_dl(*instance, "point_to_point")]
            got.append(solve_dl(*instance, "multiterminal"))
            for mode, g, r in zip(MODES, got, want):
                assert g.objective == pytest.approx(
                    r.objective, rel=DL_RELABEL_RTOL[mode]), mode


@pytest.mark.parametrize("mode", MODES)
def test_downlink_design_scales_with_power_limits_and_noise(mode,
                                                            monkeypatch):
    """One power-of-4 scale s on every BS power limit and MS noise power
    scales A by sqrt(s) and Omega by s, bit for bit: the solver works on
    the channel normalized by both, so a short solve shows it as well as
    a whole one.  The rates move only in the last bits, since rates_dl
    takes log2 of the powers before normalization."""
    rng = np.random.default_rng(75)
    # a short solve: 2 MM steps of 10 ascent steps per barrier round
    monkeypatch.setattr(downlink, "MM_MAX_ITER", 2)
    monkeypatch.setattr(downlink, "INNER_STEPS", 10)
    for _ in range(8):
        ch, c, p_bs, w = dl_instance(rng)
        want = solve_dl(ch, c, p_bs, w, mode)
        for s in (4.0 ** -3, 4.0 ** 5):
            got = solve_dl(scaled_noise(ch, s), c, s * p_bs, w, mode)
            assert np.array_equal(got.design.a, np.sqrt(s) * want.design.a)
            assert np.array_equal(got.design.omega, s * want.design.omega)
            np.testing.assert_allclose(got.rates, want.rates, rtol=0.0,
                                       atol=DL_SCALE_ATOL)


@pytest.mark.parametrize("mode", MODES)
def test_uplink_design_scales_with_power_limits_and_noise(mode):
    """One power-of-4 scale s on every MS power limit and BS noise power
    scales the powers and noise powers by s and leaves the order and the
    rates bit-identical."""
    rng = np.random.default_rng(76)
    for _ in range(100):
        ch, c, w, p_max = ul_instance(rng)
        want = uplink.optimize_ul(ch, c, w, mode, p_max)
        for s in (4.0 ** -3, 4.0 ** 5):
            got = uplink.optimize_ul(scaled_noise(ch, s), c, w, mode,
                                     s * p_max)
            assert np.array_equal(got.design.p, s * want.design.p)
            assert np.array_equal(got.design.omega, s * want.design.omega)
            assert got.design.order == want.design.order
            assert np.array_equal(got.rates, want.rates)
            assert got.objective == want.objective


def chain_instance(rng):
    """A precoder and a generic correlated Omega over 1 to 6 BSs."""
    n_bs, n_ms = int(rng.integers(1, 7)), int(rng.integers(1, 5))
    a = cn_samples(rng, (n_bs, n_ms), 10.0 ** rng.uniform(-2, 1, (n_bs, 1)))
    return a, rand_psd(rng, n_bs, 10.0 ** rng.uniform(-2, 1))


def test_chain_increments_meet_every_subset_condition():
    """The subset requirements g(S) form a contra-polymatroid: capacities
    equal to g's increments along any BS order meet every subset condition,
    with equality on the order's prefixes, so feasible_dl's margin is 0.
    The requirements come from the one-subset oracle, not the kernel."""
    rng = np.random.default_rng(73)
    for _ in range(300):
        a, omega = chain_instance(rng)
        n_bs = omega.shape[0]
        power = (np.abs(a) ** 2).sum(axis=1) + omega.diagonal().real
        probe = downlink.DownlinkDesign(a=a, omega=omega, c=np.ones(n_bs),
                                        p_bs=power, mode="multiterminal")
        for _ in range(3):
            order = rng.permutation(n_bs)
            g = [backhaul_mv_dl(probe, order[:j]) for j in range(1, n_bs + 1)]
            c = np.empty(n_bs)
            c[order] = np.diff(g, prepend=0.0)
            report = downlink.feasible_dl(downlink.DownlinkDesign(
                a=a, omega=omega, c=c, p_bs=2.0 * power,
                mode="multiterminal"))
            assert report.feasible
            assert abs(report.margin) <= MARGIN_TOL, (order, report)
