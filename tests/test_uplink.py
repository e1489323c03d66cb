import numpy as np
import pytest

from cransim import uplink
from cransim.channel import ChannelRealization
from cransim.errors import DomainError, NumericalDomainError
from cransim.mmopt import FEASIBILITY_TOL, LN2
from helpers import (cn_samples, mi_from_samples, rand_channel,
                     ul_objective_oracle, ul_omega_prefix_oracle,
                     ul_rates_oracle, ul_slopes_oracle)


def unit_channel(h, sigma2_ul):
    h = np.atleast_2d(np.asarray(h, dtype=complex))
    n_bs, n_ms = h.shape
    return ChannelRealization(
        h_ul=h, h_dl=h.conj().T.copy(),
        sigma2_z_ul=np.asarray(sigma2_ul, dtype=float),
        sigma2_z_dl=np.ones(n_ms), slot_index=0)


def make_design(p, omega, c=None, order=None, mode="multiterminal"):
    omega = np.asarray(omega, dtype=float)
    c = np.ones(omega.size) if c is None else np.asarray(c, dtype=float)
    order = tuple(range(omega.size)) if order is None else tuple(order)
    return uplink.UplinkDesign(p=np.asarray(p, dtype=float), omega=omega,
                               order=order, c=c, mode=mode)


def test_backhaul_p2p_reference():
    ch = unit_channel([[1.0]], [1.0])
    design = make_design([2.0], [1.0])      # sigma_y^2 = 2*1 + 1 = 3
    assert uplink.backhaul_p2p(design, ch, 0) == pytest.approx(2.0, abs=1e-12)
    design_inf = make_design([2.0], [np.inf])
    assert uplink.backhaul_p2p(design_inf, ch, 0) == 0.0
    with pytest.raises(DomainError):
        uplink.backhaul_p2p(make_design([2.0], [0.0]), ch, 0)


def test_backhaul_p2p_matches_mi_from_covariance():
    rng = np.random.default_rng(21)
    ch = rand_channel(rng, 3, 2)
    p = rng.uniform(0.2, 2.0, 2)
    omega = rng.uniform(0.3, 1.5, 3)
    design = make_design(p, omega)
    for i in range(3):
        var_y = float(np.sum(p * np.abs(ch.h_ul[i]) ** 2) + ch.sigma2_z_ul[i])
        joint = np.array([[var_y, var_y], [var_y, var_y + omega[i]]])
        oracle = (np.log2(joint[0, 0]) + np.log2(joint[1, 1])
                  - np.log2(np.linalg.det(joint)))
        assert uplink.backhaul_p2p(design, ch, i) == pytest.approx(oracle,
                                                                   abs=1e-9)


def test_backhaul_wz_first_position_equals_p2p():
    rng = np.random.default_rng(22)
    ch = rand_channel(rng, 3, 2)
    design = make_design(rng.uniform(0.5, 1.5, 2), rng.uniform(0.5, 1.5, 3),
                         order=(2, 0, 1))
    assert uplink.backhaul_wz(design, ch, 0) == pytest.approx(
        uplink.backhaul_p2p(design, ch, 2), abs=1e-12)


def test_backhaul_wz_two_identical_bs_schur_oracle():
    # identical channels: side information cuts the conditional variance
    h = np.array([[1.0 + 0.5j, 0.3 - 0.2j],
                  [1.0 + 0.5j, 0.3 - 0.2j]])
    ch = unit_channel(h, [0.8, 0.8])
    p = np.array([1.3, 0.9])
    omega = np.array([0.05, 0.7])   # tight compression at BS 0 (large C)
    design = make_design(p, omega)

    var1 = float(np.sum(p * np.abs(h[0]) ** 2) + 0.8)
    var2 = var1
    cross = float(np.sum(p * np.abs(h[0]) ** 2))   # E[y2 yhat1*], real here
    cond_oracle = var2 - cross ** 2 / (var1 + omega[0])
    expected = np.log2(1 + cond_oracle / omega[1])
    got = uplink.backhaul_wz(design, ch, 1)
    assert got == pytest.approx(expected, abs=1e-10)
    assert got < uplink.backhaul_p2p(design, ch, 1)


def test_backhaul_wz_orthogonal_channels_reduce_to_p2p():
    ch = unit_channel(np.eye(2), [1.0, 1.0])
    design = make_design([1.5, 0.7], [0.4, 0.6])
    for pos in range(2):
        assert uplink.backhaul_wz(design, ch, pos) == pytest.approx(
            uplink.backhaul_p2p(design, ch, design.order[pos]), abs=1e-12)


def test_omega_closed_form_reference_values():
    ch = unit_channel([[1.0]], [1.0])
    omega = uplink.omega_closed_form(np.array([0.0]), (0,), np.array([1.0]),
                                     ch, "point_to_point")
    assert omega[0] == pytest.approx(1.0, abs=1e-12)
    omega20 = uplink.omega_closed_form(np.array([0.0]), (0,), np.array([20.0]),
                                       ch, "point_to_point")
    assert omega20[0] == pytest.approx(1.0 / (2 ** 20 - 1), rel=1e-12)


def test_omega_closed_form_hits_capacity_exactly():
    rng = np.random.default_rng(23)
    for _ in range(20):
        n_bs, n_ms = rng.integers(1, 5), rng.integers(1, 4)
        ch = rand_channel(rng, n_bs, n_ms)
        p = rng.uniform(0.1, 2.0, n_ms)
        c = rng.uniform(0.5, 8.0, n_bs)
        for mode in ("point_to_point", "multiterminal"):
            omega = uplink.omega_closed_form(p, tuple(range(n_bs)), c, ch, mode)
            design = make_design(p, omega, c=c, mode=mode)
            for pos in range(n_bs):
                g = uplink.backhaul_wz(design, ch, pos) if mode == "multiterminal" \
                    else uplink.backhaul_p2p(design, ch, pos)
                assert g == pytest.approx(c[design.order[pos]], abs=1e-9)


def test_omega_zero_capacity_rejected():
    ch = unit_channel([[1.0]], [1.0])
    with pytest.raises(DomainError):
        uplink.omega_closed_form(np.array([1.0]), (0,), np.array([0.0]), ch,
                                 "point_to_point")


def test_rate_reference_values():
    ch = unit_channel([[1.0]], [1.0])
    design = make_design([1.0], [1.0])
    assert uplink.rates_ul(design, ch)[0] == pytest.approx(np.log2(1.5),
                                                          abs=1e-12)
    ideal = make_design([1.0], [0.0])
    assert uplink.rates_ul(ideal, ch)[0] == pytest.approx(1.0, abs=1e-12)
    # without backhaul at any BS nothing is received: rate +0.0
    rates = uplink.rates_ul(make_design([1.0, 2.0], [np.inf, np.inf],
                                        c=[0.0, 0.0]),
                            unit_channel([[1.0, 0.5], [0.3, 2.0]], [1.0, 1.0]))
    assert np.array_equal(rates, [0.0, 0.0]) and not np.any(np.signbit(rates))


def test_rate_matches_monte_carlo_mi():
    rng = np.random.default_rng(24)
    ch = rand_channel(rng, 2, 2)
    p = rng.uniform(0.5, 2.0, 2)
    omega = rng.uniform(0.3, 1.0, 2)
    design = make_design(p, omega)
    n = 10 ** 6
    x = cn_samples(rng, (n, 2), p)
    noise = cn_samples(rng, (n, 2), ch.sigma2_z_ul)
    q = cn_samples(rng, (n, 2), omega)
    y_hat = x @ ch.h_ul.T + noise + q
    for k in range(2):
        est = mi_from_samples(x[:, [k]], y_hat)
        assert uplink.rates_ul(design, ch)[k] == pytest.approx(est, rel=0.01)


def test_rate_nonnegative_and_zero_power():
    rng = np.random.default_rng(25)
    for _ in range(10):
        ch = rand_channel(rng, 3, 3)
        p = rng.uniform(0.0, 2.0, 3)
        p[1] = 0.0
        design = make_design(p, rng.uniform(0.2, 1.0, 3))
        rates = [uplink.rates_ul(design, ch)[k] for k in range(3)]
        assert all(r >= 0.0 for r in rates)
        assert rates[1] == 0.0


def test_rate_non_increasing_in_omega():
    rng = np.random.default_rng(26)
    ch = rand_channel(rng, 3, 2)
    p = rng.uniform(0.5, 1.5, 2)
    omega = rng.uniform(0.3, 0.8, 3)
    base = [uplink.rates_ul(make_design(p, omega), ch)[k] for k in range(2)]
    for i in range(3):
        bumped = omega.copy()
        bumped[i] *= 2.5
        worse = [uplink.rates_ul(make_design(p, bumped), ch)[k]
                 for k in range(2)]
        assert all(w <= b + 1e-12 for w, b in zip(worse, base))


def test_order_permutation_keeps_wz_below_p2p():
    rng = np.random.default_rng(27)
    ch = rand_channel(rng, 4, 3)
    p = rng.uniform(0.3, 1.5, 3)
    omega = rng.uniform(0.2, 1.2, 4)
    for _ in range(6):
        order = tuple(rng.permutation(4))
        design = make_design(p, omega, order=order)
        for pos in range(4):
            g = uplink.backhaul_wz(design, ch, pos)
            assert g <= uplink.backhaul_p2p(design, ch, order[pos]) + 1e-12


def test_multiterminal_noise_and_rates_dominate_p2p():
    rng = np.random.default_rng(28)
    for _ in range(25):
        n_bs, n_ms = rng.integers(2, 6), rng.integers(1, 4)
        ch = rand_channel(rng, n_bs, n_ms)
        p = rng.uniform(0.1, 2.0, n_ms)
        c = rng.uniform(0.5, 6.0, n_bs)
        order = tuple(range(n_bs))
        om_wz = uplink.omega_closed_form(p, order, c, ch, "multiterminal")
        om_pp = uplink.omega_closed_form(p, order, c, ch, "point_to_point")
        assert np.all(om_wz <= om_pp)
        d_wz = make_design(p, om_wz, c=c, mode="multiterminal")
        d_pp = make_design(p, om_pp, c=c, mode="point_to_point")
        r_wz = sum(uplink.rates_ul(d_wz, ch)[k] for k in range(n_ms))
        r_pp = sum(uplink.rates_ul(d_pp, ch)[k] for k in range(n_ms))
        assert r_wz >= r_pp


def test_optimize_single_user_goes_full_power():
    rng = np.random.default_rng(29)
    ch = rand_channel(rng, 1, 1)
    res = uplink.optimize_ul(ch, np.array([4.0]), np.array([1.0]),
                             "point_to_point", p_max=0.7, n_macro=1)
    assert res.design.p[0] == pytest.approx(0.7, abs=1e-9)


def test_optimize_large_capacity_reaches_ideal_rates():
    rng = np.random.default_rng(30)
    ch = rand_channel(rng, 3, 2)
    c = np.full(3, 40.0)
    res = uplink.optimize_ul(ch, c, np.ones(2), "multiterminal", p_max=1.0,
                             n_macro=3)
    ideal = make_design(res.design.p, np.zeros(3), c=c)
    for k in range(2):
        assert res.rates[k] == pytest.approx(uplink.rates_ul(ideal, ch)[k],
                                             abs=1e-3)


def test_optimize_beats_full_power_and_grid():
    rng = np.random.default_rng(31)
    ch = rand_channel(rng, 2, 2)
    w = np.ones(2)
    p_max = np.array([1.0, 1.0])
    res = uplink.optimize_ul(ch, np.full(2, 30.0), w, "multiterminal",
                             p_max=p_max, n_macro=0)

    def ideal_objective(p):
        design = make_design(np.asarray(p), np.zeros(2), c=np.full(2, 30.0))
        return sum(uplink.rates_ul(design, ch)[k] for k in range(2))

    full_power = ideal_objective(p_max)
    assert res.objective >= full_power - 1e-6
    grid = np.linspace(0.0, 1.0, 50)
    grid_best = max(ideal_objective([a, b]) for a in grid for b in grid)
    assert res.objective >= grid_best - 5e-3


def test_optimize_macros_first_order():
    rng = np.random.default_rng(32)
    ch = rand_channel(rng, 5, 2)
    c = np.array([2.0, 2.0, 2.0, 1.0, 1.0])
    res = uplink.optimize_ul(ch, c, np.ones(2), "multiterminal", p_max=1.0,
                             n_macro=3)
    order = res.design.order
    assert set(order[:3]) == {0, 1, 2}
    sv = [uplink.bs_signal_variance(res.design.p, ch, i) for i in range(5)]
    assert sv[order[0]] >= sv[order[1]] >= sv[order[2]]
    assert sv[order[3]] >= sv[order[4]]


def test_optimize_inactive_bs_dropped():
    rng = np.random.default_rng(33)
    ch = rand_channel(rng, 3, 2)
    c = np.array([3.0, 0.0, 2.0])
    res = uplink.optimize_ul(ch, c, np.ones(2), "multiterminal", p_max=1.0)
    assert 1 not in res.design.order
    assert np.isinf(res.design.omega[1])
    assert np.all(np.isfinite(res.rates))


def test_optimize_validates_inputs():
    rng = np.random.default_rng(35)
    ch = rand_channel(rng, 2, 2)
    with pytest.raises(DomainError):
        uplink.optimize_ul(ch, np.ones(2), np.array([-1.0, 1.0]),
                           "point_to_point", p_max=1.0)
    with pytest.raises(DomainError):
        uplink.optimize_ul(ch, np.array([-0.5, 1.0]), np.ones(2),
                           "point_to_point", p_max=1.0)


@pytest.mark.parametrize("mode", ["point_to_point", "multiterminal"])
def test_optimize_capacity_bound(mode):
    """At capacity_max of each BS the design meets its backhaul, although
    its quantization noise powers are subnormal floats; just above it
    optimize_ul refuses.  The channel has thermal-noise scale, in watts."""
    rng = np.random.default_rng(36)
    ch = rand_channel(rng, 3, 2, sigma_lo=1e-13, sigma_hi=1e-11)
    ch = ChannelRealization(h_ul=ch.h_ul * 1e-6, h_dl=ch.h_dl,
                            sigma2_z_ul=ch.sigma2_z_ul, sigma2_z_dl=None)
    c = uplink.capacity_max(ch.sigma2_z_ul)
    res = uplink.optimize_ul(ch, c, np.ones(2), mode, p_max=0.2, n_macro=3)
    d = res.design
    assert np.all((0.0 < d.omega) & (d.omega < np.finfo(float).tiny))
    for pos, i in enumerate(d.order):
        rate = uplink.backhaul_wz(d, ch, pos) if mode == "multiterminal" \
            else uplink.backhaul_p2p(d, ch, i)
        assert rate <= c[i] + FEASIBILITY_TOL
    for i in range(3):
        above = c.copy()
        above[i] = np.nextafter(c[i], np.inf)
        with pytest.raises(DomainError, match=f"at BS {i} is above"):
            uplink.optimize_ul(ch, above, np.ones(2), mode, p_max=0.2)


def _close(got, want, tol=1e-12):
    """|got - want| <= tol * max(|want|, 1): relative, with an absolute floor
    for values under 1, where the oracle's difference of two log-dets
    carries an absolute error of about 1e-14."""
    got, want = np.asarray(got), np.asarray(want)
    return bool(np.all(np.abs(got - want) <= tol * np.maximum(np.abs(want), 1.0)))


def test_one_factor_matches_logdet_oracle():
    rng = np.random.default_rng(36)
    zero_power_seen = 0
    for _ in range(200):
        n_bs, n_ms = int(rng.integers(1, 7)), int(rng.integers(1, 6))
        ch = rand_channel(rng, n_bs, n_ms)
        p = rng.uniform(0.0, 2.0, n_ms)
        p[rng.random(n_ms) < 0.25] = 0.0
        w = rng.uniform(0.1, 1.0, n_ms)
        w[rng.random(n_ms) < 0.25] = 0.0
        omega = rng.uniform(0.0, 1.0, n_bs)

        rates = uplink.rates_ul(make_design(p, omega), ch)
        assert _close(rates, ul_rates_oracle(ch.h_ul, ch.sigma2_z_ul + omega, p))
        for k in np.flatnonzero(p == 0.0):
            assert rates[k] == 0.0 and not np.signbit(rates[k])
            zero_power_seen += 1

        g = uplink._g_matrix(ch.h_ul, ch.sigma2_z_ul, p)
        assert _close(uplink._rates(p, g.diagonal().real) @ w,
                      ul_objective_oracle(ch.h_ul, ch.sigma2_z_ul, p, w))
        assert _close(w @ uplink._tangent_slopes(g, p) / LN2,
                      ul_slopes_oracle(ch.h_ul, ch.sigma2_z_ul, p, w))
    assert zero_power_seen > 0


def test_power_solve_reaches_box_kkt_point():
    # the returned powers satisfy the box KKT conditions of the true
    # weighted sum rate: in q = p / p_max units the projected gradient step
    # clip(q + grad, 0, 1) - q vanishes.  The gradient comes from central
    # differences of the K+1 log-det oracle, divided by the largest weight.
    rng = np.random.default_rng(37)
    worst = 0.0
    for _ in range(200):
        n_bs, n_ms = int(rng.integers(1, 7)), int(rng.integers(1, 6))
        h = cn_samples(rng, (n_bs, n_ms)) \
            * np.sqrt(10.0 ** rng.uniform(-1.0, 3.0, (n_bs, n_ms)))
        d = rng.uniform(0.5, 2.0, n_bs)
        ch = unit_channel(h, d)
        w = 10.0 ** rng.uniform(-3.0, 3.0, n_ms)
        p_max = rng.uniform(0.5, 2.0, n_ms)
        res = uplink.optimize_ul(ch, np.ones(n_bs), w, "point_to_point", p_max)
        q = res.design.p / p_max
        grad = np.zeros(n_ms)
        for j in range(n_ms):
            e = np.zeros(n_ms)
            e[j] = 1e-6
            grad[j] = (ul_objective_oracle(h, d, (q + e) * p_max, w)
                       - ul_objective_oracle(h, d, (q - e) * p_max, w)) / 2e-6
        step = np.clip(q + grad / np.max(w), 0.0, 1.0) - q
        worst = max(worst, float(np.max(np.abs(step))))
    assert worst < 1e-3


def test_power_solve_ignores_weight_scale():
    # the fairness weights r_bar^-alpha span many decades from slot to slot;
    # the power design depends only on their ratios
    rng = np.random.default_rng(38)
    for _ in range(50):
        n_bs, n_ms = int(rng.integers(1, 7)), int(rng.integers(1, 6))
        ch = rand_channel(rng, n_bs, n_ms)
        w = rng.uniform(0.1, 1.0, n_ms)
        base = uplink.optimize_ul(ch, np.ones(n_bs), w, "point_to_point",
                                  p_max=1.0).design.p
        for scale in (1e-6, 1e9):
            p = uplink.optimize_ul(ch, np.ones(n_bs), scale * w,
                                   "point_to_point", p_max=1.0).design.p
            assert np.allclose(p, base, rtol=0.0, atol=1e-9), scale


def _decompression_order_oracle(p, ch, c, n_macro):
    """The decompression order rule, one BS at a time: macro antennas first,
    then picos, each group by descending received signal power (stable)."""
    active = np.flatnonzero(c > 0)
    sv = np.array([uplink.bs_signal_variance(p, ch, i) for i in active])
    macros = active < min(n_macro, ch.n_bs)
    order = [int(i) for i in
             active[macros][np.argsort(-sv[macros], kind="stable")]]
    order += [int(i) for i in
              active[~macros][np.argsort(-sv[~macros], kind="stable")]]
    return tuple(order)


def test_design_noise_order_and_rates_match_oracles():
    # the design's order, every noise power and all K rates, each against
    # its own oracle, in both modes, with MSs at zero power and BSs without
    # backhaul; the noise powers are omega_closed_form's and the rates
    # rates_ul's, bit for bit
    rng = np.random.default_rng(39)
    for trial in range(1000):
        n_bs, n_ms = int(rng.integers(1, 8)), int(rng.integers(1, 6))
        ch = rand_channel(rng, n_bs, n_ms)
        p = rng.uniform(0.0, 2.0, n_ms)
        p[rng.random(n_ms) < 0.25] = 0.0
        c = rng.uniform(0.5, 8.0, n_bs)
        c[rng.random(n_bs) < 0.25] = 0.0
        n_macro = int(rng.integers(0, n_bs + 1))
        mode = ("point_to_point", "multiterminal")[trial % 2]

        design, rates = uplink._design_and_rates(p, ch, c, mode, n_macro)
        order = _decompression_order_oracle(p, ch, c, n_macro)
        assert design.order == order
        want = ul_omega_prefix_oracle(ch.h_ul, ch.sigma2_z_ul, p, order, c,
                                      mode)
        served = c > 0
        assert np.array_equal(np.isinf(design.omega), ~served)
        assert np.all(np.abs(design.omega[served] - want[served])
                      <= 1e-12 * want[served])
        assert np.array_equal(
            uplink.omega_closed_form(p, order, c, ch, mode), design.omega)
        assert np.array_equal(rates, uplink.rates_ul(design, ch))
        assert _close(rates, ul_rates_oracle(
            ch.h_ul[served], ch.sigma2_z_ul[served] + design.omega[served], p))


def test_one_factor_rejects_nan_pivot():
    # a NaN noise power or channel entry reaches a pivot and raises, at the
    # first position and at a later one, instead of flowing into the rates
    for h, sigma2 in (([[1.0], [0.5]], [np.nan, 1.0]),
                      ([[1.0], [0.5]], [1.0, np.nan]),
                      ([[1.0], [np.nan]], [1.0, 1.0])):
        ch = unit_channel(h, sigma2)
        for mode in ("point_to_point", "multiterminal"):
            with pytest.raises(NumericalDomainError):
                uplink.omega_closed_form(np.array([1.0]), (0, 1),
                                         np.ones(2), ch, mode)


def test_modes_agree_bitwise_where_nothing_is_explained():
    # both modes divide by one array of 2^c - 1, so a BS whose earlier BSs
    # explain nothing of its signal gets the same noise power in each, bit
    # for bit: the first BS of every order, and every BS of orthogonal
    # channels
    rng = np.random.default_rng(40)
    for _ in range(200):
        n_bs, n_ms = int(rng.integers(1, 8)), int(rng.integers(1, 6))
        ch = rand_channel(rng, n_bs, n_ms)
        p = rng.uniform(0.0, 2.0, n_ms)
        c = rng.uniform(0.5, 8.0, n_bs)
        order = rng.permutation(n_bs)
        om_mt, om_pp = (uplink.omega_closed_form(p, order, c, ch, mode)
                        for mode in ("multiterminal", "point_to_point"))
        assert om_mt[order[0]] == om_pp[order[0]]
        assert np.all(om_mt <= om_pp)
    ch = unit_channel(np.diag(rng.uniform(0.5, 2.0, 4)),
                      rng.uniform(0.5, 2.0, 4))
    c = rng.uniform(0.5, 8.0, 4)
    om_mt, om_pp = (uplink.omega_closed_form(np.ones(4), (2, 0, 3, 1), c, ch,
                                             mode)
                    for mode in ("multiterminal", "point_to_point"))
    assert np.array_equal(om_mt, om_pp)


@pytest.mark.parametrize("mode", ["point_to_point", "multiterminal"])
def test_smallest_capacity_meets_backhaul(mode):
    """At CAPACITY_MIN, 2^c - 1 is a few float spacings above 0: the noise
    powers are finite and the design meets its backhaul.  Just below it,
    where 2^c - 1 nears 0 and the noise power inf, the vertex table
    refuses the BS."""
    rng = np.random.default_rng(41)
    ch = rand_channel(rng, 3, 2)
    c = np.array([2.0, uplink.CAPACITY_MIN, uplink.CAPACITY_MIN])
    res = uplink.optimize_ul(ch, c, np.ones(2), mode, p_max=1.0, n_macro=1)
    d = res.design
    assert np.all(np.isfinite(d.omega)) and np.all(np.isfinite(res.rates))
    for pos, i in enumerate(d.order):
        rate = uplink.backhaul_wz(d, ch, pos) if mode == "multiterminal" \
            else uplink.backhaul_p2p(d, ch, i)
        assert abs(rate - c[i]) <= FEASIBILITY_TOL
    for i in (1, 2):
        below = c.copy()
        below[i] = np.nextafter(uplink.CAPACITY_MIN, 0.0)
        with pytest.raises(DomainError, match=f"at BS {i} is below"):
            uplink.VertexTable(ch, below, 1.0, 1)


def _power_instance(rng, n_ms, max_bs):
    """(channel, weights, power limits): 1 to max_bs BSs, gains over four
    decades and weights over three, as proportional-fair weights span."""
    n_bs = int(rng.integers(1, max_bs + 1))
    h = cn_samples(rng, (n_bs, n_ms)) \
        * np.sqrt(10.0 ** rng.uniform(-1.0, 3.0, (n_bs, n_ms)))
    return (unit_channel(h, rng.uniform(0.5, 2.0, n_bs)),
            10.0 ** rng.uniform(-3.0, 0.0, n_ms), rng.uniform(0.5, 2.0, n_ms))


def test_power_solve_beats_a_fine_grid_at_two_ms():
    # K = 2: no point of a 101 x 101 grid of the power box, scored by the
    # K+1 log-det oracle, beats the design's powers
    rng = np.random.default_rng(42)
    grid = np.linspace(0.0, 1.0, 101)
    for _ in range(6):
        ch, w, p_max = _power_instance(rng, 2, 3)
        h, d = ch.h_ul, ch.sigma2_z_ul
        p = uplink.optimize_ul(ch, np.ones(ch.n_bs), w, "point_to_point",
                               p_max).design.p
        got = ul_objective_oracle(h, d, p, w)
        best = max(ul_objective_oracle(h, d, np.array([a, b]) * p_max, w)
                   for a in grid for b in grid)
        assert got >= best * (1.0 - 1e-12), (got, best)


def test_power_solve_matches_exhaustive_vertex_scoring():
    # K = 5: the design's powers are the box vertex with the highest oracle
    # objective, and every trace is one converged step without warnings
    rng = np.random.default_rng(43)
    codes = np.arange(1, 32)
    vertices = (codes[:, None] >> np.arange(5)) & 1
    for _ in range(40):
        ch, w, p_max = _power_instance(rng, 5, 6)
        h, d = ch.h_ul, ch.sigma2_z_ul
        res = uplink.optimize_ul(ch, np.ones(ch.n_bs), w, "multiterminal",
                                 p_max)
        scores = [ul_objective_oracle(h, d, v * p_max, w) for v in vertices]
        assert any(np.array_equal(res.design.p, v * p_max)
                   for v in vertices)
        got = ul_objective_oracle(h, d, res.design.p, w)
        assert got >= max(scores) * (1.0 - 1e-12)
        assert res.trace.converged and res.trace.iterations == 1
        assert res.trace.warnings == []


def test_power_solve_breaks_ties_toward_full_power():
    # with every weight zero each vertex scores 0; an MS with no channel
    # and no weight ties its on and off vertices: both go to full power
    rng = np.random.default_rng(44)
    ch = rand_channel(rng, 3, 3)
    p_max = np.array([0.5, 1.0, 2.0])
    res = uplink.optimize_ul(ch, np.ones(3), np.zeros(3), "point_to_point",
                             p_max)
    assert np.array_equal(res.design.p, p_max)
    assert res.objective == 0.0 and res.trace.warnings == []
    h = ch.h_ul.copy()
    h[:, 1] = 0.0
    res = uplink.optimize_ul(unit_channel(h, ch.sigma2_z_ul), np.ones(3),
                             np.array([1.0, 0.0, 1.0]), "point_to_point",
                             p_max)
    assert res.design.p[1] == p_max[1]


def test_optimize_refuses_more_ms_than_the_vertex_cap():
    rng = np.random.default_rng(45)
    k = uplink.K_MS_MAX
    res = uplink.optimize_ul(rand_channel(rng, 4, k), np.ones(4),
                             np.ones(k), "multiterminal", p_max=1.0)
    assert res.design.p.size == k
    with pytest.raises(DomainError, match=f"more than the {k}"):
        uplink.optimize_ul(rand_channel(rng, 4, k + 1), np.ones(4),
                           np.ones(k + 1), "multiterminal", p_max=1.0)


def _outputs(res):
    """Every output of one optimize_ul call, floats by their bits."""
    d, t = res.design, res.trace
    return (d.p.tobytes(), d.omega.tobytes(), d.order, d.c.tobytes(), d.mode,
            res.rates.tobytes(), res.objective.hex(), t.converged,
            t.iterations, t.warnings)


def _table_instances(rng):
    """(channel, c, p_max, n_macro): random instances, some BSs without
    backhaul but at least one with, then the corners K = 1, one BS without
    backhaul, no picos (every BS a macro antenna) and K = K_MS_MAX."""
    for _ in range(30):
        ch, _, p_max = _power_instance(rng, int(rng.integers(1, 6)), 6)
        c = rng.uniform(0.5, 8.0, ch.n_bs)
        c[rng.random(ch.n_bs) < 0.25] = 0.0
        c[rng.integers(ch.n_bs)] = 2.0
        yield ch, c, p_max, int(rng.integers(0, ch.n_bs + 1))
    for k, c, n_macro in ((1, [2.0] * 4, 3), (4, [3.0, 0.0], 1),
                          (5, [9.0, 3.0, 1.0], 3),
                          (uplink.K_MS_MAX, [9.0, 9.0, 3.0, 0.0, 1.0], 2)):
        h = cn_samples(rng, (len(c), k)) \
            * np.sqrt(10.0 ** rng.uniform(-1.0, 3.0, (len(c), k)))
        yield (unit_channel(h, rng.uniform(0.5, 2.0, len(c))), np.array(c),
               rng.uniform(0.5, 2.0, k), n_macro)


def test_vertex_table_serves_every_weighting_and_mode_bit_for_bit():
    # one table per instance serves weightings from all-zero to spread over
    # 60 decades, in both modes, interleaved; each result equals a call
    # without a table bit for bit, and its trace is its own
    rng = np.random.default_rng(46)
    shared, sizes = 0, set()
    for ch, c, p_max, n_macro in _table_instances(rng):
        k = ch.n_ms
        sizes.add(k)
        table = uplink.VertexTable(ch, c, p_max, n_macro)
        weightings = [np.ones(k), np.zeros(k), np.eye(k)[-1],
                      rng.uniform(0.1, 1.0, k),
                      10.0 ** rng.uniform(-30.0, 30.0, k), np.ones(k)]
        seen = {}
        for w in weightings:
            for mode in ("multiterminal", "point_to_point"):
                got = uplink.optimize_ul(ch, c.copy(), w, mode, p_max,
                                         n_macro=n_macro, table=table)
                want = uplink.optimize_ul(ch, c, w, mode, p_max,
                                          n_macro=n_macro)
                assert _outputs(got) == _outputs(want)
                first = seen.setdefault(id(got.design), got)
                if first is not got:
                    shared += 1
                    assert first.rates is got.rates
                    assert first.trace.warnings is not got.trace.warnings
    assert shared > 0
    assert {1, 5, uplink.K_MS_MAX} <= sizes


def test_vertex_table_refuses_other_inputs():
    rng = np.random.default_rng(47)
    ch, w, p_max = _power_instance(rng, 3, 4)
    c = np.full(ch.n_bs, 2.0)
    table = uplink.VertexTable(ch, c, p_max, n_macro=1)
    # c and p_max are compared by value
    uplink.optimize_ul(ch, c.copy(), w, "multiterminal", list(p_max),
                       n_macro=1, table=table)
    other_c = c.copy()
    other_c[-1] = 1.0
    for args in ((ChannelRealization(**vars(ch)), c, p_max, 1),
                 (ch, other_c, p_max, 1), (ch, c, 1.5 * p_max, 1),
                 (ch, c, p_max, 0)):
        chan, cap, power, n_macro = args
        with pytest.raises(DomainError, match="vertex table was built"):
            uplink.optimize_ul(chan, cap, w, "multiterminal", power,
                               n_macro=n_macro, table=table)


def test_shared_results_are_read_only():
    # results of one table share their rates and designs across weightings
    # and modes, so an in-place write raises; the caller's c stays writable
    # and apart from the design's
    rng = np.random.default_rng(48)
    ch, w, p_max = _power_instance(rng, 3, 4)
    c = np.full(ch.n_bs, 2.0)
    res = uplink.optimize_ul(ch, c, w, "multiterminal", p_max)
    for a in (res.rates, res.design.p, res.design.omega, res.design.c):
        with pytest.raises(ValueError, match="read-only"):
            a[0] = 1.0
    assert c.flags.writeable
    c[0] = 3.0
    assert res.design.c[0] == 2.0
