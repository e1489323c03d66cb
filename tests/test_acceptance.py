"""End-to-end acceptance suite.

Each test prints one `criterion N: PASS ...` line (visible with `pytest -s`)
carrying the measured numbers next to the asserted bounds.  The heavier
Monte-Carlo criteria share module-scoped fixtures so the suite stays within
a desk-scale runtime budget.
"""

import time

import numpy as np
import pytest

from cransim import downlink, harness, uplink
from cransim.mmopt import LN2
from helpers import (DOMINANCE_PRESETS, backhaul_mv_dl, backhaul_p2p_dl,
                     cn_samples, colored_noise, dominance_sweep,
                     enumerate_subsets, mi_from_samples, rand_channel,
                     solve_multiterminal, sweep_dominance, ul_psi_oracle,
                     ul_weighted_psi_oracle)

P2P = "point_to_point"
MT = "multiterminal"


def announce(n, detail):
    print(f"\ncriterion {n}: PASS - {detail}")


def rand_ul_instance(rng, max_bs=6, max_ms=5):
    n_bs = int(rng.integers(1, max_bs + 1))
    n_ms = int(rng.integers(1, max_ms + 1))
    ch = rand_channel(rng, n_bs, n_ms)
    p = rng.uniform(0.05, 2.0, n_ms)
    c = rng.uniform(0.3, 10.0, n_bs)
    return ch, p, c


def test_criterion_1_backhaul_equality_at_optimum():
    rng = np.random.default_rng(101)
    start = time.perf_counter()
    worst = 0.0
    for _ in range(1000):
        ch, p, c = rand_ul_instance(rng)
        order = tuple(rng.permutation(ch.n_bs))
        for mode in (MT, P2P):
            omega = uplink.omega_closed_form(p, order, c, ch, mode)
            design = uplink.UplinkDesign(p=p, omega=omega, order=order, c=c,
                                         mode=mode)
            for pos, i in enumerate(order):
                g = uplink.backhaul_wz(design, ch, pos) if mode == MT \
                    else uplink.backhaul_p2p(design, ch, i)
                worst = max(worst, abs(g - c[i]))
    elapsed = time.perf_counter() - start
    assert worst < 1e-9
    assert elapsed < 10.0
    announce(1, f"1000 instances, worst |g - C| = {worst:.2e} "
                f"(< 1e-9), runtime {elapsed:.1f}s (< 10s)")


def test_criterion_2_uplink_multiterminal_dominance():
    rng = np.random.default_rng(102)
    omega_violations = 0
    rate_violations = 0
    for _ in range(1000):
        ch, p, c = rand_ul_instance(rng)
        order = tuple(range(ch.n_bs))
        om_wz = uplink.omega_closed_form(p, order, c, ch, MT)
        om_pp = uplink.omega_closed_form(p, order, c, ch, P2P)
        if not np.all(om_wz <= om_pp):
            omega_violations += 1
        d_wz = uplink.UplinkDesign(p=p, omega=om_wz, order=order, c=c, mode=MT)
        d_pp = uplink.UplinkDesign(p=p, omega=om_pp, order=order, c=c, mode=P2P)
        sum_wz = sum(uplink.rates_ul(d_wz, ch)[k] for k in range(ch.n_ms))
        sum_pp = sum(uplink.rates_ul(d_pp, ch)[k] for k in range(ch.n_ms))
        if sum_wz < sum_pp:
            rate_violations += 1
    assert omega_violations == 0
    assert rate_violations == 0
    announce(2, "1000 paired instances, 0 noise-power violations, "
                "0 sum-rate violations (0 tolerated)")


def test_criterion_3_downlink_multiterminal_dominance(monkeypatch):
    rng = np.random.default_rng(103)
    # 30 MM steps of 30 ascent steps per barrier round
    monkeypatch.setattr(downlink, "MM_MAX_ITER", 30)
    monkeypatch.setattr(downlink, "INNER_STEPS", 30)
    worst_gap = np.inf
    worst_margin = np.inf
    for _ in range(200):
        n_bs = int(rng.integers(2, 5))
        n_ms = int(rng.integers(1, 4))
        ch = rand_channel(rng, n_bs, n_ms)
        c = rng.uniform(0.8, 5.0, n_bs)
        p_bs = rng.uniform(1.0, 8.0, n_bs)
        w = rng.uniform(0.2, 1.5, n_ms)
        p2p = downlink.optimize_dl(ch, c, p_bs, w, P2P)
        mt = downlink.optimize_dl(ch, c, p_bs, w, MT, init=p2p.design)
        worst_gap = min(worst_gap, mt.objective - p2p.objective)
        worst_margin = min(worst_margin,
                           downlink.feasible_dl(mt.design).margin,
                           downlink.feasible_dl(p2p.design).margin)
    assert worst_gap >= -1e-9
    assert worst_margin >= -1e-7
    announce(3, f"200 paired instances, worst mt-p2p objective gap "
                f"{worst_gap:+.2e} (>= -1e-9), worst feasibility margin "
                f"{worst_margin:+.2e} (>= -1e-7)")


def test_criterion_4_diagonal_reduction_identity():
    rng = np.random.default_rng(104)
    worst = 0.0
    for _ in range(100):
        n_bs = int(rng.integers(2, 6))
        a = cn_samples(rng, (n_bs, int(rng.integers(1, 4))))
        omega = np.diag(rng.uniform(0.05, 3.0, n_bs)).astype(complex)
        design = downlink.DownlinkDesign(a=a, omega=omega, c=np.ones(n_bs),
                                         p_bs=np.full(n_bs, 1e3), mode=P2P)
        for subset in enumerate_subsets(range(n_bs)):
            total = sum(backhaul_p2p_dl(design, i) for i in subset)
            worst = max(worst, abs(backhaul_mv_dl(design, subset) - total))
    assert worst < 1e-12
    announce(4, f"100 instances, all subsets: worst |g_S - sum p2p| = "
                f"{worst:.2e} (< 1e-12)")


def _ul_mi_instance(rng):
    while True:
        n_bs = int(rng.integers(1, 4))
        n_ms = int(rng.integers(1, 4))
        ch = rand_channel(rng, n_bs, n_ms)
        p = rng.uniform(0.5, 2.0, n_ms)
        omega = rng.uniform(0.3, 1.2, n_bs)
        design = uplink.UplinkDesign(p=p, omega=omega,
                                     order=tuple(range(n_bs)),
                                     c=np.ones(n_bs), mode=MT)
        rates = [uplink.rates_ul(design, ch)[k] for k in range(n_ms)]
        if min(rates) > 0.15:
            return ch, p, omega, design, rates


def _dl_mi_instance(rng):
    while True:
        n_bs = int(rng.integers(1, 4))
        n_ms = int(rng.integers(1, 4))
        ch = rand_channel(rng, n_bs, n_ms)
        a = cn_samples(rng, (n_bs, n_ms)) * 1.4
        l = np.tril(cn_samples(rng, (n_bs, n_bs))) * 0.4 \
            + 0.4 * np.eye(n_bs)
        omega = l @ l.conj().T
        design = downlink.DownlinkDesign(a=a, omega=omega, c=np.ones(n_bs),
                                         p_bs=np.full(n_bs, 1e3), mode=MT)
        rates = downlink.rates_dl(design, ch)
        if min(rates) > 0.15:
            return ch, a, omega, design, rates


def test_criterion_5_monte_carlo_mi_equivalence():
    rng = np.random.default_rng(105)
    n_samples = 10 ** 6
    worst = 0.0
    for _ in range(10):
        ch, p, omega, design, rates = _ul_mi_instance(rng)
        x = cn_samples(rng, (n_samples, ch.n_ms), p)
        y_hat = x @ ch.h_ul.T + cn_samples(rng, (n_samples, ch.n_bs),
                                           ch.sigma2_z_ul) \
            + cn_samples(rng, (n_samples, ch.n_bs), omega)
        for k in range(ch.n_ms):
            est = mi_from_samples(x[:, [k]], y_hat)
            worst = max(worst, abs(est - rates[k]) / rates[k])
    for _ in range(10):
        ch, a, omega, design, rates = _dl_mi_instance(rng)
        s = cn_samples(rng, (n_samples, ch.n_ms))
        x = s @ a.T + colored_noise(rng, n_samples, omega)
        for k in range(ch.n_ms):
            y_k = x @ ch.h_dl[k] + cn_samples(rng, (n_samples,),
                                              ch.sigma2_z_dl[k])
            est = mi_from_samples(s[:, [k]], y_k[:, None])
            worst = max(worst, abs(est - rates[k]) / rates[k])
    assert worst < 0.01
    announce(5, f"20 instances x 1e6 samples, worst relative MI error "
                f"{worst:.3%} (< 1%)")


def _ul_power_problem(rng):
    """A random uplink power problem (h, d, w, p_max), an interior anchor
    point p0 and the tangent slopes of sum_k w_k psi_k there."""
    ch, _, _ = rand_ul_instance(rng)
    w = rng.uniform(0.1, 1.0, ch.n_ms)
    p_max = rng.uniform(0.5, 2.0, ch.n_ms)
    h, d = ch.h_ul, ch.sigma2_z_ul
    p0 = rng.uniform(0.1, 1.0, ch.n_ms) * p_max
    slopes = w @ uplink._tangent_slopes(uplink._g_matrix(h, d, p0), p0) / LN2
    return (h, d, w, p_max), p0, slopes


def _ul_objective(problem, p):
    """The weighted sum rate at powers p, as the power solve scores it."""
    h, d, w, _ = problem
    g = uplink._g_matrix(h, d, p)
    return float(uplink._rates(p, g.diagonal().real) @ w)


def test_criterion_6_mm_soundness(monkeypatch):
    rng = np.random.default_rng(106)
    # the uplink MM surrogate built at p0 lower-bounds the true weighted
    # objective over the power box and touches it at p0
    worst_dom = np.inf
    worst_touch = 0.0
    for _ in range(100):
        problem, p0, slopes = _ul_power_problem(rng)
        h, d, w, p_max = problem
        psi0 = ul_weighted_psi_oracle(h, d, p0, w)

        def surrogate(p):
            return float(np.sum(w)) * ul_psi_oracle(h, d, p) \
                - (psi0 + float(slopes @ (p - p0)))

        worst_touch = max(worst_touch,
                          abs(_ul_objective(problem, p0) - surrogate(p0)))
        points = [np.zeros_like(p0), p_max.copy()]
        points += [rng.uniform(0.0, 1.0, p0.size) * p_max
                   for _ in range(10)]
        for p in points:
            worst_dom = min(worst_dom,
                            _ul_objective(problem, p) - surrogate(p))
    assert worst_dom >= -1e-9
    assert worst_touch <= 1e-9

    # tangent slopes vs central finite differences of sum_k w_k psi_k
    worst_grad = 0.0
    for _ in range(20):
        problem, p0, slopes = _ul_power_problem(rng)
        direction = rng.standard_normal(p0.size)
        h = 1e-6 * np.linalg.norm(p0) / np.linalg.norm(direction)
        psi = lambda p: ul_weighted_psi_oracle(*problem[:2], p, problem[2])
        numeric = (psi(p0 + h * direction) - psi(p0 - h * direction)) / (2 * h)
        analytic = float(slopes @ direction)
        worst_grad = max(worst_grad,
                         abs(numeric - analytic) / max(abs(analytic), 1e-12))
    assert worst_grad < 1e-5

    # a fresh corpus of solver runs.  The uplink's chosen vertex scores at
    # least full power's for ideal backhaul, and its design passes the
    # backhaul re-check
    worst_slack, worst_excess, runs = np.inf, -np.inf, 0
    for _ in range(15):
        ch, _, c = rand_ul_instance(rng, max_bs=5, max_ms=4)
        w = rng.uniform(0.1, 1.0, ch.n_ms)
        p_max = rng.uniform(0.5, 2.0)
        res = uplink.optimize_ul(ch, c, w, MT, p_max=p_max)
        problem = (ch.h_ul, ch.sigma2_z_ul, w, p_max)
        worst_slack = min(worst_slack, _ul_objective(problem, res.design.p)
                          - _ul_objective(problem, np.full(ch.n_ms, p_max)))
        for position, i in enumerate(res.design.order):
            worst_excess = max(worst_excess, uplink.backhaul_wz(
                res.design, ch, position) - c[i])
        runs += 1
    # every downlink MM trace is monotone within slack and ends feasible;
    # 25 MM steps of 25 ascent steps per barrier round
    with monkeypatch.context() as effort:
        effort.setattr(downlink, "MM_MAX_ITER", 25)
        effort.setattr(downlink, "INNER_STEPS", 25)
        for _ in range(6):
            ch = rand_channel(rng, int(rng.integers(2, 4)), 2)
            c = rng.uniform(1.0, 4.0, ch.n_bs)
            p_bs = rng.uniform(2.0, 6.0, ch.n_bs)
            tr = solve_multiterminal(ch, c, p_bs, np.ones(2)).trace
            diffs = np.diff(tr.objective)
            if diffs.size:
                worst_slack = min(worst_slack, float(np.min(diffs)))
            worst_excess = max(worst_excess, tr.violation[-1])
            runs += 1
    assert worst_slack >= -1e-9
    assert worst_excess <= 1e-7
    announce(6, f"uplink surrogate dominance margin {worst_dom:+.2e} "
                f"(>= -1e-9), touch gap at p0 {worst_touch:.2e} (<= 1e-9), "
                f"tangent slope error {worst_grad:.2e} (< 1e-5), "
                f"worst ascent step {worst_slack:+.2e} (>= -1e-9), "
                f"worst constraint excess {worst_excess:+.2e} (<= 1e-7) "
                f"over {runs} solver runs")


def test_criterion_7_limit_checks():
    rng = np.random.default_rng(107)
    worst_gap = 0.0
    for _ in range(40):
        ch, p, _ = rand_ul_instance(rng, max_bs=5, max_ms=4)
        c = np.full(ch.n_bs, rng.uniform(30.0, 40.0))
        res = uplink.optimize_ul(ch, c, np.ones(ch.n_ms), MT, p_max=1.0)
        ideal = uplink.UplinkDesign(p=res.design.p,
                                    omega=np.zeros(ch.n_bs),
                                    order=res.design.order, c=c, mode=MT)
        for k in range(ch.n_ms):
            worst_gap = max(worst_gap,
                            abs(res.rates[k] - uplink.rates_ul(ideal, ch)[k]))
    assert worst_gap < 1e-3

    worst_bump = -np.inf
    for _ in range(50):
        ch, p, c = rand_ul_instance(rng, max_bs=5, max_ms=4)
        if ch.n_bs < 2:
            continue
        order = tuple(range(ch.n_bs))
        omega = uplink.omega_closed_form(p, order, c, ch, MT)
        full = uplink.UplinkDesign(p=p, omega=omega, order=order, c=c, mode=MT)
        drop = int(rng.integers(0, ch.n_bs))
        c2 = c.copy()
        c2[drop] = 0.0
        order2 = tuple(i for i in order if i != drop)
        omega2 = uplink.omega_closed_form(p, order2, c2, ch, MT)
        reduced = uplink.UplinkDesign(p=p, omega=omega2, order=order2, c=c2,
                                      mode=MT)
        for k in range(ch.n_ms):
            bump = (uplink.rates_ul(reduced, ch)[k]
                    - uplink.rates_ul(full, ch)[k])
            worst_bump = max(worst_bump, bump)
    assert worst_bump <= 1e-9
    announce(7, f"ideal-backhaul gap at C>=30: {worst_gap:.2e} (< 1e-3); "
                f"max rate change from deactivating a BS {worst_bump:+.2e} "
                f"(<= 0)")


TREND_NS = (5, 10, 20)
TREND_SEED = 2024


def _trend_config(n_pico, jobs=4):
    return harness.ExperimentConfig(
        direction="uplink", mode="both", k_ms=5, n_pico=n_pico, c_macro=3.0,
        c_pico=1.0, alpha=0.0, slots=1, drops=200, seed=TREND_SEED, jobs=jobs)


@pytest.fixture(scope="module")
def trend_reports():
    return {n: harness.run_experiment(_trend_config(n)) for n in TREND_NS}


def test_criterion_8_gain_trend_over_pico_density(trend_reports):
    start = time.perf_counter()
    gains = []
    for n in TREND_NS:
        rep = trend_reports[n]
        p50_pp = rep.metrics[P2P].p50_sum_rate
        p50_mt = rep.metrics[MT].p50_sum_rate
        gains.append(100.0 * (p50_mt / p50_pp - 1.0))
    assert all(g > 0 for g in gains)
    assert gains[0] < gains[1] < gains[2]
    total_runtime = sum(r.elapsed_s for r in trend_reports.values())
    assert total_runtime < 1800.0
    announce(8, "measured 50%-ile sum-rate gains "
                + ", ".join(f"N={n}: {g:.1f}%" for n, g in zip(TREND_NS, gains))
                + " (reference trend 17%/27%/42%), strictly increasing; "
                f"runtime {total_runtime:.0f}s (< 30 min)")


def test_criterion_9_alpha_sweep_dominance_and_ceiling():
    lines = []
    for preset in DOMINANCE_PRESETS:
        check = sweep_dominance(dominance_sweep(preset, seed=7))
        for point in check["points"]:
            assert point["efficiency_dominated"], \
                f"{preset} alpha={point['alpha']}: efficiency not dominated"
            assert point["cell_edge_dominated"], \
                f"{preset} alpha={point['alpha']}: cell edge not dominated"
        assert check["ceiling_above"]
        lines.append(f"{preset}: efficiency ceiling "
                     f"{check['ceiling_p2p']:.3f} < {check['ceiling_mt']:.3f}"
                     ", cell-edge ratios "
                     + "/".join(f"{r:.2f}x" for r in check["edge_ratios"]))
    announce(9, "; ".join(lines))


def test_criterion_10_csv_determinism_across_jobs(trend_reports, tmp_path):
    serial = harness.run_experiment(_trend_config(5, jobs=1))
    f_par, f_ser = tmp_path / "par.csv", tmp_path / "ser.csv"
    harness.write_records_csv(trend_reports[5], f_par)
    harness.write_records_csv(serial, f_ser)
    assert f_par.read_bytes() == f_ser.read_bytes()
    announce(10, f"jobs=4 and jobs=1 runs byte-identical "
                 f"({f_par.stat().st_size} bytes of CSV)")
