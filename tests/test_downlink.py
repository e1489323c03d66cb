import ast
import math

import numpy as np
import pytest

from cransim import downlink, harness
from cransim.channel import ChannelRealization
from cransim.errors import DomainError, NumericalDomainError
from cransim.mmopt import FEASIBILITY_TOL, LN2
from helpers import (backhaul_mv_dl, backhaul_p2p_dl, cn_samples,
                     colored_noise, enumerate_subsets, mi_from_samples,
                     rand_channel, solve_multiterminal)


def make_design(a, omega, c=None, p_bs=None, mode="multiterminal"):
    a = np.atleast_2d(np.asarray(a, dtype=complex))
    omega = np.atleast_2d(np.asarray(omega, dtype=complex))
    n_bs = a.shape[0]
    c = np.ones(n_bs) if c is None else np.asarray(c, dtype=float)
    p_bs = np.full(n_bs, 100.0) if p_bs is None else np.asarray(p_bs, dtype=float)
    return downlink.DownlinkDesign(a=a, omega=omega, c=c, p_bs=p_bs, mode=mode)


def dl_channel(h_dl, sigma2_dl):
    h_dl = np.atleast_2d(np.asarray(h_dl, dtype=complex))
    n_ms, n_bs = h_dl.shape
    return ChannelRealization(
        h_ul=h_dl.conj().T.copy(), h_dl=h_dl,
        sigma2_z_ul=np.ones(n_bs),
        sigma2_z_dl=np.asarray(sigma2_dl, dtype=float), slot_index=0)


def tx_power(design, i):
    """Transmit power of BS i, one scalar at a time: precoded signal power
    plus quantization noise."""
    return float(np.sum(np.abs(design.a[i]) ** 2) + design.omega[i, i].real)


def test_backhaul_p2p_dl_reference():
    a = np.array([[np.sqrt(3.0), 0.0]])      # row power 3
    design = make_design(a, [[1.0]])
    assert backhaul_p2p_dl(design, 0) == pytest.approx(2.0, abs=1e-12)
    zero = make_design(np.zeros((1, 2)), [[0.5]])
    assert backhaul_p2p_dl(zero, 0) == pytest.approx(0.0, abs=1e-12)
    with pytest.raises(DomainError):
        backhaul_p2p_dl(make_design(a, [[0.0]]), 0)


def test_backhaul_p2p_dl_mi_oracle():
    rng = np.random.default_rng(41)
    a = cn_samples(rng, (3, 2))
    omega = np.diag(rng.uniform(0.2, 1.0, 3)).astype(complex)
    design = make_design(a, omega)
    for i in range(3):
        sig = float(np.sum(np.abs(a[i]) ** 2))
        w = omega[i, i].real
        joint = np.array([[sig, sig], [sig, sig + w]])
        oracle = (np.log2(max(joint[0, 0], 1e-300)) + np.log2(joint[1, 1])
                  - np.log2(np.linalg.det(joint))) if sig > 0 else 0.0
        assert backhaul_p2p_dl(design, i) == pytest.approx(oracle, abs=1e-9)


def test_backhaul_mv_diagonal_reduces_to_p2p_sum():
    rng = np.random.default_rng(42)
    for _ in range(10):
        n_bs = int(rng.integers(2, 6))
        a = cn_samples(rng, (n_bs, 3))
        omega = np.diag(rng.uniform(0.1, 2.0, n_bs)).astype(complex)
        design = make_design(a, omega)
        for subset in enumerate_subsets(range(n_bs)):
            total = sum(backhaul_p2p_dl(design, i) for i in subset)
            assert backhaul_mv_dl(design, subset) == pytest.approx(
                total, abs=1e-12)


def test_backhaul_mv_singleton_equals_p2p():
    rng = np.random.default_rng(43)
    a = cn_samples(rng, (3, 2))
    l = np.tril(cn_samples(rng, (3, 3))) + 2 * np.eye(3)
    design = make_design(a, l @ l.conj().T)
    for i in range(3):
        assert backhaul_mv_dl(design, (i,)) == pytest.approx(
            backhaul_p2p_dl(design, i), abs=1e-12)


def test_backhaul_mv_correlation_costs_backhaul():
    # equal diagonals: correlated noise shrinks det(Omega_S), raising g_S
    a = np.array([[1.0, 0.0], [0.0, 1.0]], dtype=complex)
    w, rho = 0.8, 0.45
    off = w * rho
    corr = make_design(a, np.array([[w, off], [off, w]], dtype=complex))
    diag = make_design(a, np.diag([w, w]).astype(complex))
    g_corr = backhaul_mv_dl(corr, (0, 1))
    g_diag = backhaul_mv_dl(diag, (0, 1))
    det_oracle = w ** 2 * (1 - rho ** 2)
    expected_gap = np.log2(w ** 2) - np.log2(det_oracle)
    assert g_corr - g_diag == pytest.approx(expected_gap, abs=1e-12)
    assert g_corr > g_diag


def test_backhaul_mv_rejects_bad_subsets():
    design = make_design(np.eye(2), np.diag([1.0, 0.0]))
    with pytest.raises(DomainError):
        backhaul_mv_dl(design, ())
    with pytest.raises(DomainError):
        backhaul_mv_dl(design, (1,))
    singular = make_design(np.eye(2), np.array([[1.0, 1.0], [1.0, 1.0]]))
    with pytest.raises(NumericalDomainError):
        backhaul_mv_dl(singular, (0, 1))


def test_rate_dl_reference_values():
    ch = dl_channel([[1.0]], [1.0])
    design = make_design([[1.0]], [[0.0]])
    assert downlink.rates_dl(design, ch)[0] == pytest.approx(1.0, abs=1e-12)
    rng = np.random.default_rng(44)
    ch2 = rand_channel(rng, 2, 2)
    a = cn_samples(rng, (2, 2))
    a[:, 0] = 0.0
    design2 = make_design(a, 0.3 * np.eye(2))
    assert downlink.rates_dl(design2, ch2)[0] == 0.0


def test_rate_dl_monte_carlo_mi():
    rng = np.random.default_rng(45)
    ch = rand_channel(rng, 2, 2)
    a = cn_samples(rng, (2, 2)) * 1.5
    l = np.tril(cn_samples(rng, (2, 2))) / 2 + 0.4 * np.eye(2)
    omega = l @ l.conj().T
    design = make_design(a, omega)
    n = 10 ** 6
    s = cn_samples(rng, (n, 2))
    x = s @ a.T + colored_noise(rng, n, omega)
    for k in range(2):
        y_k = x @ ch.h_dl[k] + cn_samples(rng, (n,), ch.sigma2_z_dl[k])
        est = mi_from_samples(s[:, [k]], y_k[:, None])
        assert downlink.rates_dl(design, ch)[k] == pytest.approx(est, rel=0.01)


def test_rate_dl_column_phase_invariance():
    rng = np.random.default_rng(46)
    ch = rand_channel(rng, 3, 2)
    a = cn_samples(rng, (3, 2))
    omega = 0.2 * np.eye(3, dtype=complex)
    base = downlink.rates_dl(make_design(a, omega), ch)
    rotated = a.copy()
    rotated[:, 1] *= np.exp(1j * 1.234)
    rot = downlink.rates_dl(make_design(rotated, omega), ch)
    assert np.allclose(base, rot, atol=1e-12)


def rate_one_ms(design, channel, k):
    """The rate of MS k from scalars: its own-stream power squared by a
    scalar's ** 2 (pow), the summed powers by an array's (x * x)."""
    r = channel.h_dl[k]
    m = r @ design.a
    qn = float(np.real(r @ design.omega @ r.conj()))
    total = channel.sigma2_z_dl[k] + float(np.sum(np.abs(m) ** 2)) + qn
    interference = total - float(np.abs(m[k]) ** 2)
    return float(np.log2(total) - np.log2(interference))


def test_rates_dl_match_the_one_ms_formula_bit_for_bit():
    rng = np.random.default_rng(65)
    for _ in range(300):
        n_bs, n_ms = int(rng.integers(1, 7)), int(rng.integers(1, 7))
        ch = rand_channel(rng, n_bs, n_ms)
        l = np.tril(cn_samples(rng, (n_bs, n_bs))) * rng.uniform(0.01, 1.0)
        design = make_design(cn_samples(rng, (n_bs, n_ms), 10.0 ** rng.uniform(
            -3, 2)), l @ l.conj().T)
        want = [rate_one_ms(design, ch, k) for k in range(n_ms)]
        assert downlink.rates_dl(design, ch).tolist() == want
    # own-stream powers whose pow and x * x squares round apart, above a
    # noise small enough that the interference can keep the difference
    ch = dl_channel([[1.0]], [0.25])
    for x in [v for v in rng.uniform(0.9, 1.1, 10 ** 4) if v ** 2 != v * v]:
        design = make_design([[x]], [[0.0]])
        assert downlink.rates_dl(design, ch).tolist() == \
            [rate_one_ms(design, ch, 0)]


def test_gs_monotone_in_subset_for_diagonal():
    rng = np.random.default_rng(47)
    a = cn_samples(rng, (4, 2))
    design = make_design(a, np.diag(rng.uniform(0.2, 1.0, 4)).astype(complex))
    subsets = enumerate_subsets(range(4))
    g = {s: backhaul_mv_dl(design, s) for s in subsets}
    for s1 in subsets:
        for s2 in subsets:
            if set(s1) <= set(s2):
                assert g[s1] <= g[s2] + 1e-12


def test_feasible_dl_accepts_quiet_design():
    design = make_design(np.zeros((3, 2)), 1e-6 * np.eye(3),
                         c=np.array([1.0, 2.0, 0.5]),
                         p_bs=np.array([5.0, 5.0, 5.0]))
    report = downlink.feasible_dl(design)
    assert report.feasible
    assert report.n_subsets_checked == 7


def test_feasible_dl_names_power_violation():
    a = np.zeros((2, 2), dtype=complex)
    a[0, 0] = np.sqrt(2.1 - 1e-8)   # with omega: 0.1 W above the limit
    design = make_design(a, 1e-8 * np.eye(2), c=np.full(2, 1000.0),
                         p_bs=np.array([2.0, 2.0]))
    report = downlink.feasible_dl(design)
    assert not report.feasible
    assert report.worst_constraint == "power[0]"
    assert report.margin == pytest.approx(-0.1, abs=1e-6)


def test_feasible_dl_subset_cap_refusal():
    n = 17
    design = make_design(np.zeros((n, 1)), np.eye(n), c=np.ones(n),
                         p_bs=np.ones(n))
    with pytest.raises(DomainError):
        downlink.feasible_dl(design)


def test_feasible_dl_inactive_bs_must_be_silent():
    a = np.zeros((2, 1), dtype=complex)
    a[1, 0] = 1.0
    design = make_design(a, 0.01 * np.eye(2), c=np.array([1.0, 0.0]),
                         p_bs=np.array([4.0, 4.0]))
    report = downlink.feasible_dl(design)
    assert not report.feasible
    assert "inactive" in report.worst_constraint


def backhaul_margin_oracle(design):
    """Worst subset slack of feasible_dl, one backhaul_mv_dl call per subset:
    -inf where the requirement is undefined (raises, or is NaN)."""
    worst = np.inf
    for subset in enumerate_subsets(design.active):
        try:
            g = backhaul_mv_dl(design, subset)
        except (DomainError, NumericalDomainError):
            return -np.inf
        if np.isnan(g):
            return -np.inf
        worst = min(worst, float(np.sum(design.c[list(subset)])) - g)
    return worst


def power_margin_oracle(design):
    """Worst power slack of feasible_dl, and the leak of any inactive BS;
    -inf where one is NaN."""
    worst = np.inf
    scale = max(float(np.max(design.p_bs, initial=0.0)), 1e-30)
    for i in range(design.a.shape[0]):
        if design.c[i] > 0:
            slack = design.p_bs[i] - tx_power(design, i)
        else:
            leak = tx_power(design, i) + float(np.sum(np.abs(design.omega[i])))
            slack = np.inf if leak <= 1e-10 * scale else -leak
        worst = min(worst, -np.inf if np.isnan(slack) else slack)
    return worst


def assert_feasible_dl_matches_oracle(design):
    report = downlink.feasible_dl(design)
    power, bh = power_margin_oracle(design), backhaul_margin_oracle(design)
    expected = min(power, bh)
    assert report.feasible == (expected >= -1e-7)
    assert report.margin == pytest.approx(expected, rel=1e-12, abs=0.0)
    assert report.n_subsets_checked == 2 ** design.active.size - 1
    if bh == -np.inf < power:
        # the named subset is one whose requirement is undefined
        assert report.worst_constraint.startswith("backhaul(")
        subset = ast.literal_eval(report.worst_constraint[len("backhaul"):])
        with np.errstate(invalid="ignore", divide="ignore"):
            try:
                g = backhaul_mv_dl(design, subset)
            except (DomainError, NumericalDomainError):
                g = np.nan
        assert np.isnan(g)
    return report


def test_feasible_dl_batched_matches_per_subset_loop():
    rng = np.random.default_rng(56)
    verdicts = set()
    for trial in range(60):
        n_bs = int(rng.integers(1, 7))
        a = cn_samples(rng, (n_bs, 3), rng.uniform(0.1, 2.0))
        l = np.tril(cn_samples(rng, (n_bs, n_bs))) \
            + rng.uniform(0.1, 1.0) * np.eye(n_bs)
        c = rng.uniform(0.5, 6.0, n_bs)
        p_bs = rng.uniform(2.0, 20.0, n_bs)
        if n_bs > 1 and trial % 3 == 0:        # an inactive BS, silent or not
            i = int(rng.integers(n_bs))
            c[i] = 0.0
            if trial % 2:
                a[i] = 0.0
                l[i] = 0.0
        design = make_design(a, l @ l.conj().T, c=c, p_bs=p_bs)
        verdicts.add(assert_feasible_dl_matches_oracle(design).feasible)
    assert verdicts == {True, False}


def test_feasible_dl_undefined_blocks_give_minus_infinity():
    a = 0.1 * np.ones((3, 2), dtype=complex)
    c, p_bs = np.full(3, 50.0), np.full(3, 10.0)
    not_pd = np.array([[1.0, 0.9, 0.9], [0.9, 1.0, -0.9], [0.9, -0.9, 1.0]])
    nan_entry = 0.5 * np.eye(3, dtype=complex)
    nan_entry[0, 2] = nan_entry[2, 0] = np.nan
    pair_not_pd = np.array([[1.0, 2.0, 0.0], [2.0, 1.0, 0.0], [0.0, 0.0, 1.0]])
    zero_diag = np.diag([0.5, 0.0, 0.5])
    nan_precoder = a.copy()
    nan_precoder[2, 1] = np.nan
    for a_, omega in ((a, not_pd), (a, pair_not_pd), (a, nan_entry),
                      (a, zero_diag), (nan_precoder, 0.5 * np.eye(3))):
        report = assert_feasible_dl_matches_oracle(
            make_design(a_, omega, c=c, p_bs=p_bs))
        assert not report.feasible and report.margin == -np.inf
    # the zero diagonal of a silent inactive BS is no subset's business
    quiet = a.copy()
    quiet[1] = 0.0
    c_quiet = np.array([50.0, 0.0, 50.0])
    report = assert_feasible_dl_matches_oracle(
        make_design(quiet, zero_diag, c=c_quiet, p_bs=p_bs))
    assert report.feasible and report.n_subsets_checked == 3
    # but a NaN in its precoder row or its Omega row is a leak of unknown size
    nan_row = quiet.copy()
    nan_row[1, 0] = np.nan
    nan_omega_row = 0.5 * np.eye(3, dtype=complex)
    nan_omega_row[1, 1] = 0.0
    nan_omega_row[1, 0] = np.nan
    for a_, omega in ((nan_row, zero_diag), (quiet, nan_omega_row)):
        report = assert_feasible_dl_matches_oracle(
            make_design(a_, omega, c=c_quiet, p_bs=p_bs))
        assert not report.feasible and report.margin == -np.inf
        assert report.worst_constraint == "inactive_bs[1]"


def test_feasible_dl_matches_loop_on_sweep_designs(monkeypatch):
    designs = []
    optimize = downlink.optimize_dl

    def recorded(*args, **kwargs):
        result = optimize(*args, **kwargs)
        designs.append(result.design)
        return result

    monkeypatch.setattr(downlink, "optimize_dl", recorded)
    cfg = harness.ExperimentConfig(**{**harness.PRESETS["dl-sweep-b"],
                                      "alpha": 2.0, "slots": 2, "drops": 1,
                                      "seed": 1, "jobs": 1})
    harness.run_experiment(cfg)
    assert len(designs) == 4
    assert {d.mode for d in designs} == {"point_to_point", "multiterminal"}
    for design in designs:
        assert assert_feasible_dl_matches_oracle(design).feasible


class _ScalarDC:
    """max log2(1+4x) - 1.2 log2(1+x) on [0, 10]; optimum at x* = 3.5."""

    lo, hi = 0.0, 10.0

    def objective(self, x):
        return float(np.log2(1 + 4 * x) - 1.2 * np.log2(1 + x))

    def violation(self, x):
        return float(max(x - self.hi, self.lo - x))

    def step(self, x0):
        # tangent of the subtracted concave term, then exact concave maximization
        slope = 1.2 / ((1 + x0) * LN2)
        x = (4.0 / (slope * LN2) - 1.0) / 4.0
        return float(np.clip(x, self.lo, self.hi))


def test_mm_solve_scalar_dc_toy(monkeypatch):
    monkeypatch.setattr(downlink, "MM_TOL", 1e-14)
    monkeypatch.setattr(downlink, "MM_MAX_ITER", 200)
    x, trace = downlink.mm_solve(_ScalarDC(), 0.0)
    assert x == pytest.approx(3.5, abs=1e-4)
    assert trace.converged
    diffs = np.diff(trace.objective)
    assert np.all(diffs >= -1e-9)


def test_mm_solve_stationary_point_converges_immediately(monkeypatch):
    monkeypatch.setattr(downlink, "MM_TOL", 1e-8)
    x, trace = downlink.mm_solve(_ScalarDC(), 3.5)
    assert trace.converged
    assert trace.iterations == 1
    assert x == pytest.approx(3.5, abs=1e-9)


def test_mm_solve_rejects_infeasible_start():
    # a NaN start has a NaN violation, and NaN > tol is False
    for start in (11.0, np.nan):
        with pytest.raises(NumericalDomainError):
            downlink.mm_solve(_ScalarDC(), start)


def test_mm_solve_reports_non_convergence(monkeypatch):
    monkeypatch.setattr(downlink, "MM_TOL", 0.0)
    monkeypatch.setattr(downlink, "MM_MAX_ITER", 3)
    x, trace = downlink.mm_solve(_ScalarDC(), 0.0)
    assert not trace.converged
    assert any("no convergence" in w for w in trace.warnings)
    assert trace.iterations == 3


class _BadStepProblem(_ScalarDC):
    def __init__(self, bad):
        self.bad = bad

    def step(self, x0):
        return self.bad


def test_mm_solve_feasibility_backtracking(monkeypatch):
    # a step far outside the box, and one whose violation is NaN
    monkeypatch.setattr(downlink, "MM_MAX_ITER", 4)
    for bad in (50.0, np.nan):
        x, trace = downlink.mm_solve(_BadStepProblem(bad), 5.0)
        assert x == 5.0
        assert trace.warnings == [
            "step left the feasible set; keeping previous iterate"]
        assert not trace.converged
        assert trace.iterations == 0
        assert trace.objective == [_ScalarDC().objective(5.0)]


class _DownhillStepProblem(_ScalarDC):
    def step(self, x0):
        return x0 - 1.0  # feasible, but away from the optimum at 3.5


def test_mm_solve_objective_decrease_stops_unconverged():
    x, trace = downlink.mm_solve(_DownhillStepProblem(), 3.0)
    assert x == 3.0
    assert trace.warnings == [
        "surrogate step decreased the objective; stopping at previous iterate"]
    assert not trace.converged
    assert trace.iterations == 0
    assert trace.objective == [_ScalarDC().objective(3.0)]


def test_optimize_single_link_grid_oracle():
    # one BS, one MS: brute-force the (signal, noise) power split
    ch = dl_channel([[0.9 - 0.4j]], [1.0])
    c = np.array([2.0])
    p_bs = np.array([4.0])
    res = downlink.optimize_dl(ch, c, p_bs, np.ones(1), "point_to_point")
    g2 = abs(ch.h_dl[0, 0]) ** 2

    def rate(sig, w):
        if np.log2((sig + w) / w) > c[0] or sig + w > p_bs[0]:
            return -np.inf
        return np.log2(1 + sig * g2 / (1 + w * g2))

    grid = np.linspace(1e-4, 4.0, 400)
    best = max(rate(s, w) for s in grid for w in grid)
    assert res.objective >= best - 0.02
    # optimum saturates the power budget and the backhaul constraint
    assert tx_power(res.design, 0) == pytest.approx(4.0, rel=0.02)
    assert backhaul_p2p_dl(res.design, 0) == pytest.approx(2.0, rel=0.02)


def test_optimize_large_capacity_single_ms_hits_mrt_bound():
    rng = np.random.default_rng(48)
    ch = rand_channel(rng, 3, 1)
    p_bs = np.array([2.0, 1.0, 1.5])
    res = downlink.optimize_dl(ch, np.full(3, 40.0), p_bs, np.ones(1),
                               "point_to_point")
    h = ch.h_dl[0]
    bound = np.log2(1 + (np.abs(h) @ np.sqrt(p_bs)) ** 2
                    / ch.sigma2_z_dl[0])
    assert res.rates[0] == pytest.approx(bound, abs=1e-2)
    assert res.rates[0] <= bound + 1e-9


def test_optimize_multiterminal_dominates_p2p():
    rng = np.random.default_rng(49)
    for _ in range(5):
        ch = rand_channel(rng, 3, 2)
        c = rng.uniform(1.0, 4.0, 3)
        p_bs = rng.uniform(2.0, 8.0, 3)
        w = rng.uniform(0.5, 1.5, 2)
        p2p = downlink.optimize_dl(ch, c, p_bs, w, "point_to_point")
        mt = downlink.optimize_dl(ch, c, p_bs, w, "multiterminal",
                                  init=p2p.design)
        assert mt.objective >= p2p.objective - 1e-9
        assert downlink.feasible_dl(mt.design).margin >= -1e-7
        assert np.all(np.diff(mt.trace.objective) >= -1e-9)
        assert np.all(np.diff(p2p.trace.objective) >= -1e-9)


def test_multiterminal_refines_only_a_point_to_point_init():
    rng = np.random.default_rng(50)
    ch = rand_channel(rng, 2, 2)
    c, p_bs, w = np.array([2.0, 1.5]), np.array([4.0, 4.0]), np.ones(2)
    p2p = downlink.optimize_dl(ch, c, p_bs, w, "point_to_point")
    mt = downlink.optimize_dl(ch, c, p_bs, w, "multiterminal",
                              init=p2p.design)
    assert mt.objective >= p2p.objective - 1e-9
    for init in (None, mt.design):
        with pytest.raises(DomainError):
            downlink.optimize_dl(ch, c, p_bs, w, "multiterminal", init=init)
    with pytest.raises(DomainError):
        downlink.optimize_dl(ch, c, p_bs, w, "point_to_point",
                             init=p2p.design)


def test_optimize_inactive_bs_silenced():
    rng = np.random.default_rng(51)
    ch = rand_channel(rng, 3, 2)
    c = np.array([2.0, 0.0, 2.0])
    res = downlink.optimize_dl(ch, c, np.full(3, 5.0), np.ones(2),
                               "point_to_point")
    assert np.all(res.design.a[1] == 0)
    assert res.design.omega[1, 1] == 0
    assert downlink.feasible_dl(res.design).feasible


def test_optimize_validates_inputs():
    rng = np.random.default_rng(52)
    ch = rand_channel(rng, 2, 2)
    with pytest.raises(DomainError):
        downlink.optimize_dl(ch, np.ones(2), np.array([1.0, -1.0]),
                             np.ones(2), "point_to_point")
    with pytest.raises(DomainError):
        downlink.optimize_dl(ch, np.ones(2), np.ones(2),
                             np.array([1.0, -2.0]), "point_to_point")


@pytest.mark.parametrize("mode", ["point_to_point", "multiterminal"])
def test_subset_cap_counts_active_bss_only(mode):
    rng = np.random.default_rng(57)
    ch = rand_channel(rng, 17, 2)
    c = np.zeros(17)
    c[[2, 9, 16]] = rng.uniform(1.0, 3.0, 3)
    p_bs = np.full(17, 4.0)
    res = downlink.optimize_dl(ch, c, p_bs, np.ones(2), "point_to_point")
    init = res.design if mode == "multiterminal" else None
    if init is not None:
        res = downlink.optimize_dl(ch, c, p_bs, np.ones(2), mode, init=init)
    assert np.all(res.design.a[c == 0] == 0) and res.objective > 0
    assert downlink.feasible_dl(res.design).feasible
    with pytest.raises(DomainError, match="capped"):
        downlink.optimize_dl(ch, np.ones(17), p_bs, np.ones(2), mode,
                             init=init)


def test_p2p_mode_design_has_diagonal_omega():
    rng = np.random.default_rng(53)
    ch = rand_channel(rng, 3, 2)
    res = downlink.optimize_dl(ch, np.full(3, 2.0), np.full(3, 4.0),
                               np.ones(2), "point_to_point")
    off = res.design.omega - np.diag(np.diag(res.design.omega))
    assert np.allclose(off, 0.0)


def count_factorings(monkeypatch, record):
    """Wrap the subset log-det kernel, which factors an Omega's chain
    orderings, so that record(omega.tobytes()) runs on every call."""
    kernel = downlink._subset_logdets

    def counted(omega):
        record(omega.tobytes())
        return kernel(omega)

    monkeypatch.setattr(downlink, "_subset_logdets", counted)


def test_inner_step_factors_each_omega_once(monkeypatch):
    """Within one inner solve, no Omega has its subset log-dets factored
    twice: A-steps reuse the noise terms of the point they step from."""
    steps, active = [], []
    step = downlink._PrecodingProblem.step

    def counted_step(self, point):
        active.append([])
        try:
            return step(self, point)
        finally:
            steps.append(active.pop())

    def record(key):
        if active:
            active[-1].append(key)

    count_factorings(monkeypatch, record)
    monkeypatch.setattr(downlink._PrecodingProblem, "step", counted_step)
    monkeypatch.setattr(downlink, "MM_MAX_ITER", 3)
    rng = np.random.default_rng(54)
    ch = rand_channel(rng, 4, 3)
    solve_multiterminal(ch, rng.uniform(1.0, 4.0, 4), rng.uniform(2.0, 8.0, 4),
                        np.ones(3))
    steps = [k for k in steps if k]     # the point-to-point start has none
    assert sum(map(len, steps)) > len(steps) > 0
    for calls in steps:
        assert len(set(calls)) == len(calls)


def test_optimize_dl_factors_each_omega_once(monkeypatch):
    """Over one whole multiterminal design, no Omega has its subset log-dets
    factored twice: mm_solve's feasibility check and the next step reuse the
    noise terms of the point the last step returned."""
    calls = []
    count_factorings(monkeypatch, calls.append)
    rng = np.random.default_rng(54)
    ch = rand_channel(rng, 4, 3)
    result = solve_multiterminal(ch, rng.uniform(1.0, 4.0, 4),
                                 rng.uniform(2.0, 8.0, 4), np.ones(3))
    assert result.trace.iterations > 1
    assert len(calls) > 0
    assert len(set(calls)) == len(calls)


def test_a_step_inverts_no_subset_block(monkeypatch):
    """Only a noise step needs the inverses of Omega's chain factors: every
    _subset_inv_scatter call of a multiterminal design feeds a noise-block
    line search, never an A-block one."""
    events = []
    scatter, moved = downlink._subset_inv_scatter, downlink._Iterate.moved

    def counted_scatter(factors, coeffs):
        events.append("inv")
        return scatter(factors, coeffs)

    def counted_moved(self, block, grad, eta):
        events.append(block)
        return moved(self, block, grad, eta)

    monkeypatch.setattr(downlink, "_subset_inv_scatter", counted_scatter)
    monkeypatch.setattr(downlink._Iterate, "moved", counted_moved)
    monkeypatch.setattr(downlink, "MM_MAX_ITER", 3)
    rng = np.random.default_rng(54)
    ch = rand_channel(rng, 4, 3)
    solve_multiterminal(ch, rng.uniform(1.0, 4.0, 4), rng.uniform(2.0, 8.0, 4),
                        np.ones(3))
    after_inv = [b for prev, b in zip(events, events[1:]) if prev == "inv"]
    assert len(after_inv) == events.count("inv") > 0
    assert "a" not in after_inv


def test_one_reduction_screens_match_elementwise_ones():
    """The inner loop's screens reject exactly what the elementwise forms
    reject, NaN included: fmin skips NaN, and minimum propagates it."""
    rng = np.random.default_rng(62)
    values = np.array([-1.0, -0.0, 0.0, 1e-300, 1.0, np.inf, -np.inf, np.nan])
    for _ in range(500):
        x = rng.choice(values, size=int(rng.integers(1, 6)))
        assert bool(downlink._fmin(x) <= 0) == bool((x <= 0).any())
        assert bool(downlink._minimum(x) > 0) == bool((x > 0).all())


@pytest.mark.parametrize("mode", ["point_to_point", "multiterminal"])
def test_inner_gradients_match_finite_differences(mode):
    """The A gradient and the lower triangle of the L gradient are
    (d/dRe + i d/dIm)/2 of the barrier value, the u gradient is its
    derivative in u."""
    rng = np.random.default_rng(55)
    n_bs, n_ms = 3, 2
    hbar = rand_channel(rng, n_bs, n_ms).h_dl
    weights, caps = rng.uniform(0.5, 1.5, n_ms), rng.uniform(1.0, 3.0, n_bs)
    problem = downlink._PrecodingProblem(hbar, weights, caps, mode)
    # the p2p cold start; multiterminal starts from its diagonal Omega
    start = downlink._PrecodingProblem(
        hbar, weights, caps, "point_to_point").cold_start()
    noise_param = "l" if mode == "multiterminal" else "u"
    x_start = np.diag(np.exp(start.u / 2)).astype(complex) \
        if noise_param == "l" else start.u

    def at(a, x, tangent=None):
        it = downlink._Iterate(problem, a, **{noise_param: x})
        if tangent is not None:
            it.evaluate(tangent)
        return it

    tangent = problem._tangent(at(start.a, x_start))
    # a nearby point with a generic (correlated, for multiterminal) Omega
    a = start.a * (0.9 + 0.05 * cn_samples(rng, (n_bs, n_ms)))
    if noise_param == "l":
        x = x_start + 0.02 * np.tril(cn_samples(rng, (n_bs, n_bs)))
    else:
        x = x_start + 0.02 * rng.standard_normal(n_bs)
    mu = 0.05

    def barrier(a, x):
        return at(a, x, tangent).value(mu)

    ev = at(a, x, tangent)
    assert ev.surr is not None

    h = 1e-6
    for block, var in (("a", a), ("noise", x)):
        grad = problem._gradient(ev, tangent, mu, block)
        real = block == "noise" and noise_param == "u"
        dirs = (1.0,) if real else (1.0, 1j)            # Re, then Im
        fd = np.zeros_like(grad)
        for idx in np.ndindex(var.shape):
            if block == "noise" and noise_param == "l" and idx[1] > idx[0]:
                continue
            for d in dirs:
                def shifted(sign):
                    y = var.copy()
                    y[idx] += sign * h * d
                    return barrier(y, x) if block == "a" else barrier(a, y)
                fd[idx] += (shifted(1) - shifted(-1)) / (2 * h) * d / len(dirs)
        err = np.linalg.norm(grad - fd) / np.linalg.norm(fd)
        assert err < 1e-5, (block, err)


def random_omega(rng, n):
    """A generic Omega = L L^H, made as the multiterminal solver makes it."""
    l = np.tril(cn_samples(rng, (n, n))) + rng.uniform(0.05, 1.0) * np.eye(n)
    return downlink._Iterate(None, np.zeros((n, 1)), l=l).omega


def block_logdet(omega, s):
    """log2 det of Omega's block on subset s, from its own Cholesky factor."""
    return 2.0 * np.sum(np.log2(np.diagonal(np.linalg.cholesky(
        omega[np.ix_(s, s)])).real))


@pytest.mark.parametrize("n", range(1, 13))
def test_symmetric_chains_cover_every_subset_once(n):
    chains = downlink._symmetric_chains(n)
    assert len(chains) == math.comb(n, n // 2)
    seen = []
    for chain in chains:
        for smaller, larger in zip(chain, chain[1:]):
            assert set(smaller) < set(larger)
            assert len(larger) == len(smaller) + 1
        seen += [frozenset(s) for s in chain if s]
    assert len(seen) == len(set(seen)) == 2 ** n - 1
    if n <= 6:
        # each subset is the leading block of its chain's ordering
        lattice = downlink._lattice(n)
        order = lattice.gather[:, :, 0] // n
        for j, s in enumerate(enumerate_subsets(range(n))):
            chain, size = divmod(int(lattice.source[j]), n)
            assert sorted(order[chain, :size + 1]) == list(s)


@pytest.mark.parametrize("n", range(1, 7))
def test_lattice_masks_are_the_subsets_in_order(n):
    """Each mask row is its subset's membership, subsets ordered by size and
    then lexicographically; the singleton rows are the identity, and the
    groups hold each size's rows and members."""
    lattice = downlink._lattice(n)
    subsets = enumerate_subsets(range(n))
    want = np.array([[float(i in s) for i in range(n)] for s in subsets])
    assert np.array_equal(lattice.masks, want)
    assert np.array_equal(lattice.masks[:n], np.eye(n))
    assert np.array_equal(lattice.masks_t, want.T)
    assert lattice.masks_t.flags.c_contiguous
    for size, (rows, members) in enumerate(lattice.groups, start=1):
        assert [tuple(m) for m in members.tolist()] == subsets[rows]
        assert members.shape[1] == size
    assert lattice.groups[-1][0].stop == len(subsets) == 2 ** n - 1


@pytest.mark.parametrize("n", range(1, 7))
def test_lattice_is_one_read_only_table_per_bs_count(n):
    lattice = downlink._lattice(n)
    assert downlink._lattice(n) is lattice
    arrays = [lattice.masks, lattice.masks_t, lattice.gather, lattice.source,
              lattice.columns] + [m for _, m in lattice.groups]
    for array in arrays:
        assert not array.flags.writeable
        with pytest.raises(ValueError):
            array.flat[0] = array.flat[0]


def test_oversize_cluster_is_refused_before_any_factorization(monkeypatch):
    """Both entry points refuse a cluster of more than SUBSET_ENUM_CAP
    active BSs with one message, before they factor anything."""
    n = downlink.SUBSET_ENUM_CAP + 1
    rng = np.random.default_rng(64)
    ch = rand_channel(rng, n, 2)
    p_bs = np.full(n, 4.0)
    init = make_design(np.zeros((n, 2)), np.eye(n), c=np.ones(n), p_bs=p_bs,
                       mode="point_to_point")

    def refused(*args, **kwargs):
        raise AssertionError("factored before the cap check")

    monkeypatch.setattr(np.linalg, "cholesky", refused)
    messages = set()
    for call in (lambda: downlink.feasible_dl(init),
                 lambda: downlink.optimize_dl(ch, np.ones(n), p_bs,
                                              np.ones(2), "point_to_point"),
                 lambda: downlink.optimize_dl(ch, np.ones(n), p_bs,
                                              np.ones(2), "multiterminal",
                                              init=init)):
        with pytest.raises(DomainError) as info:
            call()
        messages.add(str(info.value))
    assert messages == {f"subset enumeration capped at "
                        f"{downlink.SUBSET_ENUM_CAP} active BSs (got {n})"}


def test_feasible_dl_takes_a_design_with_no_active_bs():
    design = make_design(np.zeros((2, 1)), np.zeros((2, 2)), c=np.zeros(2),
                         p_bs=np.ones(2), mode="point_to_point")
    report = downlink.feasible_dl(design)
    assert report.feasible and report.n_subsets_checked == 0
    assert (report.margin, report.worst_constraint) == (np.inf, "none")


def test_subset_logdets_match_per_subset_cholesky():
    rng = np.random.default_rng(58)
    for n in range(1, 7):
        for _ in range(40):
            omega = random_omega(rng, n)
            oracle = np.array([block_logdet(omega, s)
                               for s in enumerate_subsets(range(n))])
            logdets, _ = downlink._subset_logdets(omega)
            assert np.all(np.abs(logdets - oracle)
                          <= 1e-12 * np.maximum(1.0, np.abs(oracle)))


def test_subset_logdets_mark_undefined_blocks():
    """A block with a non-positive diagonal, a non-finite entry or no
    Cholesky factor gets -inf, and every other block its finite log-det;
    no value is +inf or NaN.  Both the solver's true constraints and its
    surrogate reject such an Omega, with capacities so large that a positive
    definite one passes."""
    rng = np.random.default_rng(60)
    problem = downlink._PrecodingProblem(
        rand_channel(rng, 3, 3).h_dl, np.ones(3), np.full(3, 10.0),
        "multiterminal")
    a = 0.2 * cn_samples(rng, (3, 3))

    def point(l):
        return downlink._Iterate(problem, a, l=l)

    tangent = problem._tangent(point(0.5 * np.eye(3)))
    subsets = enumerate_subsets(range(3))
    nan_l = np.eye(3, dtype=complex)
    nan_l[2, 0] = np.nan
    nan_omega = np.eye(3, dtype=complex)
    nan_omega[0, 1] = nan_omega[1, 0] = np.nan
    # (L, or Omega where no L L^H makes it; subsets at -inf)
    cases = (
        ("l", np.eye(3), set()),
        ("l", [[1, 0, 0], [0.5, 1, 0], [1, 1, 0]], {(0, 1, 2)}),
        # finite with a positive diagonal, but the batch fails to factor:
        # each chain is factored alone
        ("l", [[1, 0, 0], [1, 0, 0], [0, 0, 1]], {(0, 1), (0, 1, 2)}),
        ("l", [[1, 0, 0], [0, 0, 0], [0.3, 0.2, 1]],
         {s for s in subsets if 1 in s}),
        ("l", nan_l, {s for s in subsets if 2 in s}),
        ("omega", nan_omega, {(0, 1), (0, 1, 2)}),
    )
    for kind, matrix, minus_inf in cases:
        if kind == "omega":
            omega = matrix
        else:
            at = point(0.5 * np.asarray(matrix))
            omega = at.omega
            violation = problem.violation(at)
            at.evaluate(tangent)
            surr = at.surr
            if not minus_inf:
                assert violation <= FEASIBILITY_TOL and surr is not None
                continue
            assert not violation <= FEASIBILITY_TOL and surr is None
            if np.isfinite(at.power).all():
                assert violation == np.inf
        logdets, _ = downlink._subset_logdets(omega)
        for s, value in zip(subsets, logdets):
            if s in minus_inf:
                assert value == -np.inf, s
            else:
                assert value == pytest.approx(block_logdet(omega, s),
                                              rel=1e-12, abs=1e-12), s


def test_subset_logdets_singletons_are_twice_log2_sqrt_diagonal():
    """A singleton's log-det is 2 log2 of its 1x1 Cholesky pivot sqrt(d),
    bit for bit, where d is finite and > 0, and -inf elsewhere: so the
    surrogate's backhaul slacks hold the singleton conditions exactly as a
    separate screen of the diagonal would."""
    rng = np.random.default_rng(63)
    omegas = []
    for n in range(1, 7):
        for _ in range(20):
            omegas.append(random_omega(rng, n))
            # Hermitian but, for n > 1, mostly indefinite: some chains do
            # not factor, and some diagonal entries are negative
            x = cn_samples(rng, (n, n))
            omegas.append(x + x.conj().T)
    for n in (1, 3, 5):
        for bad in (0.0, -0.5, np.nan):
            omega = random_omega(rng, n)
            omega[n // 2, n // 2] = bad
            omegas.append(omega)
    for n in (2, 4):
        omega = random_omega(rng, n)
        omega[0, n - 1] = omega[n - 1, 0] = np.nan
        omegas.append(omega)
    for omega in omegas:
        n = omega.shape[0]
        d = omega.diagonal().real
        with np.errstate(divide="ignore", invalid="ignore"):
            defined = np.isfinite(d) & (d > 0)
            want = np.where(defined, 2.0 * np.log2(np.sqrt(d)), -np.inf)
        logdets, _ = downlink._subset_logdets(omega)
        assert np.array_equal(logdets[:n], want), omega


def test_solver_refuses_an_omega_some_chain_cannot_factor():
    """A nearly singular Omega can factor in one BS ordering and not in
    another.  Every subset log-det is then finite, but with no chain
    factors there is no noise gradient, so the solver takes the whole set's
    condition as undefined, even with capacities that would admit it."""
    rng = np.random.default_rng(61)
    problem = downlink._PrecodingProblem(
        rand_channel(rng, 3, 3).h_dl, np.ones(3), np.full(3, 50.0),
        "multiterminal")
    for _ in range(200):
        l = np.tril(cn_samples(rng, (3, 3))) + np.eye(3)
        l[2, 2] = 1e-9
        at = downlink._Iterate(problem, 0.01 * np.ones((3, 3), dtype=complex),
                               l=l)
        logdets, factors = downlink._subset_logdets(at.omega)
        if factors is None and np.isfinite(logdets).all():
            break
    else:
        pytest.fail("no Omega with a chain that does not factor")
    assert at.subset_logdets()[-1] == -np.inf
    assert np.array_equal(at.logdets[:-1], logdets[:-1])
    assert problem.violation(at) == np.inf
    at.evaluate(problem._tangent(
        downlink._Iterate(problem, at.a, l=0.5 * np.eye(3))))
    assert at.surr is None


def test_subset_inv_scatter_matches_add_at():
    rng = np.random.default_rng(59)
    for n in range(1, 7):
        for _ in range(40):
            omega = random_omega(rng, n)
            subsets = enumerate_subsets(range(n))
            coeffs = rng.uniform(0.0, 2.0, len(subsets))
            oracle = np.zeros((n, n), dtype=complex)
            for size in range(1, n + 1):
                rows = [j for j, s in enumerate(subsets) if len(s) == size]
                gather = np.array([subsets[j] for j in rows])
                idx = (gather[:, :, None], gather[:, None, :])
                scaled = np.linalg.inv(omega[idx]) \
                    * coeffs[rows][:, None, None]
                np.add.at(oracle, idx, scaled)
            _, factors = downlink._subset_logdets(omega)
            scatter = downlink._subset_inv_scatter(factors, coeffs)
            assert np.linalg.norm(scatter - oracle) \
                <= 1e-9 * np.linalg.norm(oracle)


def test_inner_step_forms_each_noise_term_once(monkeypatch):
    """Within one inner solve, the quantization-noise form of each Omega is
    computed at most once: A-steps reuse it from the point they step from."""
    steps, active = [], []
    qn, step = downlink._quant_noise, downlink._PrecodingProblem.step

    def counted_qn(problem, l, omega):
        if active:
            active[-1].append(omega.tobytes())
        return qn(problem, l, omega)

    def counted_step(self, point):
        active.append([])
        try:
            return step(self, point)
        finally:
            steps.append(active.pop())

    monkeypatch.setattr(downlink, "_quant_noise", counted_qn)
    monkeypatch.setattr(downlink._PrecodingProblem, "step", counted_step)
    monkeypatch.setattr(downlink, "MM_MAX_ITER", 3)
    rng = np.random.default_rng(54)
    ch = rand_channel(rng, 4, 3)
    solve_multiterminal(ch, rng.uniform(1.0, 4.0, 4), rng.uniform(2.0, 8.0, 4),
                        np.ones(3))
    assert sum(map(len, steps)) > len(steps) > 0
    for calls in steps:
        assert len(set(calls)) == len(calls)


def test_inner_step_forms_each_precoder_term_once(monkeypatch):
    """Within one inner solve, the row powers and the received signals of
    each precoder are computed at most once: noise-step candidates share
    them with the point they step from."""
    steps, active = [], []
    step = downlink._PrecodingProblem.step
    row_power, signal = downlink._row_power, downlink._signal

    def counted_power(a):
        if active:
            active[-1].append(("power", a.tobytes()))
        return row_power(a)

    def counted_signal(hbar, a):
        if active:
            active[-1].append(("signal", a.tobytes()))
        return signal(hbar, a)

    def counted_step(self, point):
        active.append([])
        try:
            return step(self, point)
        finally:
            steps.append(active.pop())

    monkeypatch.setattr(downlink, "_row_power", counted_power)
    monkeypatch.setattr(downlink, "_signal", counted_signal)
    monkeypatch.setattr(downlink._PrecodingProblem, "step", counted_step)
    monkeypatch.setattr(downlink, "MM_MAX_ITER", 3)
    rng = np.random.default_rng(54)
    ch = rand_channel(rng, 4, 3)
    for mode in ("point_to_point", "multiterminal"):
        steps.clear()
        if mode == "point_to_point":
            downlink.optimize_dl(ch, rng.uniform(1.0, 4.0, 4),
                                 rng.uniform(2.0, 8.0, 4), np.ones(3), mode)
        else:
            solve_multiterminal(ch, rng.uniform(1.0, 4.0, 4),
                                rng.uniform(2.0, 8.0, 4), np.ones(3))
        assert sum(map(len, steps)) > len(steps) > 0, mode
        for calls in steps:
            assert len(set(calls)) == len(calls), mode
