import numpy as np
import pytest

from cransim import downlink, mmopt, uplink
from cransim.errors import DomainError, NumericalDomainError
from cransim.mmopt import LN2
from helpers import (logdet2, logdet2_oracle, rand_channel, rand_psd,
                     ul_psi_oracle)


def _single_ms_tangent(rng, n_bs, n_ms):
    """The uplink tangent of psi_k alone (weight e_k) at a random p0."""
    ch = rand_channel(rng, n_bs, n_ms)
    k = int(rng.integers(n_ms))
    weights = np.zeros(n_ms)
    weights[k] = 1.0
    p_max = rng.uniform(0.5, 2.0, n_ms)
    p0 = rng.uniform(0.1, 1.0, n_ms) * p_max
    g0 = uplink._g_matrix(ch.h_ul, ch.sigma2_z_ul, p0)
    return ch, k, p0, weights @ uplink._tangent_slopes(g0, p0) / LN2


def test_tangent_dominates_logdet_everywhere():
    # psi_k is concave on p >= 0, so its tangent at p0 lies above it on the
    # whole nonnegative orthant, not only inside the power box; the points
    # near p0 catch a tangent with a wrong slope
    rng = np.random.default_rng(17)
    for _ in range(100):
        ch, k, p0, slopes = _single_ms_tangent(rng, 3, 3)
        psi = lambda p: ul_psi_oracle(ch.h_ul, ch.sigma2_z_ul, p, k)
        psi0 = psi(p0)
        points = [np.zeros_like(p0), rng.uniform(0.0, 10.0, p0.size)]
        points += [p0 * (1.0 + 0.01 * rng.uniform(-1.0, 1.0, p0.size))
                   for _ in range(4)]
        for p in points:
            assert psi0 + float(slopes @ (p - p0)) >= psi(p) - 1e-9
        assert slopes[k] == 0.0


def test_logdet_gradient_matches_finite_differences():
    # every entry d psi_k / d p_j of the tangent, against a central difference
    rng = np.random.default_rng(18)
    for _ in range(5):
        ch, k, p0, slopes = _single_ms_tangent(rng, 4, 4)
        for j in range(p0.size):
            h = 1e-6 * np.linalg.norm(p0)
            e = np.zeros_like(p0)
            e[j] = h
            numeric = (ul_psi_oracle(ch.h_ul, ch.sigma2_z_ul, p0 + e, k)
                       - ul_psi_oracle(ch.h_ul, ch.sigma2_z_ul, p0 - e, k)) \
                / (2 * h)
            assert numeric == pytest.approx(slopes[j], rel=1e-5)


def _optimize_dl_multiterminal(ch, c, p, w):
    """The multiterminal downlink solve, refining a point-to-point design
    solved at valid inputs, so that its own input check is the one tested."""
    ones = np.ones(ch.n_bs)
    init = downlink.optimize_dl(ch, ones, ones, np.ones(ch.n_ms),
                                "point_to_point").design
    return downlink.optimize_dl(ch, c, p, w, "multiterminal", init=init)


@pytest.mark.parametrize("solve, n_powers", [
    (lambda ch, c, p, w: uplink.optimize_ul(ch, c, w, "multiterminal", p), 2),
    (_optimize_dl_multiterminal, 3),
], ids=["optimize_ul", "optimize_dl"])
def test_solvers_reject_non_finite_or_out_of_range_inputs(solve, n_powers):
    """A NaN capacity would silence its BS and a NaN weight give a NaN
    objective, both without a word: each bad value raises instead.  So does
    a weight vector that is not one per MS, or a capacity or power vector
    that is not one per BS (one per MS, or one for all, for uplink powers),
    where numpy would broadcast or index past the end."""
    ch = rand_channel(np.random.default_rng(61), 3, 2)
    good = {"c": np.ones(3), "p": np.ones(n_powers), "w": np.ones(2)}
    assert np.isfinite(solve(ch, **good).objective)
    bad_values = {"c": (np.nan, np.inf, -1.0), "w": (np.nan, np.inf, -1.0),
                  "p": (np.nan, np.inf, 0.0, -1.0)}
    for name, values in bad_values.items():
        for value in values:
            args = {**good, name: np.append(good[name][1:], value)}
            with pytest.raises(DomainError):
                solve(ch, **args)
    bad_lengths = {"w": (np.ones(1), np.ones(3), 1.0),
                   "c": (np.ones(2), np.ones(4), 1.0),
                   "p": (np.ones(5 - n_powers), np.ones((1, n_powers)))}
    for name, values in bad_lengths.items():
        for value in values:
            with pytest.raises(DomainError, match="must be one per"):
                solve(ch, **{**good, name: value})


def test_solvers_refuse_an_unknown_mode_before_any_work(monkeypatch):
    """A bogus mode raises before the uplink builds its vertex table and
    before the downlink runs an MM loop."""
    calls = []

    def spy(*args, **kwargs):
        calls.append(args)
        raise AssertionError("reached past the mode check")

    monkeypatch.setattr(uplink, "VertexTable", spy)
    monkeypatch.setattr(downlink, "mm_solve", spy)
    ch = rand_channel(np.random.default_rng(62), 2, 2)
    ones = np.ones(2)
    for mode in ("bogus", None, "both"):
        with pytest.raises(DomainError, match="unknown mode"):
            uplink.optimize_ul(ch, ones, ones, mode, ones)
        with pytest.raises(DomainError, match="unknown mode"):
            downlink.optimize_dl(ch, ones, ones, ones, mode)
    for design in (lambda: uplink.UplinkDesign(ones, ones, (0, 1), ones,
                                               "bogus"),
                   lambda: downlink.DownlinkDesign(np.eye(2), np.eye(2), ones,
                                                   ones, "bogus"),
                   lambda: uplink.omega_closed_form(ones, [0, 1], ones, ch,
                                                    "bogus")):
        with pytest.raises(DomainError, match="unknown mode"):
            design()
    assert calls == []


def test_logdet2_reference_values():
    assert logdet2(np.eye(3)) == pytest.approx(0.0, abs=1e-12)
    assert logdet2(np.diag([2.0, 2.0])) == pytest.approx(2.0, abs=1e-12)


def test_logdet2_matches_eigenvalue_oracle():
    rng = np.random.default_rng(4)
    for _ in range(20):
        m = rand_psd(rng, 4)
        assert logdet2(m) == pytest.approx(logdet2_oracle(m), abs=1e-9)


def test_cholesky_rejects_indefinite_naming_eigenvalue():
    m = np.diag([1.0, -0.5])
    with pytest.raises(NumericalDomainError, match="eigenvalue"):
        mmopt.cholesky(m)
    with pytest.raises(NumericalDomainError):
        mmopt.cholesky(np.zeros((2, 2)))


def test_logdet2_monotone_under_psd_order():
    rng = np.random.default_rng(5)
    for _ in range(25):
        m1 = rand_psd(rng, 4)
        m2 = m1 + rand_psd(rng, 4, scale=0.5)
        assert logdet2(m1) <= logdet2(m2) + 1e-12


def test_cholesky_rejects_non_finite_input():
    # LAPACK factors [[1, nan], [nan, 1]] into [[1, 0], [nan, nan]] without
    # an error; the kernel raises instead
    for bad in (np.nan, np.inf, -np.inf):
        m = np.array([[1.0, bad], [bad, 1.0]])
        with pytest.raises(NumericalDomainError, match="non-finite"):
            mmopt.cholesky(m)
        with pytest.raises(NumericalDomainError):
            mmopt.cholesky(np.diag([1.0, bad]))
