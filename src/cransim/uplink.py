"""Uplink backhaul compression and the two-step weighted-sum-rate design.

Every BS forwards a compressed version of its received signal to the control
unit, modeled as the Gaussian test channel y_hat = y + q with independent
quantization noise of power omega.  Point-to-point mode decompresses each
signal in isolation; multiterminal mode decompresses sequentially in a fixed
order so that already-recovered signals act as decoder side information,
shrinking the variance that must be described and hence the noise power an
identical backhaul capacity can afford.

The per-slot design runs in two steps: MS transmit powers are chosen for
ideal backhaul as the nonzero vertex of the power box with the highest
weighted sum rate, then the quantization noise powers follow in closed
form from the backhaul capacities held at equality.  On/off power control
is a known structure of this problem (Gjendemsjo, Gesbert, Oien and Kiani,
"Binary power control for sum rate maximization over multiple interfering
links", IEEE TWC 2008); the chosen vertex is checked against the box KKT
signs.  The 2^K vertices limit the MSs per solve to K_MS_MAX.  All of it
but the weighting depends only on the slot and its capacities and power
limits, so a `VertexTable` holds that for every weighting and mode.

Rates treat interference as noise.  With A = H^H D^-1 H, formed once per
vertex table, G = H^H M^-1 H = (I + A diag(p))^-1 A at powers p is one K x K
solve, and from G come every rate r_k = -log2(1 - p_k G_kk) and the
gradient of the weighted sum rate.  The design at the chosen vertex takes
its noise powers from `omega_closed_form` and its rates from `rates_ul`.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, NumericalDomainError
from .mmopt import (FEASIBILITY_TOL, LN2, MODE_MT, MODE_P2P, MMTrace,
                    SolveResult, check_mode, cholesky, solver_inputs)

# most MSs an uplink solve takes: the power solve scores all 2^K - 1
# nonzero vertices of the power box, which took 7.6 ms at K = 10 and 43 ms
# at K = 12, with 23 BSs (2-core host, one BLAS thread)
K_MS_MAX = 10


@dataclass
class UplinkDesign:
    """Transmit powers, quantization noise powers and decompression order.

    ``omega`` is np.inf at inactive BSs (zero backhaul capacity); ``order``
    lists the active BS indices in decompression sequence.
    """

    p: np.ndarray
    omega: np.ndarray
    order: tuple
    c: np.ndarray
    mode: str

    def __post_init__(self):
        self.p = np.asarray(self.p, dtype=float)
        self.omega = np.asarray(self.omega, dtype=float)
        self.c = np.asarray(self.c, dtype=float)
        check_mode(self.mode)
        if sorted(self.order) != sorted(set(self.order)):
            raise DomainError("decompression order must not repeat BSs")

    @property
    def active(self):
        return np.flatnonzero(self.c > 0)


def bs_signal_variance(p, channel, i):
    """Received signal power at BS i, h_i^H Sigma_x h_i + sigma_z^2, or at
    each BS of an index array i."""
    return np.sum(np.asarray(p) * np.abs(channel.h_ul[i]) ** 2, axis=-1) \
        + channel.sigma2_z_ul[i]


def _backhaul_bits(signal_var, omega):
    if not omega > 0:
        raise DomainError("quantization noise power must be > 0")
    return float(np.log2(1.0 + signal_var / omega))


def backhaul_p2p(design, channel, i):
    """Backhaul rate (bps/Hz) to forward BS i's signal without side information."""
    return _backhaul_bits(bs_signal_variance(design.p, channel, i),
                          design.omega[i])


def backhaul_wz(design, channel, position):
    """Backhaul rate at the given decompression position with side information.

    The conditional variance of the signal given the previously decompressed
    ones replaces the marginal variance; position 0 coincides with the
    point-to-point rate.  It is the marginal variance minus a sum of squares
    from a fresh factor of the earlier signals' covariance, which keeps it
    <= the marginal value, and is independent of the one-factor recursion
    the design uses, so it re-checks designs.
    """
    order, p = design.order, design.p
    i = order[position]
    var = bs_signal_variance(p, channel, i)
    prev = np.asarray(order[:position], dtype=int)
    if prev.size:
        h_prev = channel.h_ul[prev]
        cov_prev = (h_prev * p) @ h_prev.conj().T \
            + np.diag(channel.sigma2_z_ul[prev] + design.omega[prev])
        w = np.linalg.solve(cholesky(cov_prev),
                            h_prev @ (p * channel.h_ul[i].conj()))
        var -= float(np.real(w.conj() @ w))
    return _backhaul_bits(var, design.omega[i])


def capacity_max(sigma2):
    """Largest backhaul capacity (bps/Hz) of a BS with noise power sigma2
    (watts, or an array of them) that its quantization noise power can
    meet.  That power, var / (2^c - 1), exceeds sigma2 / 2^c (the variance
    var to describe is at least sigma2), which up to this bound is at least
    2^-1074, the spacing of subnormal floats, over FEASIBILITY_TOL ln 2: so
    rounding moves the backhaul rate log2(1 + var / omega) by at most half
    of FEASIBILITY_TOL.  About 1007 at the default thermal floors."""
    return np.log2(sigma2 * FEASIBILITY_TOL * LN2) + 1074.0


# smallest positive backhaul capacity (bps/Hz): below about 2^-53 / ln 2 =
# 1.6e-16, 2^c - 1 rounds to 0 and the quantization noise power to inf; at
# 2^-50 it is 3 spacings of the floats at 1, which no rounding of 2^c zeroes
CAPACITY_MIN = 2.0 ** -50


def omega_closed_form(p, order, c, channel, mode):
    """Quantization noise powers with every backhaul constraint at equality.

    omega_j = var_j / (2^c_j - 1), for the received covariance
    M = H diag(p) H^H + diag(sigma2 + omega) in `order`: point-to-point
    mode describes the marginal variance a_jj = M_jj - omega_j,
    multiterminal mode what the BSs before j leave of it,
    a_jj - ||L[j,:j]||^2, with L the left-looking Cholesky factor of M, so
    omega_j is fixed just before its column.  Both modes divide by one
    array of 2^c - 1: where nothing is explained, as at position 0, they
    agree bit for bit.  A pivot var_j + omega_j that is not > 0, NaN
    included, raises NumericalDomainError.  BSs outside `order` get np.inf.
    """
    check_mode(mode)
    order = np.asarray(order, dtype=int)
    c = np.asarray(c, dtype=float)[order]
    unserved = order[c <= 0]
    if unserved.size:
        raise DomainError(f"BS {unserved[0]} has no backhaul capacity; "
                          f"drop it from the order")
    gain = 2.0 ** c - 1.0
    h = channel.h_ul[order]
    s = (h * p) @ h.conj().T
    var = s.diagonal().real + channel.sigma2_z_ul[order]
    if mode == MODE_MT:
        chol = np.zeros(s.shape, dtype=complex)
        var = var.tolist()
        for j, gain_j in enumerate(gain.tolist()):
            row = chol[j, :j]
            var[j] -= float(np.vdot(row, row).real)
            pivot = var[j] + var[j] / gain_j
            if not pivot > 0:
                break   # for the check below to report
            chol[j, j] = d = math.sqrt(pivot)
            chol[j + 1:, j] = (s[j + 1:, j]
                               - chol[j + 1:, :j] @ row.conj()) / d
        var = np.array(var)
    omega = np.full(channel.n_bs, np.inf)
    omega[order] = var / gain
    pivot = var + omega[order]
    if not (pivot > 0).all():
        j = np.flatnonzero(~(pivot > 0))[0]
        raise NumericalDomainError(
            f"received covariance is not positive definite "
            f"(pivot {pivot[j]:.6e} at decompression position {j})")
    return omega


def _rates(p, g_diag):
    """Per-MS rates -log2(1 - p_k G_kk) (bps/Hz) from the diagonal of
    G = H^H M^-1 H at powers p, for one or a stack of power vectors.

    By the matrix determinant lemma this is log2 det M minus log2 det of M
    without MS k.  An MS at zero power gets +0.0, not -0.0.
    """
    return 0.0 - np.log2(1.0 - p * g_diag)


def _g_matrix(h, d, p):
    """G = H^H M^-1 H at powers p, or one G per row of a stack of powers,
    for M = diag(d) + H diag(p) H^H.

    With A = H^H diag(d)^-1 H, formed once per call, G = (I + A diag(p))^-1
    A (push-through identity): a K x K solve per power vector, whatever the
    number of BSs.
    """
    a = (h.conj().T / d) @ h
    return np.linalg.solve(np.eye(a.shape[0]) + a * p[..., None, :], a)


def rates_ul(design, channel):
    """Achievable rates of all MSs (bps/Hz), interference treated as noise.

    All K rates come from one K x K solve (`_g_matrix`), with the
    quantization noise at the active BSs added to their noise powers.
    """
    active = design.active
    omega = design.omega[active]
    if not (np.isfinite(omega) & (omega >= 0)).all():
        raise DomainError("active BSs need finite nonnegative noise powers")
    if (design.p < 0).any():
        raise DomainError("transmit powers must be nonnegative")
    g = _g_matrix(channel.h_ul[active], channel.sigma2_z_ul[active] + omega,
                  design.p)
    return _rates(design.p, g.diagonal().real)


def _design_and_rates(p, channel, c, mode, n_macro):
    """The closed-form step of the design at powers p: (UplinkDesign, rates).

    The active BSs are decompressed macro antennas first, then picos, each
    group by descending received signal power a_ii (stable).  The noise
    powers in that order come from `omega_closed_form`, and all K rates
    from `rates_ul`.
    """
    active = np.flatnonzero(c > 0)
    power = bs_signal_variance(p, channel, active)
    order = active[np.lexsort((-power, active >= n_macro))]
    design = UplinkDesign(p, omega_closed_form(p, order, c, channel, mode),
                          tuple(order.tolist()), c, mode)
    return design, rates_ul(design, channel)


def _tangent_slopes(g, p):
    """ln 2 times the slopes of every psi_k at p, given G at p, where psi_k
    is log2 det M without MS k: row k holds ln 2 d psi_k / d p_j.

    ln 2 d psi_k / d p_j = G_jj + p_k |G_jk|^2 / (1 - p_k G_kk) for
    j != k (Sherman-Morrison on M without MS k), and 0 for j == k.
    """
    g_diag = g.diagonal().real
    slopes = g_diag + p[:, None] * np.abs(g) ** 2 \
        / (1.0 - p * g_diag)[:, None]
    slopes.flat[::p.size + 1] = 0.0
    return slopes


class VertexTable:
    """What the uplink solves of one slot share, whatever their weights and
    mode: the 2^K - 1 nonzero vertices of the power box, full power first,
    with G and the ideal-backhaul rates at each.  A (vertex, mode)'s design
    and rates are computed on first use and kept.  Results share the kept
    rates and designs, so their arrays are read-only.  More than K_MS_MAX
    MSs, or a positive capacity below CAPACITY_MIN or above `capacity_max`
    of its BS, raises DomainError.
    """

    def __init__(self, channel, c, p_max, n_macro):
        if channel.n_ms > K_MS_MAX:
            raise DomainError(
                f"{channel.n_ms} MSs are more than the {K_MS_MAX} whose "
                f"2^K power-box vertices the uplink power solve scores")
        _, c, p_max = solver_inputs((), c, p_max)
        active = np.flatnonzero(c > 0)
        for i, high in zip(active, capacity_max(channel.sigma2_z_ul[active])):
            if not CAPACITY_MIN <= c[i] <= high:
                side, bound = ("above", high) if c[i] > high \
                    else ("below", CAPACITY_MIN)
                raise DomainError(
                    f"backhaul capacity {c[i]:.6g} bps/Hz at BS {i} is {side} "
                    f"{bound:.6g}, past which its quantization noise power "
                    f"cannot meet it in floating point")
        k = channel.n_ms
        self.channel, self.c, self.n_macro = channel, c.copy(), n_macro
        self.p_max = np.broadcast_to(p_max, (k,)).copy()
        self.on = (np.arange(2 ** k - 1, 0, -1)[:, None] >> np.arange(k)) & 1
        self.p = self.on * self.p_max
        self.g = _g_matrix(channel.h_ul[active], channel.sigma2_z_ul[active],
                           self.p)
        self.g_diag = np.diagonal(self.g, axis1=-2, axis2=-1).real
        self.rates = _rates(self.p, self.g_diag)
        self._designs = {}

    def design(self, v, mode):
        """`_design_and_rates` at vertex v in `mode`, arrays read-only."""
        if (v, mode) not in self._designs:
            design, rates = _design_and_rates(self.p[v], self.channel, self.c,
                                              mode, self.n_macro)
            for a in (design.p, design.omega, design.c, rates):
                a.flags.writeable = False
            self._designs[v, mode] = design, rates
        return self._designs[v, mode]


def _power_solve(table, weights):
    """The best vertex of the power box (an index into `table`) for the
    ideal-backhaul weighted sum rate, and its trace, which counts no MM step.

    The first best vertex wins, so that a tie (all weights zero, say) goes
    to full power.  It is checked against the box KKT signs: the gradient,
    from the `_tangent_slopes` at that vertex alone, must be >= 0 where an
    MS is at p_max and <= 0 where it is off, up to rounding of its two
    terms.  Along one MS's power the slope changes sign at most once, from
    - to +, so the best vertex passes in exact arithmetic, and the check
    guards the floating-point scores.  A failed check is a trace warning,
    and the vertex is kept.
    """
    scores = table.rates @ weights
    best = int(np.argmax(scores))
    trace = MMTrace(converged=True)
    # gradient of sum_k w_k (log2 det M - psi_k) at the vertex
    phi_slopes = np.sum(weights) * table.g_diag[best] / LN2
    grad = phi_slopes \
        - weights @ _tangent_slopes(table.g[best], table.p[best]) / LN2
    if np.any(np.where(table.on[best], grad, -grad) < -1e-9 * phi_slopes):
        trace.warnings.append(
            "best vertex of the power box fails the KKT sign test")
    return best, trace


def optimize_ul(channel, c, weights, mode, p_max, n_macro=3, table=None):
    """Two-step uplink design: ideal-backhaul powers, then closed-form noise.

    The powers are the best vertex of the power box (`_power_solve`); the trace
    counts no MM step and warns, not raises, when that vertex fails the KKT
    sign test.  BSs with zero capacity are dropped from all assemblies.
    `table` is the slot's `VertexTable`, which calls with other weights or mode
    may share; without one, the call builds its own.  A table built for another
    channel object, or for other c, p_max or n_macro values, raises
    DomainError, as does an unknown mode or any input `VertexTable` refuses.
    """
    check_mode(mode)
    weights, c, p_max = solver_inputs(weights, c, p_max)
    if table is None:
        table = VertexTable(channel, c, p_max, n_macro)
    elif not (table.channel is channel and table.n_macro == n_macro
              and np.array_equal(table.c, c) and np.all(table.p_max == p_max)):
        raise DomainError("the vertex table was built for another channel, "
                          "c, p_max or n_macro")
    # weights divided by their largest, so that neither the scores nor the
    # KKT test see their scale
    best, trace = _power_solve(table, weights / (np.max(weights) or 1.0))
    design, rates = table.design(best, mode)
    return SolveResult(design=design, rates=rates,
                       objective=float(weights @ rates), trace=trace)
