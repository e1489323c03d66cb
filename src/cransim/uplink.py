"""Uplink backhaul compression and the two-step weighted-sum-rate design.

Every BS forwards a compressed version of its received signal to the control
unit, modeled as the Gaussian test channel y_hat = y + q with independent
quantization noise of power omega.  Point-to-point mode decompresses each
signal in isolation; multiterminal mode decompresses sequentially in a fixed
order so that already-recovered signals act as decoder side information,
shrinking the variance that must be described and hence the noise power an
identical backhaul capacity can afford.

The per-slot design runs in two steps: MS transmit powers are optimized for
ideal backhaul by projected-gradient ascent of the weighted sum rate over
the power box, then the quantization noise powers follow in closed form from
the backhaul capacities held at equality.

Rates treat interference as noise.  One Cholesky factor of the received
covariance M gives G = H^H M^-1 H, and from G every rate
r_k = -log2(1 - p_k G_kk) and the gradient of the weighted sum rate.
"""

from dataclasses import dataclass

import numpy as np

from .errors import DomainError
from .gaussinfo import LN2, cholesky
from .mmopt import INNER_TOL, MM_MAX_ITER, MM_TOL, mm_solve

MODE_P2P = "point_to_point"
MODE_MT = "multiterminal"


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
        if self.mode not in (MODE_P2P, MODE_MT):
            raise DomainError(f"unknown mode {self.mode!r}")
        if sorted(self.order) != sorted(set(self.order)):
            raise DomainError("decompression order must not repeat BSs")

    @property
    def active(self):
        return np.flatnonzero(self.c > 0)


@dataclass
class UplinkResult:
    design: UplinkDesign
    rates: np.ndarray
    objective: float
    trace: object


def bs_signal_variance(p, channel, i):
    """Received signal power at BS i: h_i^H Sigma_x h_i + sigma_z^2."""
    h_i = channel.h_ul[i]
    return float(np.sum(np.asarray(p) * np.abs(h_i) ** 2)
                 + channel.sigma2_z_ul[i])


def conditional_signal_variance(p, omega, order, position, channel):
    """Variance of y at order[position] given the previously recovered signals.

    Computed as the marginal variance minus a sum-of-squares reduction term,
    which keeps the result <= the marginal value in exact arithmetic and in
    floating point alike.
    """
    i = order[position]
    p = np.asarray(p, dtype=float)
    h_i = channel.h_ul[i]
    marginal = bs_signal_variance(p, channel, i)
    prev = np.asarray(order[:position], dtype=int)
    if prev.size == 0:
        return marginal
    h_prev = channel.h_ul[prev]
    cov_prev = (h_prev * p) @ h_prev.conj().T \
        + np.diag(channel.sigma2_z_ul[prev] + np.asarray(omega)[prev])
    cross = h_prev @ (p * h_i.conj())
    w = np.linalg.solve(cholesky(cov_prev), cross)
    reduction = float(np.real(w.conj() @ w))
    return marginal - reduction


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
    point-to-point rate.
    """
    var = conditional_signal_variance(design.p, design.omega, design.order,
                                      position, channel)
    return _backhaul_bits(var, design.omega[design.order[position]])


def omega_closed_form(p, order, c, channel, mode):
    """Quantization noise powers with every backhaul constraint at equality.

    In multiterminal mode the noise powers are fixed sequentially along the
    decompression order, each step conditioning on the signals already
    recovered with their already-fixed noise powers; point-to-point mode
    uses the marginal variances.  BSs outside `order` get np.inf.
    """
    c = np.asarray(c, dtype=float)
    omega = np.full(channel.n_bs, np.inf)
    for pos, i in enumerate(order):
        if c[i] <= 0:
            raise DomainError(
                f"BS {i} has no backhaul capacity; drop it from the order")
        if mode == MODE_MT:
            var = conditional_signal_variance(p, omega, order, pos, channel)
        elif mode == MODE_P2P:
            var = bs_signal_variance(p, channel, i)
        else:
            raise DomainError(f"unknown mode {mode!r}")
        omega[i] = var / (2.0 ** c[i] - 1.0)
    return omega


def _factor(h, d, p):
    """X = L^-1 H, with L L^H = M = diag(d) + H diag(p) H^H (lower Cholesky).

    G = H^H M^-1 H = X^H X yields every uplink rate and the objective's
    gradient.
    """
    chol = cholesky((h * p) @ h.conj().T + np.diag(d))
    return np.linalg.solve(chol, h)


def _rates_from(x, p):
    """Per-MS rates -log2(1 - p_k G_kk) from X = L^-1 H (bps/Hz).

    By the matrix determinant lemma this is log2 det M minus log2 det of M
    without MS k.  An MS at zero power gets +0.0, not -0.0.
    """
    g_diag = np.sum(np.abs(x) ** 2, axis=0)
    return 0.0 - np.log2(1.0 - p * g_diag)


def rates_ul(design, channel):
    """Achievable rates of all MSs (bps/Hz), interference treated as noise.

    All K rates come from one Cholesky factor of the received covariance
    plus quantization noise at the active BSs.
    """
    active = design.active
    if active.size == 0:
        return np.zeros(channel.n_ms)
    omega = design.omega[active]
    if np.any(~np.isfinite(omega)) or np.any(omega < 0):
        raise DomainError("active BSs need finite nonnegative noise powers")
    if np.any(design.p < 0):
        raise DomainError("transmit powers must be nonnegative")
    x = _factor(channel.h_ul[active], channel.sigma2_z_ul[active] + omega,
                design.p)
    return _rates_from(x, design.p)


def decompression_order(p, channel, c, n_macro):
    """Macro antennas first, then picos, each group by descending signal power."""
    active = np.flatnonzero(np.asarray(c, dtype=float) > 0)
    sv = np.array([bs_signal_variance(p, channel, i) for i in active])
    macros = active < min(n_macro, channel.n_bs)
    order = [int(i) for i in active[macros][np.argsort(-sv[macros], kind="stable")]]
    order += [int(i) for i in active[~macros][np.argsort(-sv[~macros], kind="stable")]]
    return tuple(order)


# accepted ascent steps per call of _PowerProblem.step
INNER_STEPS = 200


class _PowerProblem:
    """MM adapter for the ideal-backhaul power optimization.

    Objective: sum_k w_k r_k = sum_k w_k [phi(p) - psi_k(p)] with
    phi(p)  = log2 det M(p),  M(p) = D + sum_j p_j h_j h_j^H
    psi_k(p) = same with MS k excluded.
    Each step ascends this objective over the power box by projected
    gradient with Armijo backtracking, in units q = p / p_max.  The value at
    a point and its gradient, w_tot G_jj / ln 2 minus the gradient of
    sum_k w_k psi_k, come from one Cholesky factor of M at that point.
    """

    def __init__(self, h, sigma2, weights, p_max):
        self.h = h                      # (n_bs_active, n_ms)
        self.sigma2 = sigma2
        self.weights = np.asarray(weights, dtype=float)
        self.p_max = np.asarray(p_max, dtype=float)

    def _evaluate(self, p):
        """X = L^-1 H and the objective at p."""
        x = _factor(self.h, self.sigma2, p)
        return x, float(self.weights @ _rates_from(x, p))

    def objective(self, p):
        return self._evaluate(p)[1]

    def violation(self, p):
        return float(max(np.max(p - self.p_max, initial=-np.inf),
                         np.max(-p, initial=-np.inf)))

    def tangent_slopes(self, p0, x0):
        """Gradient of sum_k w_k psi_k at p0, given X = L^-1 H at p0.

        d psi_k / d p_j = (G_jj + p_k |G_jk|^2 / (1 - p_k G_kk)) / ln 2 for
        j != k (Sherman-Morrison on M without MS k), and 0 for j == k.
        """
        g = x0.conj().T @ x0
        g_diag = np.sum(np.abs(x0) ** 2, axis=0)
        slopes = g_diag[None, :] + p0[:, None] * np.abs(g) ** 2 \
            / (1.0 - p0 * g_diag)[:, None]
        np.fill_diagonal(slopes, 0.0)
        return self.weights @ slopes / LN2

    def step(self, p0):
        p, q = p0, p0 / self.p_max
        x, f = self._evaluate(p)
        # a first trial step that puts every coordinate on a face of the box,
        # where most optima lie; Armijo halving brings it down to scale
        step = 1e6
        for _ in range(INNER_STEPS):
            grad = np.sum(self.weights) * np.sum(np.abs(x) ** 2, axis=0) / LN2
            grad = self.p_max * (grad - self.tangent_slopes(p, x))
            improved = False
            for _ in range(40):
                cand = np.clip(q + step * grad, 0.0, 1.0)
                move = cand - q
                if not np.any(move):
                    break
                p_cand = cand * self.p_max
                x_cand, f_cand = self._evaluate(p_cand)
                if f_cand >= f + 1e-4 * float(grad @ move):
                    p, q, x, f_prev, f = p_cand, cand, x_cand, f, f_cand
                    step *= 1.3
                    improved = True
                    break
                step *= 0.5
            if not improved:
                break
            if abs(f - f_prev) <= INNER_TOL * max(1.0, abs(f_prev)):
                break
        return p


def optimize_ul(channel, c, weights, mode, p_max, n_macro=3,
                mm_tol=MM_TOL, mm_max_iter=MM_MAX_ITER):
    """Two-step uplink design: ideal-backhaul powers, then closed-form noise.

    Returns an UplinkResult whose trace flags non-convergence instead of
    raising.  BSs with zero capacity are dropped from all assemblies.
    """
    c = np.asarray(c, dtype=float)
    weights = np.asarray(weights, dtype=float)
    p_max = np.broadcast_to(np.asarray(p_max, dtype=float),
                            (channel.n_ms,)).copy()
    if np.any(weights < 0):
        raise DomainError("weights must be nonnegative")
    if np.any(c < 0):
        raise DomainError("backhaul capacities must be nonnegative")
    if np.any(p_max <= 0):
        raise DomainError("power limits must be positive")

    active = np.flatnonzero(c > 0)
    # weights divided by their largest, so that neither the first trial step
    # nor the stopping tests (relative to max(1, objective)) see their scale
    problem = _PowerProblem(channel.h_ul[active], channel.sigma2_z_ul[active],
                            weights / (np.max(weights) or 1.0), p_max)
    p_star, trace = mm_solve(problem, p_max.copy(), tol=mm_tol,
                             max_iter=mm_max_iter)

    order = decompression_order(p_star, channel, c, n_macro)
    omega = omega_closed_form(p_star, order, c, channel, mode)
    design = UplinkDesign(p=p_star, omega=omega, order=order, c=c, mode=mode)
    rates = rates_ul(design, channel)
    return UplinkResult(design=design, rates=rates,
                        objective=float(weights @ rates), trace=trace)
