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
the backhaul capacities held at equality.  The power solve sees only the
channel, the weights divided by their largest and the power limits, so the
two modes of a slot share one solve whenever their weights match, and so
does the first slot of a drop across an alpha sweep (equal weights).

Rates treat interference as noise.  One Cholesky factor of the received
covariance M gives G = H^H M^-1 H, and from G every rate
r_k = -log2(1 - p_k G_kk) and the gradient of the weighted sum rate.  After
the power solve, one left-looking Cholesky of M in decompression order gives
the noise powers, each fixed just before its column, and the factor that
yields the rates; the order itself comes from the diagonal of M.
"""

import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import DomainError, NumericalDomainError
from .gaussinfo import LN2, cholesky
from .mmopt import FEASIBILITY_TOL, INNER_TOL, mm_solve, solver_inputs

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


def _noise_and_factor(p, order, c, channel, mode):
    """Noise powers at backhaul equality and the factor of M they give.

    One left-looking Cholesky of M = H diag(p) H^H + diag(sigma2 + omega)
    runs over the BSs in `order` (an index array), in that order.  Just
    before column j, ||L[j,:j]||^2 is the part of y_j's variance
    a_jj = M_jj - omega_j that the signals decompressed before it explain,
    so multiterminal mode sets omega_j = (a_jj - ||L[j,:j]||^2)/(2^c_j - 1);
    point-to-point mode uses a_jj alone.  Returns (omega, L): omega over all
    BSs, np.inf outside `order`, and L in decompression order.
    """
    h = channel.h_ul[order]
    s = (h * p) @ h.conj().T
    a = (s.diagonal().real + channel.sigma2_z_ul[order]).tolist()
    omega = np.full(channel.n_bs, np.inf)
    chol = np.zeros(s.shape, dtype=complex)
    for j, i in enumerate(order.tolist()):
        row = chol[j, :j]
        explained = float(np.vdot(row, row).real)
        var = a[j] - explained if mode == MODE_MT else a[j]
        omega[i] = var / (2.0 ** c[i] - 1.0)
        pivot = a[j] + omega[i] - explained
        if not pivot > 0:
            raise NumericalDomainError(
                f"received covariance is not positive definite "
                f"(pivot {pivot:.6e} at decompression position {j})")
        chol[j, j] = d = math.sqrt(pivot)
        chol[j + 1:, j] = (s[j + 1:, j] - chol[j + 1:, :j] @ row.conj()) / d
    return omega, chol


def omega_closed_form(p, order, c, channel, mode):
    """Quantization noise powers with every backhaul constraint at equality.

    In multiterminal mode the noise powers are fixed sequentially along the
    decompression order, each step conditioning on the signals already
    recovered with their already-fixed noise powers; point-to-point mode
    uses the marginal variances.  BSs outside `order` get np.inf.
    """
    if mode not in (MODE_P2P, MODE_MT):
        raise DomainError(f"unknown mode {mode!r}")
    c = np.asarray(c, dtype=float)
    order = np.asarray(order, dtype=int)
    unserved = order[c[order] <= 0]
    if unserved.size:
        raise DomainError(f"BS {unserved[0]} has no backhaul capacity; "
                          f"drop it from the order")
    return _noise_and_factor(np.asarray(p, dtype=float), order, c, channel,
                             mode)[0]


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


def _design_and_rates(p, channel, c, mode, n_macro):
    """The closed-form step of the design at powers p: (UplinkDesign, rates).

    The active BSs are decompressed macro antennas first, then picos, each
    group by descending received signal power a_ii (stable), which is the
    diagonal of M without quantization noise.  One factor of M in that
    order gives the noise powers and all K rates.
    """
    active = np.flatnonzero(c > 0)
    power = np.sum(p * np.abs(channel.h_ul[active]) ** 2, axis=1) \
        + channel.sigma2_z_ul[active]
    order = active[np.lexsort((-power, active >= n_macro))]
    omega, chol = _noise_and_factor(p, order, c, channel, mode)
    design = UplinkDesign(p=p, omega=omega, order=tuple(order.tolist()), c=c,
                          mode=mode)
    return design, _rates_from(np.linalg.solve(chol, channel.h_ul[order]), p)


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
    Every point is factored once: mm_solve scores the point `step` has just
    returned, each step starts from it, and a trial step may land on a box
    vertex it has tried before.
    """

    def __init__(self, h, sigma2, weights, p_max):
        self.h = h                      # (n_bs_active, n_ms)
        self.sigma2 = sigma2
        self.weights = np.asarray(weights, dtype=float)
        self.p_max = np.asarray(p_max, dtype=float)
        self._evaluated = {}            # p bytes -> (X, objective)

    def _evaluate(self, p):
        """X = L^-1 H and the objective at p."""
        key = p.tobytes()
        if key not in self._evaluated:
            x = _factor(self.h, self.sigma2, p)
            self._evaluated[key] = x, float(self.weights @ _rates_from(x, p))
        return self._evaluated[key]

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


# power solves kept in this process, keyed by the content of everything the
# solve reads, least recently used first; room for every solve of one alpha
# of a 10-slot drop in both modes, so the first slot's solve outlives them
_power_solves = {}
_POWER_SOLVES_KEPT = 24


def _power_solve(h, sigma2, weights, p_max):
    """mm_solve of the power problem, reusing a recent solve whose inputs
    are equal (the two modes of a slot whose weights match, and the first
    slot of a drop at every alpha); every caller gets its own copy of the
    powers and of the trace."""
    key = (h.shape, h.tobytes(), sigma2.tobytes(), weights.tobytes(),
           p_max.tobytes())
    if key in _power_solves:
        _power_solves[key] = _power_solves.pop(key)
    else:
        _power_solves[key] = mm_solve(
            _PowerProblem(h, sigma2, weights, p_max), p_max.copy())
        if len(_power_solves) > _POWER_SOLVES_KEPT:
            del _power_solves[next(iter(_power_solves))]
    p, trace = _power_solves[key]
    return p.copy(), replace(trace, objective=list(trace.objective),
                             violation=list(trace.violation),
                             warnings=list(trace.warnings))


def optimize_ul(channel, c, weights, mode, p_max, n_macro=3):
    """Two-step uplink design: ideal-backhaul powers, then closed-form noise.

    Returns an UplinkResult whose trace flags non-convergence instead of
    raising; a capacity above `capacity_max` of its BS raises DomainError.
    The power solve's MM loop stops at the relative tolerance mmopt.MM_TOL
    or after mmopt.MM_MAX_ITER steps of at most INNER_STEPS ascent steps.
    BSs with zero capacity are dropped from all assemblies.  A call whose
    power solve reads the same inputs as a recent one in this process reuses
    it: the other mode of a slot with equal weights does, and so does the
    first slot of a drop at every alpha, whose weights are all equal.
    """
    weights, c, p_max = solver_inputs(weights, c, p_max)
    p_max = np.broadcast_to(p_max, (channel.n_ms,)).copy()

    active = np.flatnonzero(c > 0)
    over = active[c[active] > capacity_max(channel.sigma2_z_ul[active])]
    if over.size:
        i = over[0]
        raise DomainError(
            f"backhaul capacity {c[i]:.6g} bps/Hz at BS {i} is above "
            f"{capacity_max(channel.sigma2_z_ul[i]):.6g}, which its "
            f"quantization noise power cannot meet in floating point")
    # weights divided by their largest, so that neither the first trial step
    # nor the stopping tests (relative to max(1, objective)) see their scale
    p_star, trace = _power_solve(
        channel.h_ul[active], channel.sigma2_z_ul[active],
        weights / (np.max(weights) or 1.0), p_max)
    design, rates = _design_and_rates(p_star, channel, c, mode, n_macro)
    return UplinkResult(design=design, rates=rates,
                        objective=float(weights @ rates), trace=trace)
