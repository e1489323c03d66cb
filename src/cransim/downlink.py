"""Downlink precoding with point-to-point or multivariate backhaul compression.

The control unit linearly precodes the per-MS streams (columns of A) and
ships each BS its precoded signal over a finite backhaul, modeled by the
additive Gaussian test channel x = x_tilde + q.  Point-to-point mode
compresses per BS, so the quantization covariance Omega is diagonal and each
link must carry log2(power/omega_ii) bits.  Multiterminal mode shapes a full
covariance across BSs, which buys quantization noise that partially cancels
at the served users at the price of joint (subset-sum) backhaul conditions:
for every subset S of BSs the sum of per-BS description rates minus the
log-det of Omega restricted to S must fit within the summed capacities.

The weighted-sum-rate design over (A, Omega) runs as an MM loop: the
non-convex log terms are replaced by scalar tangents at the current iterate
(upper bounds inside the constraints, a lower bound for the objective), and
each inner subproblem is solved by gradient ascent with a logarithmic
barrier on the linearized constraints.  The surrogate constraint set is
convex and sits inside the true feasible set, so every accepted iterate is
feasible, and ascent steps from the current point never decrease the true
objective.

The solver and the re-check `feasible_dl` take every subset log-det from
one kernel, `_subset_logdets`, which marks an undefined one -inf so that its
condition fails on both sides.  It works on a symmetric chain decomposition
of the subset lattice: C(n, n//2) orderings of the BSs whose leading blocks
hold each of the 2^n - 1 subsets once.  One batched Cholesky of the reordered
Omegas gives every subset's log-det as a cumulative sum of its chain's
pivots, and the noise gradient's sum of scattered subset inverses comes
from the same factors with one batched inverse.  The inner ascent evaluates
many candidates per MM step, so each Omega (one `_Noise`) and each precoder
(one `_Precoder`) computes its terms once, on first use; Omega's 1x1
log-dets come first and screen out a candidate violating a singleton
condition before any block is factored.
"""

from dataclasses import dataclass
from functools import cached_property, lru_cache
from itertools import combinations

import numpy as np

from .errors import DomainError, NumericalDomainError
from .gaussinfo import LN2, hermitize
from .mmopt import (FEASIBILITY_TOL, INNER_TOL, MM_MAX_ITER, MM_TOL, MMTrace,
                    mm_solve, solver_inputs)
from .uplink import MODE_MT, MODE_P2P

SUBSET_ENUM_CAP = 16
# inner solve per MM step: barrier rounds, and default ascent steps per round
BARRIER_ROUNDS = 3
INNER_STEPS = 40
RESTART_SHRINK = 0.06   # signal power share a warm start gives up


@dataclass
class DownlinkDesign:
    """Precoding matrix, quantization covariance and per-BS limits."""

    a: np.ndarray        # (n_bs, n_ms) complex, column k precodes MS k
    omega: np.ndarray    # (n_bs, n_bs) complex Hermitian PSD
    c: np.ndarray        # (n_bs,) backhaul capacities, bps/Hz
    p_bs: np.ndarray     # (n_bs,) per-BS power limits, watts
    mode: str

    def __post_init__(self):
        self.a = np.asarray(self.a, dtype=complex)
        self.omega = np.asarray(self.omega, dtype=complex)
        self.c = np.asarray(self.c, dtype=float)
        self.p_bs = np.asarray(self.p_bs, dtype=float)
        if self.mode not in (MODE_P2P, MODE_MT):
            raise DomainError(f"unknown mode {self.mode!r}")

    @property
    def active(self):
        return np.flatnonzero(self.c > 0)


@dataclass
class DownlinkResult:
    design: DownlinkDesign
    rates: np.ndarray
    objective: float
    trace: object


@dataclass
class FeasibilityReport:
    feasible: bool
    margin: float
    worst_constraint: str
    n_subsets_checked: int


def _row_power(a):
    """Precoded signal power of each BS: the squared norms of A's rows."""
    return (np.abs(a) ** 2).sum(axis=1)


def rate_dl(design, channel, k):
    """Achievable rate of MS k (bps/Hz), interference treated as noise."""
    # the result files' rates: the solver's normalized _rate_parts differ
    # from these in the last bits
    r = channel.h_dl[k]
    m = r @ design.a
    qn = float(np.real(r @ design.omega @ r.conj()))
    total = channel.sigma2_z_dl[k] + float(np.sum(np.abs(m) ** 2)) + qn
    interference = total - float(np.abs(m[k]) ** 2)
    return float(np.log2(total) - np.log2(interference))


@lru_cache(maxsize=None)
def _size_groups(n):
    """The nonempty subsets of range(n), ordered by size and then
    lexicographically, grouped by size.

    One entry per size: the slice of the subset list holding that size and
    the members of each subset (k, size).  Callers cap n at
    SUBSET_ENUM_CAP, and the cached arrays are read-only.
    """
    groups, start = [], 0
    for size in range(1, n + 1):
        members = np.array(list(combinations(range(n), size)), dtype=np.intp)
        members.flags.writeable = False
        groups.append((slice(start, start + len(members)), members))
        start += len(members)
    return tuple(groups)


def _symmetric_chains(n):
    """A symmetric chain decomposition of the subsets of range(n) (de Bruijn,
    van Ebbenhorst Tengbergen and Kruyswijk, 1951): C(n, n//2) chains of
    nested subsets (sorted tuples), each one BS larger than the one before,
    that together hold every subset exactly once."""
    chains = [[()]]
    for i in range(n):
        grown = []
        for chain in chains:
            grown.append(chain + [chain[-1] + (i,)])
            if len(chain) > 1:
                grown.append([s + (i,) for s in chain[:-1]])
        chains = grown
    return chains


@dataclass(frozen=True)
class _ChainTables:
    """Index tables of the chain kernel for one n (see `_chain_tables`)."""
    gather: np.ndarray    # (k, n, n) flat index of each reordered Omega entry
    source: np.ndarray    # (2^n - 1,) flat (chain, prefix size - 1) per subset
    columns: np.ndarray   # (k, n, n) flat index putting columns in BS order


@lru_cache(maxsize=None)
def _chain_tables(n):
    """Every nonempty subset of range(n) as a leading block of one of the
    C(n, n//2) chain orderings of the BSs.

    A chain S_1 < ... < S_m becomes the BS ordering S_1, then the BS each
    later set adds, then the BSs outside S_m; its used prefixes have sizes
    |S_1| to |S_m| (the empty set excluded).  `source` lists, in
    `_size_groups` order, where each subset's prefix sits in a (chain,
    prefix size - 1) table.  Callers cap n at SUBSET_ENUM_CAP, and the
    cached arrays are read-only.
    """
    position = {tuple(s): j for j, s in enumerate(
        s for _, members in _size_groups(n) for s in members.tolist())}
    chains = _symmetric_chains(n)
    order = np.empty((len(chains), n), dtype=np.intp)
    source = np.empty(len(position), dtype=np.intp)
    for c, chain in enumerate(chains):
        first = list(chain[0])
        added = [next(iter(set(b) - set(a))) for a, b in zip(chain, chain[1:])]
        order[c] = first + added + sorted(set(range(n)) - set(chain[-1]))
        for s in chain:
            if s:
                source[position[s]] = c * n + len(s) - 1
    gather = order[:, :, None] * n + order[:, None, :]
    rank = np.argsort(order, axis=1)
    columns = np.arange(len(chains) * n).reshape(-1, n, 1) * n \
        + rank[:, None, :]
    for table in (gather, source, columns):
        table.flags.writeable = False
    return _ChainTables(gather=gather, source=source, columns=columns)


def _subset_logdets(omega):
    """log2 det of Omega's block on every subset, in _size_groups order, and
    the Cholesky factors of the reordered Omegas of _chain_tables.

    One batched Cholesky of the C(n, n//2) chain orderings of Omega gives
    them all: a leading block's factor is the leading block of the factor,
    so the cumulative sums of 2 log2 of the pivots are every prefix's
    log-det.  A prefix with a non-finite entry or a diagonal entry not > 0,
    and every longer prefix of its chain, gets -inf.  When the batch fails to
    factor, each chain is factored alone, and from its first prefix that
    does not factor on, its prefixes get -inf; the factors are then None.
    No result is +inf or NaN: a finite positive definite block has a finite
    positive Cholesky diagonal.
    """
    n = omega.shape[0]
    tables = _chain_tables(n)
    blocks = omega.take(tables.gather)
    undefined = None
    diag_ok = omega.diagonal().real > 0
    if not (diag_ok.all() and np.isfinite(omega).all()):
        # prefixes from the first row reaching a bad entry on: identity rows
        bad = ~np.isfinite(omega)
        bad.flat[::n + 1] |= ~diag_ok
        bad = bad.take(tables.gather)
        undefined = np.logical_or.accumulate(
            np.tril(bad | bad.swapaxes(1, 2)).any(axis=2), axis=1)
        blocks = np.where(undefined[:, :, None] | undefined[:, None, :],
                          np.eye(n), blocks)
    try:
        factors = np.linalg.cholesky(blocks)
        pivots = factors.diagonal(axis1=1, axis2=2).real.copy()
    except np.linalg.LinAlgError:
        factors, pivots = None, np.zeros(blocks.shape[:2])
        for c, block in enumerate(blocks):
            for size in range(n, 0, -1):
                try:
                    pivots[c, :size] = np.linalg.cholesky(
                        block[:size, :size]).diagonal().real
                    break
                except np.linalg.LinAlgError:
                    pass
    if undefined is not None:
        pivots[undefined] = 0.0
    # a zero pivot is -inf, and so is every cumulative sum after it
    with np.errstate(divide="ignore"):
        return 2.0 * np.log2(pivots).cumsum(axis=1).take(tables.source), \
            factors


def _subset_inv_scatter(factors, coeffs):
    """Sum over subsets S of coeff_S * scatter(inv(Omega_S)), from the chain
    factors of `_subset_logdets` (for gradients).

    The inverse of a leading block is L_m^-H L_m^-1 with L_m^-1 the leading
    block of L^-1, so a chain's terms sum to L^-H diag(d) L^-1 with d the
    reverse cumulative sum of its prefixes' coefficients: Y^H Y, where Y
    stacks the rows of diag(sqrt(d)) L^-1 with their columns in BS order.
    """
    k, n = factors.shape[:2]
    tables = _chain_tables(n)
    d = np.zeros(k * n)
    d[tables.source] = coeffs
    d = d.reshape(k, n)[:, ::-1].cumsum(axis=1)[:, ::-1]
    y = (np.sqrt(d)[:, :, None] * np.linalg.inv(factors)).take(
        tables.columns).reshape(k * n, n)
    return y.conj().T @ y


def feasible_dl(design):
    """Check all subset backhaul conditions and per-BS power constraints.

    Returns a report with the worst slack margin (negative means violated;
    -inf where a constraint's value is undefined).  Inactive BSs (zero
    capacity) must be silent.  Refuses clusters with more than 16 active
    BSs, where exhaustive subset enumeration is off the table.
    """
    active = design.active
    if active.size > SUBSET_ENUM_CAP:
        raise DomainError(
            f"subset enumeration capped at {SUBSET_ENUM_CAP} BSs "
            f"(got {active.size})")
    power = _row_power(design.a) + design.omega.diagonal().real
    leak = power + np.abs(design.omega).sum(axis=1)
    leak_tol = 1e-10 * max(float(np.max(design.p_bs, initial=0.0)), 1e-30)
    on = design.c > 0
    slacks = [np.where(on, design.p_bs - power,
                       np.where(leak <= leak_tol, np.inf, -leak))]

    omega = hermitize(design.omega[np.ix_(active, active)])
    with np.errstate(divide="ignore", invalid="ignore"):
        terms = np.log2(power[active])
    caps = design.c[active]
    groups = _size_groups(active.size)
    logdets, _ = _subset_logdets(omega)
    for rows, members in groups:
        # the requirement of subset S: its terms summed member by member,
        # minus log2 det Omega_S
        g = sum(terms.take(members).T) - logdets[rows]
        slacks.append(caps.take(members).sum(axis=1) - g)
    # per BS, then per subset: on a tie the power constraint is named
    slack = np.concatenate(slacks)
    slack[np.isnan(slack)] = -np.inf
    margin, worst = float(np.min(slack, initial=np.inf)), "none"
    if margin < np.inf:
        j = int(np.argmin(slack))
        if j < on.size:
            worst = f"power[{j}]" if on[j] else f"inactive_bs[{j}]"
        else:
            j -= on.size
            rows, m = next(grp for grp in groups if j < grp[0].stop)
            worst = f"backhaul{tuple(active[m[j - rows.start]].tolist())}"

    return FeasibilityReport(feasible=bool(margin >= -FEASIBILITY_TOL),
                             margin=margin, worst_constraint=worst,
                             n_subsets_checked=slack.size - on.size)


# ---------------------------------------------------------------------------
# optimizer internals
# ---------------------------------------------------------------------------

@dataclass
class _Point:
    """Inner parameterization: free A, plus the noise parameters of Omega.
    Points with the same A share its terms, `pre`."""
    a: np.ndarray                 # (n_act, n_ms) complex
    noise: "_Noise"
    pre: "_Precoder" = None

    def __post_init__(self):
        if self.pre is None:
            self.pre = _Precoder(self.noise.problem.hbar, self.a)
        # transmit power of each BS: precoded signal plus quantization noise
        self.power = self.pre.power + self.noise.diag


class _Precoder:
    """A precoder A and its terms.  The noise-step candidates of a point
    share its object, so A's row powers (made with it) and received signals
    (on first use) are computed once."""

    def __init__(self, hbar, a):
        self.hbar, self.a = hbar, a
        self.power = _row_power(a)

    @cached_property
    def signal(self):
        """hbar A, and the signal power each MS receives in all and from
        its own stream."""
        m = self.hbar @ self.a
        sig = np.abs(m) ** 2
        return m, sig.sum(axis=1), sig.diagonal()


# log-parameterization of the diagonal noise powers: strictly positive by
# construction, and gradient steps scale multiplicatively, which matters
# because optimal noise powers span many orders of magnitude
_U_CLIP = (-600.0, 60.0)


class _Noise:
    """The noise parameters and the Omega they make: Omega = L L^H for a
    complex lower-triangular L (multiterminal), or diag(exp(u)) for a real u
    (point-to-point).  Every point with these parameters shares the object,
    so Omega's log-dets, chain factors and noise form are computed once, on
    first use."""

    def __init__(self, problem, l=None, u=None):
        self.problem, self.l, self.u = problem, l, u
        if l is not None:
            self.omega = l @ l.conj().T
        else:
            self.omega = np.diag(np.exp(u)).astype(complex)
        self.diag = self.omega.diagonal().real

    @cached_property
    def single_logdets(self):
        """log2 det of each 1x1 block of Omega (multiterminal), -inf where
        the diagonal entry is not finite and > 0: the values factoring
        gives, since a 1x1 Cholesky factor is sqrt(d)."""
        d = self.diag
        with np.errstate(divide="ignore", invalid="ignore"):
            return np.where((d > 0) & (d < np.inf),
                            2.0 * np.log2(np.sqrt(d)), -np.inf)

    @cached_property
    def logdets(self):
        """log2 det of each constrained block of Omega; multiterminal keeps
        the chain factors for the gradient."""
        if self.l is None:
            return np.log2(self.diag)
        logdets, self.chain_factors = _subset_logdets(self.omega)
        if self.chain_factors is None:
            # some ordering of Omega does not factor, so there is no
            # gradient here: the solver takes the whole set as undefined
            logdets[-1] = -np.inf
        return logdets

    @cached_property
    def qn(self):
        """Quantization noise power at each MS: hbar_k Omega hbar_k^H, the
        squared norm of hbar_k L in multiterminal mode."""
        hbar = self.problem.hbar
        if self.l is not None:
            return (np.abs(hbar @ self.l) ** 2).sum(axis=1)
        return np.einsum("ki,ij,kj->k", hbar, self.omega,
                         self.problem.hbar_c).real


@dataclass
class _Eval:
    """One point of the inner barrier problem under a fixed tangent."""
    point: _Point
    power_slack: np.ndarray = None
    bh_slack: np.ndarray = None
    rate_parts: tuple = None      # (m, total, interf), see _rate_parts
    surr: float = None            # None outside the strict surrogate interior


class _PrecodingProblem:
    """MM adapter for the joint precoder / quantization-covariance design."""

    def __init__(self, hbar, weights, caps, p_lim, mode, inner_steps):
        self.hbar = hbar                      # (n_ms, n_act) noise-normalized
        self.hbar_c = hbar.conj()
        self.hbar_h = self.hbar_c.T
        self.w = np.asarray(weights, dtype=float)
        self.p_lim = np.asarray(p_lim, dtype=float)
        self.mode = mode
        self.n = hbar.shape[1]
        self.inner_steps = inner_steps

        if mode == MODE_MT:
            self.masks = np.concatenate([np.eye(self.n)[m].sum(axis=1)
                                         for _, m in _size_groups(self.n)])
            self.subset_caps = self.masks @ caps
        else:
            self.masks = np.eye(self.n)
            self.subset_caps = np.asarray(caps, dtype=float)
        # C-ordered: the layout fixes the BLAS summation order of masks^T @ x
        self.masks_t = np.ascontiguousarray(self.masks.T)

    # -- shared quantities -------------------------------------------------

    def _rate_parts(self, point):
        m, sig_total, sig_own = point.pre.signal       # m: (n_ms, n_ms)
        total = 1.0 + sig_total + point.noise.qn
        interf = total - sig_own
        return m, total, interf

    # -- mm_solve protocol ---------------------------------------------------

    def objective(self, point):
        _, total, interf = self._rate_parts(point)
        rates = np.log2(total) - np.log2(interf)
        return float(self.w @ rates)

    def violation(self, point):
        power = point.power
        g = self.masks @ np.log2(power) - point.noise.logdets
        return float(max((power - self.p_lim).max(),
                         (g - self.subset_caps).max()))

    # -- surrogate construction and inner barrier ascent ---------------------

    def _tangent(self, point0):
        """Slopes and offsets of the log2(power) terms linearized at point0,
        and the weights of the linearized log2(interference) terms."""
        power0 = point0.power
        b_slope = 1.0 / (power0 * LN2)
        lin_const = self.masks @ (np.log2(power0) - b_slope * power0)
        _, _, interf0 = self._rate_parts(point0)
        return b_slope, lin_const, self.w / (interf0 * LN2)

    def step(self, point0):
        tangent = self._tangent(point0)
        current = self._evaluate(point0, tangent)
        if current.surr is None:
            raise NumericalDomainError("current iterate lost strict feasibility")

        best = current
        # cap the barrier weight by the starting slack scale so a warm start
        # sitting near its active constraints is not dragged off them
        min_slack = min(np.min(current.power_slack), np.min(current.bh_slack))
        mu0 = min(0.1 * max(1.0, abs(current.surr)),
                  max(10.0 * min_slack, 1e-10))
        # independent step sizes per variable block: the precoder and the
        # noise parameters live on very different scales
        eta = {"a": 1.0, "noise": 1.0}
        for round_idx in range(BARRIER_ROUNDS):
            mu = mu0 * (0.1 ** round_idx)
            total_cur = self._barrier(current, mu)
            for _ in range(self.inner_steps):
                gain = 0.0
                for block in ("a", "noise"):
                    grad = self._gradient(current, tangent, mu, block)
                    for _ in range(30):
                        point = self._advance(current.point, grad,
                                              eta[block], block)
                        cand = self._evaluate(point, tangent)
                        total_cand = self._barrier(cand, mu)
                        if total_cand > total_cur:
                            gain += total_cand - total_cur
                            current, total_cur = cand, total_cand
                            eta[block] = min(eta[block] * 1.5, 1e8)
                            break
                        eta[block] *= 0.5
                        if eta[block] < 1e-20:
                            break
                if gain == 0.0:
                    break
                if current.surr > best.surr:
                    best = current
                if gain <= INNER_TOL * max(1.0, abs(total_cur)):
                    break
        return best.point

    def _evaluate(self, point, tangent):
        """Slacks, rate parts and surrogate objective (constants dropped)."""
        b_slope, lin_const, s_coef = tangent
        noise = point.noise
        ev = _Eval(point)
        power = point.power
        ev.power_slack = self.p_lim - power
        if not (ev.power_slack > 0).all():
            return ev
        g_lin = lin_const + self.masks @ (b_slope * power)
        if noise.l is not None:
            # the singleton conditions need no factoring: screen them first
            n = self.n
            if (self.subset_caps[:n]
                    - (g_lin[:n] - noise.single_logdets) <= 0).any():
                return ev
        ev.bh_slack = self.subset_caps - (g_lin - noise.logdets)
        if (ev.bh_slack <= 0).any():
            return ev
        ev.rate_parts = self._rate_parts(point)
        _, total, interf = ev.rate_parts
        ev.surr = float(self.w @ np.log2(total) - s_coef @ interf)
        return ev

    def _barrier(self, ev, mu):
        """Surrogate plus mu times the log-barrier; -inf outside its domain."""
        if ev.surr is None:
            return -np.inf
        return ev.surr + mu * (np.log(ev.power_slack).sum()
                               + np.log(ev.bh_slack).sum())

    def _gradient(self, ev, tangent, mu, block):
        """Gradient of the barrier value in one block: A, or the noise
        parameters (L for multiterminal, u for point-to-point)."""
        b_slope, _, s_coef = tangent
        point, noise = ev.point, ev.point.noise
        m, total, _ = ev.rate_parts
        alpha = self.w / (total * LN2)

        # coefficient on d(power_i) collecting barrier terms
        bh_coef = mu / ev.bh_slack
        coef_t = -mu / ev.power_slack - b_slope * (self.masks_t @ bh_coef)

        if block == "a":
            m_off = m.copy()
            np.fill_diagonal(m_off, 0.0)
            return self.hbar_h @ (alpha[:, None] * m) \
                - self.hbar_h @ (s_coef[:, None] * m_off) \
                + coef_t[:, None] * point.a

        quad_coef = alpha - s_coef
        if noise.l is not None:
            gq = self.hbar_h @ (quad_coef[:, None] * self.hbar)
            g_inv = _subset_inv_scatter(noise.chain_factors, bh_coef) / LN2
            return np.tril((gq + np.diag(coef_t) + g_inv) @ noise.l)
        qcoef = (quad_coef[:, None] * np.abs(self.hbar) ** 2).sum(axis=0)
        domega = qcoef + coef_t + bh_coef / (noise.diag * LN2)
        # diag is exp(u), so this is the chain rule through omega = exp(u)
        return domega * noise.diag

    def _advance(self, point, grad, eta, block):
        noise = point.noise
        if block == "a":
            return _Point(a=point.a + eta * grad, noise=noise)
        if noise.l is not None:
            # L and its gradient are lower-triangular, so the step is too
            return _Point(a=point.a, pre=point.pre,
                          noise=_Noise(self, l=noise.l + eta * grad))
        return _Point(a=point.a, pre=point.pre, noise=_Noise(
            self, u=np.clip(noise.u + eta * grad, *_U_CLIP)))

    # -- starting point -------------------------------------------------------

    def cold_start(self):
        """Point-to-point start: matched-filter columns at 80% of each power
        budget, noise in the rest.

        The signal share is halved until every backhaul constraint holds
        strictly; fails loudly naming the binding constraint.
        """
        a_unit = self.hbar_h.astype(complex)
        norms = np.linalg.norm(a_unit, axis=0)
        norms[norms == 0] = 1.0
        a_unit = a_unit / norms
        rho = np.sum(np.abs(a_unit) ** 2, axis=1)
        with np.errstate(divide="ignore"):
            scale = np.sqrt(np.min(np.where(rho > 0,
                                            0.8 * self.p_lim / np.maximum(rho, 1e-300),
                                            np.inf)))
        if not np.isfinite(scale):
            scale = 0.0

        gamma = 1.0
        caps = self.subset_caps
        for _ in range(80):
            a = a_unit * (scale * np.sqrt(gamma))
            sig = np.sum(np.abs(a) ** 2, axis=1)
            omega = 0.95 * (self.p_lim - sig)
            g = np.log2(sig + omega) - np.log2(omega)
            slack = caps - g
            if np.all(slack > 1e-6 * np.maximum(1.0, caps)):
                return _Point(a=a, noise=_Noise(self, u=np.log(omega)))
            gamma *= 0.5
        worst = int(np.argmin(slack))
        raise NumericalDomainError(
            f"no feasible starting point: backhaul constraint at BS {worst} "
            f"cannot be met (capacity {caps[worst]:.3g} bps/Hz)")


def _interior_restart(point):
    """Back a boundary point off its active constraints.

    A design whose per-BS description rates sit at capacity leaves every
    subset constraint tight, which locally blocks all noise-correlating
    directions.  Shrinking the signal slightly (noise unchanged) opens both
    the power and every backhaul constraint at a marginal objective cost,
    giving the joint optimization room to trade description resolution for
    noise shaping.
    """
    return _Point(a=point.a * np.sqrt(1.0 - RESTART_SHRINK), noise=point.noise)


def optimize_dl(channel, c, p_bs, weights, mode, init=None,
                mm_max_iter=MM_MAX_ITER, inner_steps=INNER_STEPS):
    """Weighted-sum-rate design of (A, Omega) under backhaul and power limits.

    Point-to-point mode starts cold and takes no `init`.  Multiterminal mode
    refines `init`, a point-to-point design for the same channel, capacities
    and power limits, and raises DomainError without one; when refining does
    not improve on init under `weights`, init is returned.  Zero-capacity BSs
    are silenced and dropped from all constraint sets.  The MM loop stops at
    the relative tolerance MM_TOL or after `mm_max_iter` steps; each step
    runs BARRIER_ROUNDS barrier rounds of `inner_steps` ascent steps.
    """
    weights, c, p_bs = solver_inputs(weights, c, p_bs)
    if mode == MODE_MT:
        if not isinstance(init, DownlinkDesign) or init.mode != MODE_P2P:
            raise DomainError("multiterminal mode refines a point-to-point "
                              "design passed as init")
    elif init is not None:
        raise DomainError("point-to-point mode starts cold and takes no init")
    n_bs, n_ms = channel.n_bs, channel.n_ms
    active = np.flatnonzero(c > 0)
    if active.size > SUBSET_ENUM_CAP:
        raise DomainError(f"subset enumeration capped at {SUBSET_ENUM_CAP} "
                          f"active BSs (got {active.size})")
    if active.size == 0:
        design = DownlinkDesign(a=np.zeros((n_bs, n_ms), dtype=complex),
                                omega=np.zeros((n_bs, n_bs), dtype=complex),
                                c=c, p_bs=p_bs, mode=mode)
        return DownlinkResult(design=design, rates=np.zeros(n_ms),
                              objective=0.0, trace=MMTrace(converged=True))

    # normalize so each BS has unit power budget and each MS unit noise:
    # the scale factors cancel in every backhaul expression, and the inner
    # solver then works on O(1) quantities regardless of the watt-level scales
    scale = np.sqrt(p_bs[active])
    hbar = channel.h_dl[:, active] * scale[None, :] \
        / np.sqrt(channel.sigma2_z_dl)[:, None]
    problem = _PrecodingProblem(hbar, weights, c[active],
                                np.ones(active.size), mode, inner_steps)

    if mode == MODE_MT:
        # a point-to-point Omega is diagonal, so its Cholesky factor is the
        # square root of the diagonal
        omega_diag = (init.omega.diagonal()[active] / (scale * scale)).real
        incumbent = _Point(a=init.a[active] / scale[:, None], noise=_Noise(
            problem, l=np.diag(np.sqrt(omega_diag) + 0j)))
        # it sits on its constraint boundaries: step inside before refining,
        # and keep the original as the incumbent
        start = _interior_restart(incumbent)
    else:
        incumbent = None
        start = problem.cold_start()

    point, trace = mm_solve(problem, start, tol=MM_TOL, max_iter=mm_max_iter)

    if incumbent is not None \
            and problem.objective(incumbent) > problem.objective(point):
        point = incumbent
        trace.warnings.append("warm-start incumbent kept: refinement did "
                              "not improve on it")

    a_full = np.zeros((n_bs, n_ms), dtype=complex)
    a_full[active] = point.a * scale[:, None]
    omega_full = np.zeros((n_bs, n_bs), dtype=complex)
    omega_full[np.ix_(active, active)] = \
        point.noise.omega * np.outer(scale, scale)
    design = DownlinkDesign(a=a_full, omega=hermitize(omega_full), c=c,
                            p_bs=p_bs, mode=mode)
    rates = np.array([rate_dl(design, channel, k) for k in range(n_ms)])
    report = feasible_dl(design)
    if not report.feasible:
        trace.warnings.append(
            f"returned design violates {report.worst_constraint} "
            f"by {-report.margin:.3e}")
    return DownlinkResult(design=design, rates=rates,
                          objective=float(weights @ rates), trace=trace)
