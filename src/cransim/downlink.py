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

The weighted-sum-rate design over (A, Omega) runs as a
majorization-minimization (MM) loop, `mm_solve` (Park, Simeone, Sahin and
Shamai, IEEE TSP 2013; Razaviyayn, Hong and Luo, SIAM J. Optim. 2013).  The
non-convex log terms are concave in their argument, so their tangents at the
current iterate are global upper bounds that touch there: inside the
constraints they leave a convex surrogate set within the true feasible set,
and in the objective they give a lower bound.  Each inner subproblem is
solved by gradient ascent with a logarithmic barrier on the linearized
constraints, so every accepted iterate is feasible and the true objective
never decreases.

The 2^n - 1 BS subsets are one cached, read-only table per BS count,
`_lattice(n)`: their membership masks, by size and then lexicographically,
and the chain tables below.  It alone refuses more than SUBSET_ENUM_CAP
active BSs, so `optimize_dl` and `feasible_dl` refuse an oversize cluster
with one message before any work.  Both sum each subset's terms through its
mask row and take every subset log-det from one kernel, `_subset_logdets`.
It works on a symmetric chain decomposition of the lattice: C(n, n//2)
orderings of the BSs whose leading blocks hold each subset once.  One
batched Cholesky of the reordered Omegas gives every subset's log-det as a
cumulative sum of its chain's pivots, and the noise gradient's sum of
scattered subset inverses comes from the same factors with one batched
inverse.  A block is defined when its Cholesky factor exists and is finite;
an undefined one's log-det is -inf, so its condition fails on both sides.

Each candidate of the inner ascent is one slotted record (`_Iterate`): A
with its row powers and received signals, the noise parameters with Omega's
diagonal and subset log-dets (and in multiterminal mode Omega and its chain
factors), the quantization noise, and, once evaluated under a tangent, the
slacks, the rate parts and the surrogate.  A trial step shares by reference
every field of the block it does not move, and each term is formed on first
use, so each Omega is factored at most once.
"""

from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations

import numpy as np

from .errors import DomainError, NumericalDomainError
from .mmopt import (FEASIBILITY_TOL, LN2, MODE_MT, MODE_P2P, MMTrace,
                    SolveResult, check_mode, hermitize, solver_inputs)

SUBSET_ENUM_CAP = 16
# mm_solve's relative objective change for convergence, and its step cap
MM_TOL = 1e-4
MM_MAX_ITER = 60
# inner solve per MM step: barrier rounds, and ascent steps per round
BARRIER_ROUNDS = 3
INNER_STEPS = 40
# relative gain below which the inner ascent stops
INNER_TOL = 1e-6
RESTART_SHRINK = 0.06   # signal power share a warm start gives up
# one-reduction screens, NaN included: `not _minimum(x) > 0` is
# `not (x > 0).all()`, and `_fmin(x) <= 0` (fmin skips NaN) `(x <= 0).any()`
_minimum, _fmin, _sum = np.minimum.reduce, np.fmin.reduce, np.add.reduce


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
        check_mode(self.mode)

    @property
    def active(self):
        return np.flatnonzero(self.c > 0)


@dataclass
class FeasibilityReport:
    feasible: bool
    margin: float
    worst_constraint: str
    n_subsets_checked: int


def _row_power(a):
    """Precoded signal power of each BS: the squared norms of A's rows."""
    return _sum(np.abs(a) ** 2, 1)


def rates_dl(design, channel):
    """Achievable rate of every MS (bps/Hz), interference treated as noise."""
    # the result files' rates: the solver's normalized _rate_parts differ
    # from these in the last bits.  The own-stream power is squared by pow
    # (float_power) and the summed ones by x * x (** 2 on an array); the two
    # can round apart, and the result files hold these bits
    h = channel.h_dl[:, None, :]
    m = np.abs(h @ design.a)[:, 0]
    qn = ((h @ design.omega) @ channel.h_dl.conj()[:, :, None])[:, 0, 0].real
    total = channel.sigma2_z_dl + _sum(m ** 2, 1) + qn
    return np.log2(total) - np.log2(total - np.float_power(m.diagonal(), 2))


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
class _Lattice:
    """The nonempty subsets of n BSs and the chain kernel's index tables
    (see `_lattice`); every array is read-only."""
    masks: np.ndarray     # (2^n - 1, n) 0/1 membership of each subset
    masks_t: np.ndarray   # its transpose, C-ordered
    gather: np.ndarray    # (k, n, n) flat index of each reordered Omega entry
    source: np.ndarray    # (2^n - 1,) flat (chain, prefix size - 1) per subset
    columns: np.ndarray   # (k, n, n) flat index putting columns in BS order


@lru_cache(maxsize=None)
def _lattice(n):
    """The subset lattice of n BSs; more than SUBSET_ENUM_CAP raise
    DomainError.

    The subsets of range(n) come by size and then lexicographically, so the
    first n mask rows, the singletons, are the identity.  A chain S_1 < ...
    < S_m of `_symmetric_chains` becomes the BS ordering S_1, then the BS
    each later set adds, then the BSs outside S_m; its used prefixes have
    sizes |S_1| to |S_m| (the empty set excluded), so every subset is the
    leading block of one ordering.  `source` lists, in subset order, where
    each subset's prefix sits in a (chain, prefix size - 1) table.
    """
    if n > SUBSET_ENUM_CAP:
        raise DomainError(f"subset enumeration capped at {SUBSET_ENUM_CAP} "
                          f"active BSs (got {n})")
    subsets = [s for size in range(1, n + 1)
               for s in combinations(range(n), size)]
    position = {s: j for j, s in enumerate(subsets)}
    masks = np.zeros((len(subsets), n))
    masks[[j for j, s in enumerate(subsets) for _ in s],
          [i for s in subsets for i in s]] = 1.0
    chains = _symmetric_chains(n)
    order = np.empty((len(chains), n), dtype=np.intp)
    source = np.empty(len(subsets), dtype=np.intp)
    for c, chain in enumerate(chains):
        first = list(chain[0])
        added = [next(iter(set(b) - set(a))) for a, b in zip(chain, chain[1:])]
        order[c] = first + added + sorted(set(range(n)) - set(chain[-1]))
        for s in chain:
            if s:
                source[position[s]] = c * n + len(s) - 1
    gather = order[:, :, None] * n + order[:, None, :]
    columns = np.arange(len(chains) * n).reshape(len(chains), n, 1) * n \
        + np.argsort(order, axis=1)[:, None, :]
    masks_t = np.ascontiguousarray(masks.T)
    for table in (masks, masks_t, gather, source, columns):
        table.flags.writeable = False
    return _Lattice(masks, masks_t, gather, source, columns)


def _subset_logdets(omega):
    """log2 det of Omega's block on every subset, in `_lattice` order, and
    the Cholesky factors of the chain orderings of Omega.

    One batched Cholesky of the C(n, n//2) chain orderings of Omega gives
    them all: a leading block's factor is the leading block of the factor,
    so the cumulative sums of 2 log2 of the pivots are every prefix's
    log-det.  A block is defined when its Cholesky factor exists and is
    finite.  When the batch fails or Omega has a non-finite entry, each
    chain keeps its longest such prefix, every later prefix gets -inf, and
    the factors are None.  LAPACK refuses a pivot that is not > 0, and the
    finiteness test catches a NaN or inf that a BLAS passes through, so no
    result is +inf or NaN.
    """
    lattice = _lattice(omega.shape[0])
    blocks = omega.take(lattice.gather)
    try:
        factors = np.linalg.cholesky(blocks)
    except np.linalg.LinAlgError:
        factors = None
    if factors is not None and np.isfinite(omega).all():
        # the pivots of a Cholesky factor are finite and > 0; log2 takes a
        # contiguous copy faster than the strided diagonal
        logs = np.log2(factors.diagonal(axis1=1, axis2=2).real.copy())
        return 2.0 * logs.cumsum(axis=1).take(lattice.source), factors
    pivots = np.zeros(blocks.shape[:2])
    for c, block in enumerate(blocks):
        for size in range(len(block), 0, -1):
            try:
                factor = np.linalg.cholesky(block[:size, :size])
            except np.linalg.LinAlgError:
                continue
            if np.isfinite(factor).all():
                pivots[c, :size] = factor.diagonal().real
                break
    # a zero pivot is -inf, and so is every cumulative sum after it
    with np.errstate(divide="ignore"):
        logs = np.log2(pivots)
    return 2.0 * logs.cumsum(axis=1).take(lattice.source), None


def _subset_inv_scatter(factors, coeffs):
    """Sum over subsets S of coeff_S * scatter(inv(Omega_S)), from the chain
    factors of `_subset_logdets` (for gradients).

    The inverse of a leading block is L_m^-H L_m^-1 with L_m^-1 the leading
    block of L^-1, so a chain's terms sum to L^-H diag(d) L^-1 with d the
    reverse cumulative sum of its prefixes' coefficients: Y^H Y, where Y
    stacks the rows of diag(sqrt(d)) L^-1 with their columns in BS order.
    """
    k, n = factors.shape[:2]
    lattice = _lattice(n)
    d = np.zeros(k * n)
    d[lattice.source] = coeffs
    d = d.reshape(k, n)[:, ::-1].cumsum(axis=1)[:, ::-1]
    y = (np.sqrt(d)[:, :, None] * np.linalg.inv(factors)).take(
        lattice.columns).reshape(k * n, n)
    return y.conj().T @ y


def feasible_dl(design):
    """Check all subset backhaul conditions and per-BS power constraints.

    Returns a report with the worst slack margin (negative means violated;
    -inf where a constraint's value is undefined).  Inactive BSs (zero
    capacity) must be silent.  Each subset's requirement and capacity are
    summed over its mask row, and its log-det comes from `_subset_logdets`.
    Refuses clusters with more than SUBSET_ENUM_CAP active BSs, where
    exhaustive subset enumeration is off the table.
    """
    active = design.active
    member = _lattice(active.size).masks > 0
    power = _row_power(design.a) + design.omega.diagonal().real
    leak = power + np.abs(design.omega).sum(axis=1)
    leak_tol = 1e-10 * max(float(np.max(design.p_bs, initial=0.0)), 1e-30)
    on = design.c > 0
    power_slack = np.where(on, design.p_bs - power,
                           np.where(leak <= leak_tol, np.inf, -leak))

    logdets, _ = _subset_logdets(
        hermitize(design.omega[np.ix_(active, active)]))
    # where, not a product with the masks: 0 * -inf is NaN.  A requirement
    # that is NaN (a silent BS's -inf less -inf) is undefined, -inf below
    with np.errstate(divide="ignore", invalid="ignore"):
        terms = np.where(member, np.log2(power[active]), 0.0)
        g = terms.sum(axis=1) - logdets
    caps = np.where(member, design.c[active], 0.0).sum(axis=1)
    # per BS, then per subset: on a tie the power constraint is named
    slack = np.concatenate([power_slack, caps - g])
    slack[np.isnan(slack)] = -np.inf
    margin, worst = float(np.min(slack, initial=np.inf)), "none"
    if margin < np.inf:
        j = int(np.argmin(slack))
        if j < on.size:
            worst = f"power[{j}]" if on[j] else f"inactive_bs[{j}]"
        else:
            members = active[member[j - on.size]]
            worst = f"backhaul{tuple(members.tolist())}"

    return FeasibilityReport(feasible=bool(margin >= -FEASIBILITY_TOL),
                             margin=margin, worst_constraint=worst,
                             n_subsets_checked=slack.size - on.size)


# ---------------------------------------------------------------------------
# optimizer internals
# ---------------------------------------------------------------------------

# log-parameterization of the diagonal noise powers: strictly positive by
# construction, and gradient steps scale multiplicatively, which matters
# because optimal noise powers span many orders of magnitude
_U_CLIP = (-600.0, 60.0)


def _signal(hbar, a):
    """hbar A, and each MS's signal power in all and from its own stream."""
    m = hbar @ a
    sig = np.abs(m) ** 2
    return m, _sum(sig, 1), sig.diagonal()


def _quant_noise(problem, l, diag):
    """hbar_k Omega hbar_k^H at each MS k, |hbar_k L|^2 in multiterminal;
    point-to-point sums complex products that round as with diag(diag)."""
    if l is not None:
        return _sum(np.abs(problem.hbar @ l) ** 2, 1)
    return np.einsum("ki,i,ki->k", problem.hbar, diag.astype(complex),
                     problem.hbar_c).real


class _Iterate:
    """An inner-ascent iterate and its terms (see the module docstring):
    A, and L with Omega = L L^H (multiterminal) or u with Omega =
    diag(exp(u)) (point-to-point).  Past the power limits, `evaluate`
    tests every backhaul condition from the subset log-dets at once: a
    singleton's is 2 log2 of its 1x1 Cholesky pivot sqrt(Omega_ii)."""

    __slots__ = ("problem", "a", "a_power", "signal", "l", "u", "omega",
                 "diag", "logdets", "factors", "qn", "power", "total",
                 "interf", "power_slack", "bh_slack", "surr", "log_slack")

    def __init__(self, problem, a=None, l=None, u=None, keep=None):
        """A fresh iterate, or one sharing the block of `keep` not given."""
        self.problem = problem
        if a is None:
            self.a, self.a_power, self.signal = keep.a, keep.a_power, \
                keep.signal
        else:
            self.a, self.a_power, self.signal = a, _row_power(a), None
        if l is None and u is None:
            (self.l, self.u, self.omega, self.diag, self.logdets,
             self.factors, self.qn) = (keep.l, keep.u, keep.omega, keep.diag,
                                       keep.logdets, keep.factors, keep.qn)
        else:
            self.l, self.u = l, u
            if l is not None:
                self.omega = l @ l.conj().T
                self.diag = self.omega.diagonal().real
            else:
                # a point-to-point Omega is its diagonal
                self.omega, self.diag = None, np.exp(u)
            self.logdets = self.factors = self.qn = None
        self.power = self.a_power + self.diag
        self.total = None

    def moved(self, block, grad, eta):
        """The trial point eta * grad away in one block."""
        if block == "a":
            return _Iterate(self.problem, self.a + eta * grad, keep=self)
        if self.l is not None:
            # L and its gradient are lower-triangular, so the step is too
            return _Iterate(self.problem, l=self.l + eta * grad, keep=self)
        # np.clip, without its Python wrapper
        return _Iterate(self.problem, u=np.minimum(np.maximum(
            self.u + eta * grad, _U_CLIP[0]), _U_CLIP[1]), keep=self)

    def subset_logdets(self):
        """log2 det of each constrained block of Omega; multiterminal keeps
        the chain factors for the gradient."""
        if self.logdets is None:
            if self.l is None:
                self.logdets = np.log2(self.diag)
            else:
                self.logdets, self.factors = _subset_logdets(self.omega)
                if self.factors is None:
                    # some ordering of Omega does not factor, so there is no
                    # gradient: the solver takes the whole set as undefined
                    self.logdets[-1] = -np.inf
        return self.logdets

    def rate_parts(self):
        """Received power at each MS in all and less its own signal."""
        if self.total is None:
            if self.signal is None:
                self.signal = _signal(self.problem.hbar, self.a)
            if self.qn is None:
                self.qn = _quant_noise(self.problem, self.l, self.diag)
            self.total = 1.0 + self.signal[1] + self.qn
            self.interf = self.total - self.signal[2]
        return self.total, self.interf

    def evaluate(self, tangent):
        """Slacks, rate parts and surrogate objective (constants dropped)
        under a tangent; surr is None outside the strict surrogate interior."""
        problem = self.problem
        b_slope, lin_const, s_coef = tangent
        self.surr = self.bh_slack = None
        self.power_slack = 1.0 - self.power
        if not _minimum(self.power_slack) > 0:
            return
        g_lin = lin_const + problem.masks @ (b_slope * self.power)
        bh_slack = problem.subset_caps - (g_lin - self.subset_logdets())
        if _fmin(bh_slack) <= 0:
            return
        self.bh_slack = bh_slack
        total, interf = self.rate_parts()
        self.surr = float(problem.w @ np.log2(total) - s_coef @ interf)
        self.log_slack = _sum(np.log(self.power_slack)) \
            + _sum(np.log(bh_slack))

    def value(self, mu):
        """Surrogate plus mu times the log-barrier; -inf outside its domain."""
        if self.surr is None:
            return -np.inf
        return self.surr + mu * self.log_slack


class _PrecodingProblem:
    """MM adapter for the joint precoder / quantization-covariance design,
    normalized so that each MS has unit noise and each BS unit budget."""

    def __init__(self, hbar, weights, caps, mode):
        self.hbar = hbar                      # (n_ms, n_act)
        self.hbar_c = hbar.conj()
        self.hbar_h = self.hbar_c.T
        self.w = np.asarray(weights, dtype=float)
        n = hbar.shape[1]
        self.lower = np.tri(n, dtype=bool)
        self.off_diag = ~np.eye(hbar.shape[0], dtype=bool)
        self.hbar_abs2 = np.abs(hbar) ** 2

        # masks_t is C-ordered: the layout fixes the BLAS summation order of
        # masks^T @ x
        lattice = _lattice(n)
        if mode == MODE_MT:
            self.masks, self.masks_t = lattice.masks, lattice.masks_t
            self.subset_caps = self.masks @ caps
        else:
            # the singleton rows: the identity, its own transpose
            self.masks = self.masks_t = lattice.masks[:n]
            self.subset_caps = np.asarray(caps, dtype=float)

    # -- mm_solve protocol ---------------------------------------------------

    def objective(self, it):
        total, interf = it.rate_parts()
        rates = np.log2(total) - np.log2(interf)
        return float(self.w @ rates)

    def violation(self, it):
        power = it.power
        g = self.masks @ np.log2(power) - it.subset_logdets()
        return float(max((power - 1.0).max(),
                         (g - self.subset_caps).max()))

    # -- surrogate construction and inner barrier ascent ---------------------

    def _tangent(self, it0):
        """Slopes and offsets of the log2(power) terms linearized at it0,
        and the weights of the linearized log2(interference) terms."""
        power0 = it0.power
        b_slope = 1.0 / (power0 * LN2)
        lin_const = self.masks @ (np.log2(power0) - b_slope * power0)
        return b_slope, lin_const, self.w / (it0.rate_parts()[1] * LN2)

    def step(self, it0):
        tangent = self._tangent(it0)
        it0.evaluate(tangent)
        if it0.surr is None:
            raise NumericalDomainError("current iterate lost strict feasibility")
        current = best = it0
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
            total_cur = current.value(mu)
            for _ in range(INNER_STEPS):
                gain = 0.0
                for block in ("a", "noise"):
                    grad = self._gradient(current, tangent, mu, block)
                    for _ in range(30):
                        cand = current.moved(block, grad, eta[block])
                        cand.evaluate(tangent)
                        total_cand = cand.value(mu)
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
        return best

    def _gradient(self, it, tangent, mu, block):
        """Gradient of the barrier value in one block: A, or the noise
        parameters (L for multiterminal, u for point-to-point)."""
        b_slope, _, s_coef = tangent
        # both blocks': alpha, and the d(power_i) barrier coefficients
        alpha = self.w / (it.total * LN2)
        bh_coef = mu / it.bh_slack
        coef_t = -mu / it.power_slack - b_slope * (self.masks_t @ bh_coef)

        if block == "a":
            m = it.signal[0]
            m_off = np.where(self.off_diag, m, 0.0)
            return self.hbar_h @ (alpha[:, None] * m) \
                - self.hbar_h @ (s_coef[:, None] * m_off) \
                + coef_t[:, None] * it.a

        quad_coef = alpha - s_coef
        if it.l is not None:
            gq = self.hbar_h @ (quad_coef[:, None] * self.hbar)
            g_inv = _subset_inv_scatter(it.factors, bh_coef) / LN2
            return np.where(self.lower,
                            (gq + np.diag(coef_t) + g_inv) @ it.l, 0.0)
        qcoef = _sum(quad_coef[:, None] * self.hbar_abs2, 0)
        domega = qcoef + coef_t + bh_coef / (it.diag * LN2)
        # diag is exp(u), so this is the chain rule through omega = exp(u)
        return domega * it.diag

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
                                            0.8 / np.maximum(rho, 1e-300),
                                            np.inf)))
        if not np.isfinite(scale):
            scale = 0.0

        gamma = 1.0
        caps = self.subset_caps
        for _ in range(80):
            a = a_unit * (scale * np.sqrt(gamma))
            sig = np.sum(np.abs(a) ** 2, axis=1)
            omega = 0.95 * (1.0 - sig)
            g = np.log2(sig + omega) - np.log2(omega)
            slack = caps - g
            if np.all(slack > 1e-6 * np.maximum(1.0, caps)):
                return _Iterate(self, a, u=np.log(omega))
            gamma *= 0.5
        worst = int(np.argmin(slack))
        raise NumericalDomainError(
            f"no feasible starting point: backhaul constraint at BS {worst} "
            f"cannot be met (capacity {caps[worst]:.3g} bps/Hz)")


def mm_solve(problem, init):
    """Run the MM loop from a feasible starting point.

    `problem` provides objective(x), the true objective (to maximize);
    violation(x), the largest violation of the true constraints (<= 0 if
    feasible); and step(x), one inner ascent from x that does not decrease
    its own surrogate and stays feasible.  Returns (solution, MMTrace).
    Converged means the relative objective change dropped below MM_TOL.  A
    step that fails, leaves the feasible set or decreases the true objective
    stops the loop unconverged at the previous iterate, as do MM_MAX_ITER
    accepted steps; none of these raises.
    """
    v0 = problem.violation(init)
    # written so that a NaN violation counts as infeasible
    if not v0 <= FEASIBILITY_TOL:
        raise NumericalDomainError(
            f"mm_solve requires a feasible starting point "
            f"(constraint violation {v0:.3e})")
    x, obj = init, problem.objective(init)
    trace = MMTrace(objective=[obj], violation=[v0])
    for _ in range(MM_MAX_ITER):
        try:
            candidate = problem.step(x)
        except NumericalDomainError as exc:
            trace.warnings.append(f"inner solve failed: {exc}")
            break
        viol = problem.violation(candidate)
        if not viol <= FEASIBILITY_TOL:
            trace.warnings.append(
                "step left the feasible set; keeping previous iterate")
            break
        new_obj = problem.objective(candidate)
        if new_obj < obj - 1e-12 * max(1.0, abs(obj)):
            trace.warnings.append("surrogate step decreased the objective; "
                                  "stopping at previous iterate")
            break
        rel_change = abs(new_obj - obj) / max(1.0, abs(obj))
        x, obj = candidate, new_obj
        trace.objective.append(obj)
        trace.violation.append(viol)
        trace.iterations += 1
        if rel_change < MM_TOL:
            trace.converged = True
            break
    else:
        trace.warnings.append(f"no convergence within {MM_MAX_ITER} iterations")
    return x, trace


def optimize_dl(channel, c, p_bs, weights, mode, init=None):
    """Weighted-sum-rate design of (A, Omega) under backhaul and power limits.

    Point-to-point mode starts cold and takes no `init`.  Multiterminal mode
    refines `init`, a point-to-point design for the same channel, capacities
    and power limits, and raises DomainError without one, as does any other
    mode, or with one of another shape, c or p_bs, and so do inputs that
    `solver_inputs` refuses, all before any work.  When refining does not
    improve on init under `weights`, init is returned.  Zero-capacity BSs are
    silenced and dropped from all constraint sets.  The MM loop stops at MM_TOL
    or after MM_MAX_ITER steps; each step runs BARRIER_ROUNDS barrier rounds of
    INNER_STEPS ascent steps.
    """
    check_mode(mode)
    weights, c, p_bs = solver_inputs(channel, weights, c, p_bs)
    if mode == MODE_MT:
        if not isinstance(init, DownlinkDesign) or init.mode != MODE_P2P:
            raise DomainError("multiterminal mode refines a point-to-point "
                              "design passed as init")
    elif init is not None:
        raise DomainError("point-to-point mode starts cold and takes no init")
    n_bs, n_ms = channel.n_bs, channel.n_ms
    active = np.flatnonzero(c > 0)
    _lattice(active.size)       # refuses an oversize cluster before any work
    if mode == MODE_MT:
        for name, same in (("precoder shape", init.a.shape == (n_bs, n_ms)),
                           ("Omega shape", init.omega.shape == (n_bs, n_bs)),
                           ("c", np.array_equal(init.c, c)),
                           ("p_bs", np.array_equal(init.p_bs, p_bs))):
            if not same:
                raise DomainError(f"init was solved for another {name}")
    if active.size == 0:
        design = DownlinkDesign(a=np.zeros((n_bs, n_ms), dtype=complex),
                                omega=np.zeros((n_bs, n_bs), dtype=complex),
                                c=c, p_bs=p_bs, mode=mode)
        return SolveResult(design=design, rates=np.zeros(n_ms),
                           objective=0.0, trace=MMTrace(converged=True))

    # normalize so each BS has unit power budget and each MS unit noise:
    # the scale factors cancel in every backhaul expression, and the inner
    # solver then works on O(1) quantities regardless of the watt-level scales
    scale = np.sqrt(p_bs[active])
    hbar = channel.h_dl[:, active] * scale[None, :] \
        / np.sqrt(channel.sigma2_z_dl)[:, None]
    problem = _PrecodingProblem(hbar, weights, c[active], mode)

    if mode == MODE_MT:
        # a point-to-point Omega is diagonal, so its Cholesky factor is the
        # square root of the diagonal
        omega_diag = (init.omega.diagonal()[active] / (scale * scale)).real
        incumbent = _Iterate(problem, init.a[active] / scale[:, None],
                             l=np.diag(np.sqrt(omega_diag) + 0j))
        # its description rates sit at capacity, so every subset condition is
        # tight and blocks all noise-correlating directions: a slightly
        # weaker signal (noise unchanged) opens them at a marginal cost.
        # Refining starts there, and the original stays the incumbent
        start = _Iterate(problem, incumbent.a * np.sqrt(1.0 - RESTART_SHRINK),
                         keep=incumbent)
    else:
        incumbent = None
        start = problem.cold_start()

    it, trace = mm_solve(problem, start)

    if incumbent is not None \
            and problem.objective(incumbent) > problem.objective(it):
        it = incumbent
        trace.warnings.append("warm-start incumbent kept: refinement did "
                              "not improve on it")

    a_full = np.zeros((n_bs, n_ms), dtype=complex)
    a_full[active] = it.a * scale[:, None]
    omega_full = np.zeros((n_bs, n_bs), dtype=complex)
    omega = it.omega if it.l is not None else np.diag(it.diag)
    omega_full[np.ix_(active, active)] = omega * np.outer(scale, scale)
    design = DownlinkDesign(a=a_full, omega=hermitize(omega_full), c=c,
                            p_bs=p_bs, mode=mode)
    rates = rates_dl(design, channel)
    report = feasible_dl(design)
    if not report.feasible:
        trace.warnings.append(
            f"returned design violates {report.worst_constraint} "
            f"by {-report.margin:.3e}")
    return SolveResult(design=design, rates=rates,
                       objective=float(weights @ rates), trace=trace)
