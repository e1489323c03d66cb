"""Shared factories and independent oracles for the test suite.

The oracles here deliberately avoid the library's own computational paths:
mutual informations come from empirical sample covariances, conditional
variances from explicit Schur complements or regression residuals,
log-determinants from eigenvalue products, uplink rates from K+1 separate
log-dets of directly summed covariances, and downlink backhaul requirements
from one BS or one subset at a time (`backhaul_p2p_dl`, `backhaul_mv_dl`,
with `logdet2` factoring one block per call).
"""

from itertools import combinations

import numpy as np

from cransim import cellgeom, downlink, harness
from cransim.channel import ChannelRealization
from cransim.errors import ConfigurationError, DomainError
from cransim.mmopt import cholesky


def cn_samples(rng, shape, var=1.0):
    """Circularly-symmetric complex Gaussian samples with given variance."""
    return (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) \
        * np.sqrt(np.asarray(var, dtype=float) / 2.0)


def rand_channel(rng, n_bs, n_ms, sigma_lo=0.5, sigma_hi=2.0):
    """Synthetic unit-scale channel realization for solver tests."""
    h_ul = cn_samples(rng, (n_bs, n_ms))
    h_dl = cn_samples(rng, (n_ms, n_bs))
    return ChannelRealization(
        h_ul=h_ul, h_dl=h_dl,
        sigma2_z_ul=rng.uniform(sigma_lo, sigma_hi, n_bs),
        sigma2_z_dl=rng.uniform(sigma_lo, sigma_hi, n_ms),
        slot_index=0)


def rand_psd(rng, n, scale=1.0):
    """Random Hermitian positive definite matrix."""
    g = cn_samples(rng, (n, n))
    return scale * (g @ g.conj().T + 0.1 * np.eye(n))


def logdet2_oracle(m):
    """log2 det via eigenvalues (independent of the Cholesky path)."""
    w = np.linalg.eigvalsh(m)
    return float(np.sum(np.log2(w)))


def logdet2_slogdet(m):
    sign, ld = np.linalg.slogdet(m)
    return float(ld / np.log(2.0))


def logdet2(m):
    """log2 det(M) of a positive definite Hermitian matrix, via Cholesky."""
    return float(2.0 * np.sum(np.log2(np.diag(cholesky(m)).real)))


def enumerate_subsets(indices):
    """All nonempty subsets, ordered by size then lexicographically."""
    indices = tuple(indices)
    out = []
    for size in range(1, len(indices) + 1):
        out.extend(combinations(indices, size))
    return out


def backhaul_p2p_dl(design, i):
    """Backhaul rate (bps/Hz) to ship BS i's signal, independent compression."""
    omega_ii = design.omega[i, i].real
    if not omega_ii > 0:
        raise DomainError("diagonal quantization noise power must be > 0")
    sig = float(np.sum(np.abs(design.a[i]) ** 2))
    return float(np.log2(sig + omega_ii) - np.log2(omega_ii))


def backhaul_mv_dl(design, subset):
    """Joint backhaul requirement of a BS subset under correlated noise."""
    subset = tuple(int(i) for i in subset)
    if len(subset) == 0:
        raise DomainError("subset must be nonempty")
    total = 0.0
    for i in subset:
        omega_ii = design.omega[i, i].real
        if not omega_ii > 0:
            raise DomainError("diagonal quantization noise power must be > 0")
        sig = float(np.sum(np.abs(design.a[i]) ** 2))
        total += float(np.log2(sig + omega_ii))
    sub = design.omega[np.ix_(subset, subset)]
    return total - logdet2(sub)


def solve_multiterminal(ch, c, p_bs, w):
    """Multiterminal downlink design refining the point-to-point design
    solved under the same weights."""
    p2p = downlink.optimize_dl(ch, c, p_bs, w, "point_to_point")
    return downlink.optimize_dl(ch, c, p_bs, w, "multiterminal",
                                init=p2p.design)


# criterion 9's sweeps: each preset as is, at the seed under test
DOMINANCE_PRESETS = ("ul-sweep", "dl-sweep-a", "dl-sweep-b")


def dominance_sweep(preset, seed):
    """The alpha sweep criterion 9 runs for `preset`, at `seed`."""
    cfg = harness.ExperimentConfig.from_dict(
        {**harness.PRESETS[preset], "seed": seed, "jobs": 4})
    return harness.alpha_sweep(cfg)


def max_efficiency(sweep, mode):
    """The highest average spectral efficiency of `mode` over a sweep."""
    return max(rep.metrics[mode].avg_spectral_efficiency
               for rep in sweep.reports)


def sweep_dominance(sweep):
    """Criterion 9's checks on one alpha sweep.

    Per alpha: the mt/p2p ratios of the average spectral efficiency and of
    the cell-edge throughput, and whether mt dominates each within 1e-9.
    Over the sweep: whether mt's efficiency ceiling is above p2p's, and
    `passed` when every check holds.  `edge_ratios` are the cell-edge ratios
    criterion 9 prints: those where p2p's cell edge is above 1e-9.
    """
    points = []
    for rep in sweep.reports:
        pp, mt = rep.metrics["point_to_point"], rep.metrics["multiterminal"]
        eff_pp, eff_mt = pp.avg_spectral_efficiency, mt.avg_spectral_efficiency
        edge_pp, edge_mt = pp.cell_edge_throughput, mt.cell_edge_throughput
        points.append(dict(
            alpha=rep.config.alpha,
            efficiency_ratio=eff_mt / max(eff_pp, 1e-12),
            cell_edge_ratio=edge_mt / max(edge_pp, 1e-12),
            efficiency_dominated=bool(eff_mt >= eff_pp - 1e-9),
            cell_edge_dominated=bool(edge_mt >= edge_pp - 1e-9),
            cell_edge_below=bool(edge_mt < edge_pp),
            printed=bool(edge_pp > 1e-9)))
    ceiling_pp = max_efficiency(sweep, "point_to_point")
    ceiling_mt = max_efficiency(sweep, "multiterminal")
    ceiling_above = bool(ceiling_pp < ceiling_mt)
    return dict(
        points=points, ceiling_p2p=ceiling_pp, ceiling_mt=ceiling_mt,
        ceiling_above=ceiling_above,
        edge_ratios=[p["cell_edge_ratio"] for p in points if p["printed"]],
        passed=ceiling_above and all(p["efficiency_dominated"]
                                     and p["cell_edge_dominated"]
                                     for p in points))


def mi_from_samples(x, y):
    """Gaussian mutual information (bits) from empirical covariances."""
    z = np.concatenate([x, y], axis=1)
    z = z - z.mean(axis=0, keepdims=True)
    cov = z.conj().T @ z / z.shape[0]
    dx = x.shape[1]
    return (logdet2_slogdet(cov[:dx, :dx]) + logdet2_slogdet(cov[dx:, dx:])
            - logdet2_slogdet(cov))


def colored_noise(rng, n_samples, omega):
    """Rows are CN(0, omega) samples (omega Hermitian PSD)."""
    w, v = np.linalg.eigh(omega)
    factor = v * np.sqrt(np.maximum(w, 0.0))
    white = cn_samples(rng, (n_samples, omega.shape[0]))
    return white @ factor.T


def received_cov_oracle(h, d, p, excluded=None):
    """diag(d) + sum of p_j h_j h_j^H over every MS j but `excluded`, summed
    one outer product at a time."""
    cov = np.diag(np.asarray(d, dtype=float)).astype(complex)
    for j in range(h.shape[1]):
        if j != excluded:
            cov = cov + p[j] * np.outer(h[:, j], h[:, j].conj())
    return cov


def ul_psi_oracle(h, d, p, k=None):
    """log2 det of the uplink received covariance without MS k (with every
    MS when k is None): phi(p) for k=None, psi_k(p) otherwise."""
    return logdet2_oracle(received_cov_oracle(h, d, p, excluded=k))


def ul_rates_oracle(h, d, p):
    """Per-MS uplink rates with interference treated as noise, as K+1
    separate log-dets: r_k = phi(p) - psi_k(p)."""
    phi = ul_psi_oracle(h, d, p)
    return np.array([phi - ul_psi_oracle(h, d, p, k)
                     for k in range(h.shape[1])])


def ul_omega_prefix_oracle(h, d, p, order, c, mode):
    """Uplink noise powers with every backhaul constraint at equality, fixed
    one BS at a time along `order`: the variance of y_i (conditioned in
    multiterminal mode on the earlier y_hat, by an explicit Schur complement
    of their summed covariance) over 2^c_i - 1.  np.inf outside `order`."""
    cov = received_cov_oracle(h, d, p)
    omega = np.full(h.shape[0], np.inf)
    for pos, i in enumerate(order):
        var = cov[i, i].real
        prev = list(order[:pos])
        if mode == "multiterminal" and prev:
            block = cov[np.ix_(prev, prev)] + np.diag(omega[prev])
            cross = cov[prev, i]
            var -= np.real(cross.conj() @ np.linalg.solve(block, cross))
        omega[i] = var / (2.0 ** c[i] - 1.0)
    return omega


def ul_objective_oracle(h, d, p, w):
    """sum_k w_k r_k over the MSs with nonzero weight."""
    rates = ul_rates_oracle(h, d, p)
    return float(sum(w[k] * rates[k] for k in range(len(w)) if w[k] != 0.0))


def ul_objective_grid_oracle(h, d, powers, w):
    """ul_objective_oracle at each row of the (m, K) ``powers``: the same
    K+1 log-dets, each one eigvalsh over the stacked covariances."""
    def psi(k=None):
        cov = np.diag(np.asarray(d, dtype=float)).astype(complex)
        for j in range(h.shape[1]):
            if j != k:
                cov = cov + powers[:, j, None, None] \
                    * np.outer(h[:, j], h[:, j].conj())
        return np.sum(np.log2(np.linalg.eigvalsh(cov)), axis=-1)
    phi = psi()
    return sum(w[k] * (phi - psi(k)) for k in range(len(w)) if w[k] != 0.0)


def ul_weighted_psi_oracle(h, d, p, w):
    """sum_k w_k psi_k(p): the term the MM surrogate linearizes."""
    return float(sum(w[k] * ul_psi_oracle(h, d, p, k)
                     for k in range(len(w)) if w[k] != 0.0))


def ul_slopes_oracle(h, d, p, w):
    """Gradient of sum_k w_k psi_k at p: h_j^H M_k^-1 h_j / ln 2 for j != k,
    with M_k inverted explicitly for each MS k."""
    slopes = np.zeros(h.shape[1])
    for k in range(h.shape[1]):
        if w[k] == 0.0:
            continue
        inv = np.linalg.inv(received_cov_oracle(h, d, p, excluded=k))
        g = np.real(np.einsum("ij,ik,kj->j", h.conj(), inv, h)) / np.log(2.0)
        g[k] = 0.0
        slopes += w[k] * g
    return slopes


def link_gain_oracle(tx, rx, topology, params, shadowing=True):
    """Linear large-scale gain of one link, evaluated one scalar at a time.

    This is the per-link formula the array-valued
    ``cellgeom.link_gain_linear`` must reproduce bit for bit: the distance
    is ``np.linalg.norm``, the squares and the dB-to-linear step are scalar
    ``**``, and the terms are added in the order path loss, tx end, rx end,
    shadowing.
    """
    p_tx = cellgeom.node_position(topology, tx)
    p_rx = cellgeom.node_position(topology, rx)
    dist = float(np.linalg.norm(p_tx - p_rx))
    if "macro" in (tx[0], rx[0]):
        dist = max(dist, params.min_dist_macro_m)
        a, b = params.macro_pathloss
        gain_db = -float(a + b * np.log10(np.asarray(dist / 1000.0)))
    else:
        dist = max(dist, params.min_dist_pico_m)
        a, b = params.pico_pathloss
        gain_db = -float(a + b * np.log10(np.asarray(dist)))
    for node, other in ((tx, rx), (rx, tx)):
        if node[0] == "macro":
            gain_db += params.gain_macro_dbi
            d = cellgeom.node_position(topology, other) \
                - cellgeom.node_position(topology, node)
            offset = np.degrees(np.arctan2(d[1], d[0])) \
                - cellgeom.SECTOR_BORESIGHTS_DEG[node[2]]
            theta = np.mod(np.asarray(offset) + 180.0, 360.0) - 180.0
            gain_db += -float(np.minimum(
                12.0 * (theta / params.theta_3db_deg) ** 2, params.a_m_db))
        elif node[0] == "pico":
            gain_db += params.gain_pico_dbi
        else:
            gain_db += params.gain_ms_dbi
    if shadowing:
        gain_db += link_shadowing_oracle(topology, tx, rx, params)
    return float(10.0 ** (np.asarray(gain_db) / 10.0))


def link_shadowing_oracle(topology, tx, rx, params):
    """Shadowing of one link in dB, from its own SeedSequence and Generator:
    the per-link draw ``cellgeom.link_shadowing_db`` must reproduce bit for
    bit."""
    codes = sorted((cellgeom._node_code(tx), cellgeom._node_code(rx)))
    std = params.shadow_std_macro_db if "macro" in (tx[0], rx[0]) \
        else params.shadow_std_pico_db
    return shadow_draw_oracle([topology.seed & 0xFFFFFFFF, *codes], std)


def shadow_draw_oracle(entropy, std):
    """``normal(0, std)`` from a Generator on PCG64 seeded by
    ``SeedSequence(entropy)``."""
    ss = np.random.SeedSequence([int(e) for e in entropy])
    return float(np.random.default_rng(ss).normal(0.0, std))


def layout_oracle(seed, k_ms, n_pico, params, sites, tries=10000):
    """(pico_positions, ms_positions) of a drop, placed one node at a time,
    every cell's picos and then every cell's MSs.

    Each try draws ``uniform(-R, R)`` and then ``uniform(-r_in, r_in)`` and
    is kept if it lies in the cell's hexagon, at least 10 m from every macro
    site, and at least 1 m from every pico placed so far in the cell (for a
    pico) or from every pico (for an MS).  A node that fails ``tries`` tries
    is a ConfigurationError.  ``cellgeom.build_layout`` must reproduce this bit
    for bit.
    """
    radius = params.inter_site_distance_m / np.sqrt(3.0)
    r_in = np.sqrt(3.0) / 2.0 * radius
    rng = np.random.default_rng(seed)

    def sample(center, reject):
        for _ in range(tries):
            p = center + np.array([rng.uniform(-radius, radius),
                                   rng.uniform(-r_in, r_in)])
            if cellgeom.hexagon_contains(center, radius, p) and not reject(p):
                return p
        raise ConfigurationError("could not place a node")

    def near_macro(p):
        return np.min(np.linalg.norm(sites - p, axis=1)) \
            < params.min_dist_macro_m

    picos = np.zeros((cellgeom.N_CELLS, n_pico, 2))
    for c in range(cellgeom.N_CELLS):
        for j in range(n_pico):
            picos[c, j] = sample(sites[c], lambda p: near_macro(p) or any(
                np.linalg.norm(q - p) < params.min_dist_pico_m
                for q in picos[c, :j]))
    flat = picos.reshape(-1, 2)
    ms = np.zeros((cellgeom.N_CELLS, k_ms, 2))
    for c in range(cellgeom.N_CELLS):
        for j in range(k_ms):
            ms[c, j] = sample(sites[c], lambda p: near_macro(p) or (
                flat.size > 0 and np.min(np.linalg.norm(flat - p, axis=1))
                < params.min_dist_pico_m))
    return picos, ms
