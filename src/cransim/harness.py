"""Experiment orchestration: Monte-Carlo drops, metrics and result files.

A run sweeps `drops` random placements; each drop keeps its large-scale
state fixed for `slots` time slots of independent fading.  Per slot the
proportional-fair weights are computed, the per-mode design problem is
solved, the achieved rates are pushed through the configured rate mapping
and folded back into the fairness averages.  Both compression modes can run
side by side on identical channel realizations, which makes all reported
gains paired comparisons.

Drops execute independently (optionally in a process pool); every drop
derives its rng streams from the master seed and its own index, so results
are byte-identical no matter how many workers are used.  A drop's geometry
(layout, and the cluster for the run's direction), its slots' channel
realizations and, in the uplink, their `uplink.VertexTable`s depend on
neither alpha nor the mode, and are kept for the next drop whose index and
config, alpha aside, are equal: an alpha sweep builds each drop and
realizes each of its slots once for every alpha and mode.  A run opens at
most one process pool, in which one worker takes all alphas of a drop.

A downlink multiterminal run also solves and schedules point-to-point each
slot, as its start, so its files equal the multiterminal half of a run with
both modes.
"""

import json
import os
import sys
import time
from collections.abc import Mapping
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, fields, is_dataclass, replace
from numbers import Integral, Real

import numpy as np

from . import cellgeom, channel as channel_mod, downlink, scheduler, uplink
from .errors import ConfigurationError, DomainError

MODE_P2P = uplink.MODE_P2P
MODE_MT = uplink.MODE_MT
MODE_ORDER = (MODE_P2P, MODE_MT)
OUT_DIR_ENV = "CRANSIM_OUT"
FLOAT_FMT = "%.9g"
_SLOT_STREAM = 101


@dataclass
class RateMapping:
    """Map Shannon rates to scheduled rates; `attenuated` approximates a
    practical modulation/coding ceiling via min(scale*r, cap)."""

    kind: str = "shannon"
    scale: float = 0.6
    cap: float = 4.4

    def __post_init__(self):
        if self.kind not in ("shannon", "attenuated"):
            raise ConfigurationError(f"unknown rate mapping {self.kind!r}")
        for name in ("scale", "cap"):
            value = getattr(self, name)
            if not value >= 0:     # NaN fails too
                raise ConfigurationError(
                    f"rate_mapping.{name} must be >= 0, got {value!r}")

    def apply(self, rates):
        rates = np.asarray(rates, dtype=float)
        if self.kind == "attenuated":
            return np.minimum(self.scale * rates, self.cap)
        return rates


@dataclass
class ExperimentConfig:
    direction: str = "uplink"          # uplink | downlink
    mode: str = "both"                 # point_to_point | multiterminal | both
    k_ms: int = 5
    n_pico: int = 3
    c_macro: float = 3.0
    c_pico: float = 1.0
    alpha: object = 0.0                # float, or list of floats for sweeps
    beta: float = 0.5
    slots: int = 1
    drops: int = 200
    seed: int = 1
    reuse: str = "F1_3"
    jobs: int = 1
    rate_mapping: RateMapping = field(default_factory=RateMapping)
    propagation: cellgeom.PropagationParams = field(
        default_factory=cellgeom.PropagationParams)

    def validate(self):
        if self.direction not in ("uplink", "downlink"):
            raise ConfigurationError(f"unknown direction {self.direction!r}")
        if self.mode not in (MODE_P2P, MODE_MT, "both"):
            raise ConfigurationError(f"unknown mode {self.mode!r}")
        # a NaN or infinity is left to the range checks below
        for f in fields(self):
            value, kind = getattr(self, f.name), f.type
            if is_dataclass(kind) and not isinstance(value, kind):
                raise ConfigurationError(
                    f"{f.name} must be a {kind.__name__}, got "
                    f"{type(value).__name__}; ExperimentConfig.from_dict "
                    f"takes a mapping")
            if kind in _FITS and not (_FITS[kind](value)
                                      or _non_finite(kind, value)):
                raise ConfigurationError(f"{f.name} must be of type "
                                         f"{kind.__name__}, got {value!r}")
        if self.drops < 1 or self.slots < 1:
            raise ConfigurationError("drops and slots must be >= 1")
        if not (0 <= self.c_macro < np.inf and 0 <= self.c_pico < np.inf):
            raise ConfigurationError(
                "backhaul capacities must be finite and >= 0")   # NaN fails
        if self.direction == "uplink":
            floor = channel_mod.noise_floor_w(self.propagation)
            for name, kind in (("c_macro", "macro"), ("c_pico", "pico")):
                value = getattr(self, name)
                bound = uplink.capacity_max(floor[kind])
                if not value <= bound:
                    raise ConfigurationError(
                        f"uplink {name} must be <= {bound:.6g} bps/Hz, "
                        f"which the quantization noise power at the BS's "
                        f"thermal floor can meet in floating point; got "
                        f"{value!r}")
                if 0 < value < uplink.CAPACITY_MIN:
                    raise ConfigurationError(
                        f"uplink {name} must be 0 or >= "
                        f"{uplink.CAPACITY_MIN:.6g} bps/Hz, below which "
                        f"2^c - 1 and the quantization noise power it "
                        f"divides reach 0 and inf; got {value!r}")
        if not 0.0 <= self.beta <= 1.0:
            raise ConfigurationError("beta must lie in [0, 1]")
        if self.k_ms < 1 or self.n_pico < 0:
            raise ConfigurationError("k_ms must be >= 1 and n_pico >= 0")
        if self.direction == "uplink" and self.k_ms > uplink.K_MS_MAX:
            raise ConfigurationError(
                f"uplink k_ms must be <= {uplink.K_MS_MAX}, the most MSs "
                f"whose power-box vertices the power solve scores; got "
                f"{self.k_ms}")
        if self.direction == "downlink":
            n_bs = cellgeom.N_SECTORS * (self.c_macro > 0) \
                + self.n_pico * (self.c_pico > 0)
            if n_bs > downlink.SUBSET_ENUM_CAP:
                raise ConfigurationError(
                    f"downlink n_pico must leave at most "
                    f"{downlink.SUBSET_ENUM_CAP} active BSs "
                    f"({cellgeom.N_SECTORS} macro sectors and the picos, each "
                    f"with backhaul), whose subset backhaul conditions the "
                    f"solver enumerates; got n_pico={self.n_pico}, {n_bs} "
                    f"active BSs")
        if self.jobs < 1 or self.seed < 0:
            raise ConfigurationError("jobs must be >= 1 and seed >= 0")
        if self.reuse not in cellgeom.REUSE_MODES:
            raise ConfigurationError(f"unknown reuse mode {self.reuse!r}")
        # the raw values: float() would take a bool and raise on a string
        raw = self.alpha if isinstance(self.alpha, (list, tuple)) \
            else [self.alpha]
        if len(raw) == 0:
            raise ConfigurationError("alpha sweep list must be nonempty")
        if not all(_is_number(a) and 0 <= a <= scheduler.ALPHA_MAX
                   for a in raw):
            raise ConfigurationError(
                f"fairness exponents must be numbers in [0, "
                f"{scheduler.ALPHA_MAX:.4g}], above which the weights "
                f"overflow; got {self.alpha!r}")
        labels = [alpha_label(a) for a in self.alphas]
        if len(set(labels)) < len(labels):
            raise ConfigurationError(
                f"fairness exponents must differ in their labels "
                f"{labels}, which name each alpha's result directory; "
                f"got {self.alpha!r}")
        return self

    @property
    def modes(self):
        return MODE_ORDER if self.mode == "both" else (self.mode,)

    @property
    def alphas(self):
        """The run's fairness exponents, `alpha`, as a tuple of floats."""
        return tuple(map(float, self.alpha)) \
            if isinstance(self.alpha, (list, tuple)) else (float(self.alpha),)

    @classmethod
    def from_dict(cls, data):
        """A validated config from a mapping of its fields; nested settings
        may be mappings.  Any malformed input raises ConfigurationError."""
        return _from_mapping(cls, data).validate()


def alpha_label(alpha):
    """How a sweep's files name a fairness exponent: its ``%g`` form."""
    return f"{float(alpha):g}"


def _is_real(value):
    return isinstance(value, Real) and not isinstance(value, bool)


def _is_number(value):
    """A real number in the finite float range that is not a bool."""
    return _is_real(value) and abs(value) <= sys.float_info.max


def _non_finite(kind, value):
    """A float or a path-loss pair whose only fault is a NaN or infinity."""
    if kind is tuple:
        return (isinstance(value, (list, tuple)) and len(value) == 2
                and all(map(_is_real, value)))
    return kind is float and _is_real(value)


# value checks by field annotation; `object` fields are checked by validate()
_FITS = {
    int: lambda v: isinstance(v, Integral) and not isinstance(v, bool),
    float: _is_number,
    str: lambda v: isinstance(v, str),
    tuple: lambda v: (isinstance(v, (list, tuple)) and len(v) == 2
                      and all(map(_is_number, v))),   # path-loss pairs
}


def _from_mapping(cls, data, prefix=""):
    """cls(**data) for a config dataclass, once every key names a field of
    cls and every value fits the field's type; nested config dataclasses
    may be given as mappings.  Float fields store floats, as flags do."""
    if not isinstance(data, Mapping):
        raise ConfigurationError(f"{prefix.rstrip('.') or 'config'} must be "
                                 f"a mapping, got {data!r}")
    kinds = {f.name: f.type for f in fields(cls)}
    values = dict(data)
    for key, value in data.items():
        kind = kinds.get(key)
        if kind is None:
            raise ConfigurationError(f"unknown config key {prefix}{key}")
        if is_dataclass(kind) and not isinstance(value, kind):
            values[key] = _from_mapping(kind, value, f"{prefix}{key}.")
        elif kind in _FITS and not _FITS[kind](value):
            fault = ("be finite" if _non_finite(kind, value)
                     else f"be of type {kind.__name__}")
            raise ConfigurationError(f"{prefix}{key} must {fault}, "
                                     f"got {value!r}")
        elif kind is float:
            values[key] = float(value)
    return cls(**values)


# Named experiment setups.  The two downlink entries are the two parameter
# sets quoted for the cell-edge/efficiency trade-off figure, which disagree
# between caption and body text; both ship so either can be reproduced.
# The downlink sweeps start at stronger fairness exponents than the uplink
# one: below alpha ~ 1.5-2 the downlink scheduler partially starves the
# weakest users in both compression modes, and a 5%-ile comparison of
# near-zero rates is not informative.
PRESETS = {
    "ul-cdf": dict(direction="uplink", mode="both", k_ms=5, n_pico=5,
                   c_macro=3.0, c_pico=1.0, alpha=0.0, slots=1, drops=200),
    "ul-sweep": dict(direction="uplink", mode="both", k_ms=5, n_pico=3,
                     c_macro=9.0, c_pico=3.0, beta=0.5, slots=10, drops=24,
                     alpha=[0.0, 0.5, 1.0, 2.0, 3.0]),
    "dl-sweep-a": dict(direction="downlink", mode="both", k_ms=4, n_pico=1,
                       c_macro=3.0, c_pico=1.0, beta=0.5, slots=5, drops=20,
                       alpha=[2.0, 2.5, 3.0, 4.0]),
    "dl-sweep-b": dict(direction="downlink", mode="both", k_ms=5, n_pico=3,
                       c_macro=9.0, c_pico=3.0, beta=0.5, slots=10, drops=12,
                       alpha=[1.5, 2.0, 3.0, 4.0]),
}


def percentile(samples, q):
    """Linear-interpolation empirical quantile, q in [0, 100]."""
    samples = np.asarray(samples, dtype=float)
    if samples.size == 0:
        raise DomainError("percentile of an empty sample set")
    if not 0.0 <= q <= 100.0:
        raise DomainError("q must lie in [0, 100]")
    return float(np.percentile(samples, q, method="linear"))


def _drop_seed(master_seed, drop):
    words = np.random.SeedSequence([int(master_seed), int(drop)]).generate_state(2)
    return int(words[0]) << 32 | int(words[1])


def _slot_rng(master_seed, drop, slot):
    return np.random.default_rng(
        np.random.SeedSequence([int(master_seed), int(drop), _SLOT_STREAM,
                                int(slot)]))


@dataclass
class DropOutcome:
    drop: int
    rates: dict              # mode -> (slots, k_ms) mapped rates
    warnings: dict           # mode -> solver warnings over the drop's slots
    mm_iterations: dict      # mode -> MM iterations over the drop's slots


# [(drop, config with alpha None), Cluster, {slot: (ChannelRealization,
# VertexTable or None)}] of this process's last drop; a run starts and ends
# with it empty
_last_drop = []


def _simulate_drop(config, drop):
    """Run all slots of one drop; deterministic given (config.seed, drop).
    Consecutive calls for one drop whose configs differ at most in alpha
    share its Cluster and its slots, each realized on first use."""
    key = drop, replace(config, alpha=None)
    if not _last_drop or _last_drop[0] != key:
        topo = cellgeom.build_layout(_drop_seed(config.seed, drop),
                                     config.k_ms, config.n_pico,
                                     config.propagation, reuse=config.reuse)
        _last_drop[:] = [key, channel_mod.build_cluster(
            topo, config.propagation, direction=config.direction), {}]
    _, cluster, channels = _last_drop
    c_vec = cluster.backhaul_capacities(config.c_macro, config.c_pico)
    modes = config.modes
    # a downlink multiterminal design refines the slot's point-to-point one,
    # so point-to-point is solved and scheduled whether recorded or not
    solved = MODE_ORDER if config.direction == "downlink" \
        and MODE_MT in modes else modes
    states = {m: scheduler.initial_state(config.k_ms, float(config.alpha),
                                         config.beta) for m in solved}
    out = DropOutcome(drop=drop,
                      rates={m: np.zeros((config.slots, config.k_ms))
                             for m in modes},
                      warnings=dict.fromkeys(modes, 0),
                      mm_iterations=dict.fromkeys(modes, 0))

    for slot in range(config.slots):
        if slot not in channels:
            chan = channel_mod.realize_channel(
                cluster, slot, _slot_rng(config.seed, drop, slot))
            channels[slot] = chan, (uplink.VertexTable(
                chan, c_vec, cluster.power_limits_ul(), cluster.n_macro)
                if config.direction == "uplink" else None)
        chan, table = channels[slot]
        results = {}
        if config.direction == "uplink":
            p_max = cluster.power_limits_ul()
            for m in modes:
                results[m] = uplink.optimize_ul(
                    chan, c_vec, scheduler.weights(states[m]), m, p_max,
                    n_macro=cluster.n_macro, table=table)
        else:
            p_bs = cluster.power_limits_dl()
            for m in solved:
                init = results[MODE_P2P].design if m == MODE_MT else None
                results[m] = downlink.optimize_dl(
                    chan, c_vec, p_bs, scheduler.weights(states[m]), m,
                    init=init)

        for m in solved:
            mapped = config.rate_mapping.apply(results[m].rates)
            states[m] = scheduler.update(states[m], mapped)
            if m in modes:
                out.rates[m][slot] = mapped
                out.warnings[m] += len(results[m].trace.warnings)
                out.mm_iterations[m] += results[m].trace.iterations
    return out


@dataclass
class ModeMetrics:
    rates: np.ndarray                 # (drops, slots, k_ms)
    sum_rate_samples: np.ndarray      # sorted over (drop, slot)
    p5_sum_rate: float
    p50_sum_rate: float
    mean_sum_rate: float
    avg_spectral_efficiency: float    # mean long-run per-MS rate
    cell_edge_throughput: float       # 5%-ile of long-run per-MS rates
    solver_warnings: int
    mm_iterations: int


@dataclass
class MetricsReport:
    config: ExperimentConfig
    metrics: dict                     # mode -> ModeMetrics
    elapsed_s: float

    @property
    def modes(self):
        return self.config.modes


def _aggregate(config, outcomes):
    metrics = {}
    for m in config.modes:
        rates = np.stack([o.rates[m] for o in outcomes])
        sums = np.sort(rates.sum(axis=2).ravel())
        long_run = rates.mean(axis=1).ravel()
        metrics[m] = ModeMetrics(
            rates=rates, sum_rate_samples=sums,
            p5_sum_rate=percentile(sums, 5), p50_sum_rate=percentile(sums, 50),
            mean_sum_rate=float(np.mean(sums)),
            avg_spectral_efficiency=float(np.mean(long_run)),
            cell_edge_throughput=percentile(long_run, 5),
            solver_warnings=sum(o.warnings[m] for o in outcomes),
            mm_iterations=sum(o.mm_iterations[m] for o in outcomes))
    return metrics


def _run(config):
    """One MetricsReport per alpha, all from a single pass over the drops.

    The (drop, alpha) grid runs drop-major, in one process pool of
    min(`jobs`, `drops`) workers when that exceeds 1, whose workers take all
    alphas of a drop as one chunk, so each drop's cluster is built once.
    Every report's `elapsed_s` is the wall time of the whole run.
    """
    configs = [replace(config, alpha=a) for a in config.alphas]
    grid = [(c, d) for d in range(config.drops) for c in configs]
    # a forking pool starts all its workers at the first submit
    workers = min(config.jobs, config.drops)
    start = time.perf_counter()
    _last_drop.clear()
    try:
        if workers > 1:
            with ProcessPoolExecutor(max_workers=workers) as pool:
                outcomes = list(pool.map(_simulate_drop, *zip(*grid),
                                         chunksize=len(configs)))
        else:
            outcomes = [_simulate_drop(c, d) for c, d in grid]
    finally:
        _last_drop.clear()
    metrics = [_aggregate(c, outcomes[i::len(configs)])
               for i, c in enumerate(configs)]
    elapsed = time.perf_counter() - start
    return [MetricsReport(config=c, metrics=m, elapsed_s=elapsed)
            for c, m in zip(configs, metrics)]


def run_experiment(config):
    """Execute all drops of one configuration and aggregate the metrics.

    `alpha` names one fairness exponent, as a number or a one-element list;
    the report's config holds it as a float either way."""
    config.validate()
    if len(config.alphas) > 1:
        raise ConfigurationError(
            "run_experiment needs one alpha; use alpha_sweep for lists")
    return _run(config)[0]


@dataclass
class SweepResult:
    config: ExperimentConfig
    reports: list                     # one MetricsReport per alpha
    notes: list

    @property
    def alphas(self):
        return tuple(rep.config.alpha for rep in self.reports)


def alpha_sweep(config):
    """One MetricsReport per fairness exponent: a curve point per mode.

    All sweep points share the same seed, so curves are paired across both
    alpha and compression mode.  Each drop is built once per sweep and
    shared by all alphas, and the sweep opens at most one process pool;
    every report's `elapsed_s` is the wall time of the whole sweep.  The
    expected fairness trade-off (cell edge non-decreasing in alpha) is
    checked softly and reported in `notes`.
    """
    config.validate()
    reports = _run(config)
    notes = []
    for m in config.modes:
        ce = [rep.metrics[m].cell_edge_throughput for rep in reports]
        if any(b < a - 1e-12 for a, b in zip(ce, ce[1:])):
            notes.append(f"cell-edge throughput not monotone in alpha for "
                         f"{m}: [{', '.join(FLOAT_FMT % x for x in ce)}]")
    return SweepResult(config=config, reports=reports, notes=notes)


# ---------------------------------------------------------------------------
# result files
# ---------------------------------------------------------------------------

def default_out_dir():
    return os.environ.get(OUT_DIR_ENV, "results")


def write_records_csv(report, path):
    """Per-slot records, fixed field order and float format (9 significant
    digits) so identical runs produce byte-identical files."""
    with open(path, "w") as fh:
        fh.write("drop,slot,mode,ms,rate\n")
        for drop in range(report.config.drops):
            for slot in range(report.config.slots):
                for mode in report.modes:
                    rates = report.metrics[mode].rates[drop, slot]
                    for ms, rate in enumerate(rates):
                        fh.write(f"{drop},{slot},{mode},{ms},"
                                 f"{FLOAT_FMT % rate}\n")


def write_summary(report, path):
    cfg = report.config
    lines = ["experiment summary", "==================",
             f"direction={cfg.direction} mode={cfg.mode} K={cfg.k_ms} "
             f"N={cfg.n_pico} C=({cfg.c_macro},{cfg.c_pico}) "
             f"alpha={cfg.alpha} beta={cfg.beta} slots={cfg.slots} "
             f"drops={cfg.drops} seed={cfg.seed} reuse={cfg.reuse}",
             f"rate_mapping={cfg.rate_mapping.kind}", ""]
    for mode in report.modes:
        m = report.metrics[mode]
        lines += [f"[{mode}]",
                  f"  sum-rate bps/Hz: mean={FLOAT_FMT % m.mean_sum_rate} "
                  f"p50={FLOAT_FMT % m.p50_sum_rate} "
                  f"p5={FLOAT_FMT % m.p5_sum_rate}",
                  f"  avg spectral efficiency={FLOAT_FMT % m.avg_spectral_efficiency}"
                  f" cell-edge={FLOAT_FMT % m.cell_edge_throughput}",
                  f"  solver: mm_iterations={m.mm_iterations} "
                  f"warnings={m.solver_warnings}"]
    if len(report.modes) == 2:
        p50_gain = report.metrics[MODE_MT].p50_sum_rate \
            / max(report.metrics[MODE_P2P].p50_sum_rate, 1e-30)
        lines.append(f"multiterminal/p2p 50%-ile sum-rate ratio="
                     f"{FLOAT_FMT % p50_gain}")
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def write_cdf_data(report, out_dir):
    for mode in report.modes:
        samples = report.metrics[mode].sum_rate_samples
        ecdf = (np.arange(samples.size) + 1) / samples.size
        with open(os.path.join(out_dir, f"cdf_{mode}.dat"), "w") as fh:
            for x, y in zip(samples, ecdf):
                fh.write(f"{FLOAT_FMT % x} {FLOAT_FMT % y}\n")


def write_sweep_data(sweep, out_dir):
    for mode in sweep.config.modes:
        with open(os.path.join(out_dir, f"sweep_{mode}.dat"), "w") as fh:
            for rep in sweep.reports:
                m = rep.metrics[mode]
                fh.write(f"{FLOAT_FMT % m.avg_spectral_efficiency} "
                         f"{FLOAT_FMT % m.cell_edge_throughput}\n")


def write_report(report, out_dir):
    os.makedirs(out_dir, exist_ok=True)
    write_records_csv(report, os.path.join(out_dir, "records.csv"))
    write_summary(report, os.path.join(out_dir, "summary.txt"))
    write_cdf_data(report, out_dir)
    # wall-clock time stays out of summary.txt, which is thereby
    # byte-identical across reruns and `--jobs`
    with open(os.path.join(out_dir, "timing.json"), "w") as fh:
        json.dump({"elapsed_s": report.elapsed_s}, fh)
        fh.write("\n")


def write_sweep(sweep, out_dir):
    os.makedirs(out_dir, exist_ok=True)
    write_sweep_data(sweep, out_dir)
    lines = ["alpha sweep", "==========="]
    for mode in sweep.config.modes:
        lines.append(f"[{mode}]")
        for rep in sweep.reports:
            m = rep.metrics[mode]
            lines.append(f"  alpha={alpha_label(rep.config.alpha)} "
                         f"avg_se={FLOAT_FMT % m.avg_spectral_efficiency} "
                         f"cell_edge={FLOAT_FMT % m.cell_edge_throughput}")
    lines.extend(sweep.notes)
    with open(os.path.join(out_dir, "sweep_summary.txt"), "w") as fh:
        fh.write("\n".join(lines) + "\n")
    for rep in sweep.reports:
        write_report(rep, os.path.join(
            out_dir, f"alpha_{alpha_label(rep.config.alpha)}"))
