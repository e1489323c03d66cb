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
neither alpha nor the mode.  A run submits one task per drop, which runs
the drop's alphas in turn inside one drop scope: an alpha sweep builds each
drop and realizes each of its slots once for every alpha and mode.  A run
opens at most one process pool.

A downlink multiterminal run also solves and schedules point-to-point each
slot, as its start, so its files equal the multiterminal half of a run with
both modes.

Configs are frozen, checked once when built (`errors.check_fields`, then
each class's ranges), so `ExperimentConfig.from_dict` refuses and stores
values as direct construction does.  Every run writes its `config.json`.
"""

import json
import os
import platform
import time
from collections.abc import Mapping
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, dataclass, field, fields, is_dataclass, replace
from functools import partial
from itertools import chain

import numpy as np

from . import (__version__, cellgeom, channel as channel_mod, downlink,
               scheduler, uplink)
from .errors import (ConfigurationError, DomainError, check_fields,
                     is_number)

MODE_P2P = uplink.MODE_P2P
MODE_MT = uplink.MODE_MT
MODE_ORDER = (MODE_P2P, MODE_MT)
OUT_DIR_ENV = "CRANSIM_OUT"
FLOAT_FMT = "%.9g"
_SLOT_STREAM = 101


@dataclass(frozen=True)
class RateMapping:
    """Map Shannon rates to scheduled rates; `attenuated` approximates a
    practical modulation/coding ceiling via min(scale*r, cap)."""

    kind: str = "shannon"
    scale: float = 0.6
    cap: float = 4.4

    def __post_init__(self):
        if self.kind not in ("shannon", "attenuated"):
            raise ConfigurationError(f"unknown rate mapping {self.kind!r}")
        check_fields(self, "rate_mapping.")
        for name, value in (("scale", self.scale), ("cap", self.cap)):
            if value < 0:
                raise ConfigurationError(
                    f"rate_mapping.{name} must be >= 0, got {value!r}")

    def apply(self, rates):
        rates = np.asarray(rates, dtype=float)
        if self.kind == "attenuated":
            return np.minimum(self.scale * rates, self.cap)
        return rates


@dataclass(frozen=True)
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

    def __post_init__(self):
        """ConfigurationError unless `check_fields` and the ranges below
        pass; stores a list `alpha` as a new list of floats, else a float."""
        if self.direction not in ("uplink", "downlink"):
            raise ConfigurationError(f"unknown direction {self.direction!r}")
        if self.mode not in (MODE_P2P, MODE_MT, "both"):
            raise ConfigurationError(f"unknown mode {self.mode!r}")
        check_fields(self)
        if self.drops < 1 or self.slots < 1:
            raise ConfigurationError("drops and slots must be >= 1")
        if self.c_macro < 0 or self.c_pico < 0:
            raise ConfigurationError(
                "backhaul capacities must be finite and >= 0")
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
        listed = isinstance(self.alpha, (list, tuple))
        raw = self.alpha if listed else [self.alpha]
        if len(raw) == 0:
            raise ConfigurationError("alpha sweep list must be nonempty")
        if not all(is_number(a) and 0 <= a <= scheduler.ALPHA_MAX
                   for a in raw):
            raise ConfigurationError(
                f"fairness exponents must be numbers in [0, "
                f"{scheduler.ALPHA_MAX:.4g}], above which the weights "
                f"overflow; got {self.alpha!r}")
        labels = [alpha_label(a) for a in raw]
        if len(set(labels)) < len(labels):
            raise ConfigurationError(
                f"fairness exponents must differ in their labels "
                f"{labels}, which name each alpha's result directory; "
                f"got {self.alpha!r}")
        object.__setattr__(self, "alpha", list(map(float, raw)) if listed
                           else float(self.alpha))

    @property
    def modes(self):
        return MODE_ORDER if self.mode == "both" else (self.mode,)

    @property
    def alphas(self):
        """The run's fairness exponents, `alpha`, as a tuple of floats."""
        return tuple(self.alpha) if isinstance(self.alpha, list) \
            else (self.alpha,)

    @classmethod
    def from_dict(cls, data):
        """The config of a mapping of its fields, such as a run's
        `config.json`; nested settings may be mappings.  It is refused, or
        stored, in the words and values of a config built directly."""
        return _from_mapping(cls, data)


def alpha_label(alpha):
    """How a sweep's files name a fairness exponent: its ``%g`` form."""
    return f"{float(alpha):g}"


def _from_mapping(cls, data, prefix=""):
    """cls(**data) for a config dataclass, once every key names a field of
    cls; a nested config given as a mapping is built the same way.  No value
    is converted or judged here."""
    if not isinstance(data, Mapping):
        raise ConfigurationError(f"config must be a mapping, got {data!r}")
    kinds = {f.name: f.type for f in fields(cls)}
    values = dict(data)
    for key, value in data.items():
        kind = kinds.get(key)
        if kind is None:
            raise ConfigurationError(f"unknown config key {prefix}{key}")
        if is_dataclass(kind) and isinstance(value, Mapping):
            values[key] = _from_mapping(kind, value, f"{prefix}{key}.")
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


# [Cluster or None, {slot: (realization, VertexTable or None)}] or empty
_drop_scope = []


def _simulate_drop(config, drop):
    """Run all slots of one drop; deterministic given (config.seed, drop).
    Inside `_alphas_of_drop` it takes the drop's Cluster and each slot's
    realization and vertex table from the open drop scope, making each on
    first use; called directly, it builds its own and shares nothing."""
    scope = _drop_scope or [None, {}]
    if scope[0] is None:
        topo = cellgeom.build_layout(_drop_seed(config.seed, drop),
                                     config.k_ms, config.n_pico,
                                     config.propagation, reuse=config.reuse)
        scope[0] = channel_mod.build_cluster(
            topo, config.propagation, direction=config.direction)
    cluster, channels = scope
    c_vec = cluster.backhaul_capacities(config.c_macro, config.c_pico)
    modes = config.modes
    # a downlink multiterminal design refines the slot's point-to-point one,
    # so point-to-point is solved and scheduled whether recorded or not
    solved = MODE_ORDER if config.direction == "downlink" \
        and MODE_MT in modes else modes
    states = {m: scheduler.initial_state(config.k_ms, config.alpha,
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


def _alphas_of_drop(simulate, configs, drop):
    """`simulate(config, drop)` of each config in turn, in one drop scope:
    the configs differ only in alpha, so they share the drop."""
    _drop_scope[:] = [None, {}]
    try:
        return [simulate(c, drop) for c in configs]
    finally:
        _drop_scope.clear()


def _run(config):
    """One MetricsReport per alpha, all from a single pass over the drops.

    Each drop is one task of `_alphas_of_drop`, run in one process pool of
    min(`jobs`, `drops`) workers when that exceeds 1.  Every report's
    `elapsed_s` is the wall time of the whole run.
    """
    configs = [replace(config, alpha=a) for a in config.alphas]
    # read here, so a replacement reaches pool workers of any start method
    task = partial(_alphas_of_drop, _simulate_drop, configs)
    # a forking pool starts all its workers at the first submit
    workers = min(config.jobs, config.drops)
    start = time.perf_counter()
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            by_drop = list(pool.map(task, range(config.drops)))
    else:
        by_drop = list(map(task, range(config.drops)))
    metrics = [_aggregate(c, o) for c, o in zip(configs, zip(*by_drop))]
    elapsed = time.perf_counter() - start
    return [MetricsReport(config=c, metrics=m, elapsed_s=elapsed)
            for c, m in zip(configs, metrics)]


def run_experiment(config):
    """Execute all drops of one configuration and aggregate the metrics.

    `alpha` names one fairness exponent, as a number or a one-element list;
    the report's config holds it as a float either way."""
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


def _write(path, lines):
    with open(path, "w") as fh:
        fh.writelines(f"{line}\n" for line in lines)


def write_records_csv(report, path):
    """Per-slot records, fixed field order and float format (9 significant
    digits) so identical runs produce byte-identical files."""
    _write(path, chain(["drop,slot,mode,ms,rate"], (
        f"{drop},{slot},{mode},{ms},{FLOAT_FMT % rate}"
        for drop in range(report.config.drops)
        for slot in range(report.config.slots) for mode in report.modes
        for ms, rate in enumerate(report.metrics[mode].rates[drop, slot]))))


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
    _write(path, lines)


def write_cdf_data(report, out_dir):
    for mode in report.modes:
        samples = report.metrics[mode].sum_rate_samples
        ecdf = (np.arange(samples.size) + 1) / samples.size
        _write(os.path.join(out_dir, f"cdf_{mode}.dat"),
               [f"{FLOAT_FMT % x} {FLOAT_FMT % y}"
                for x, y in zip(samples, ecdf)])


def write_config(config, out_dir):
    """config.json: every field but `jobs`, which changes no result file, as
    `from_dict` loads it back; `--config` of it reruns the run."""
    _write(os.path.join(out_dir, "config.json"), [json.dumps(
        {k: v for k, v in asdict(config).items() if k != "jobs"},
        sort_keys=True)])


def write_report(report, out_dir):
    os.makedirs(out_dir, exist_ok=True)
    write_config(report.config, out_dir)
    write_records_csv(report, os.path.join(out_dir, "records.csv"))
    write_summary(report, os.path.join(out_dir, "summary.txt"))
    write_cdf_data(report, out_dir)
    # what differs between reruns stays out of the other files: timing.json
    _write(os.path.join(out_dir, "timing.json"), [json.dumps(
        {"elapsed_s": report.elapsed_s, "jobs": report.config.jobs,
         "versions": {"cransim": __version__, "numpy": np.__version__,
                      "python": platform.python_version()}})])


def write_sweep(sweep, out_dir):
    os.makedirs(out_dir, exist_ok=True)
    write_config(sweep.config, out_dir)
    lines = ["alpha sweep", "==========="]
    for mode in sweep.config.modes:
        points = [(alpha_label(rep.config.alpha),
                   FLOAT_FMT % rep.metrics[mode].avg_spectral_efficiency,
                   FLOAT_FMT % rep.metrics[mode].cell_edge_throughput)
                  for rep in sweep.reports]
        _write(os.path.join(out_dir, f"sweep_{mode}.dat"),
               [f"{se} {edge}" for _, se, edge in points])
        lines.append(f"[{mode}]")
        lines += [f"  alpha={a} avg_se={se} cell_edge={edge}"
                  for a, se, edge in points]
    _write(os.path.join(out_dir, "sweep_summary.txt"), lines + sweep.notes)
    for rep in sweep.reports:
        write_report(rep, os.path.join(
            out_dir, f"alpha_{alpha_label(rep.config.alpha)}"))
