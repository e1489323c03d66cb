"""Per-solve records and spans, collected from an unchanged CLI run.

The benchmark runs ``cransim.cli.main`` as a user would.  For the length of
a run, ``harness._simulate_drop`` and ``harness._aggregate`` are replaced by
thin wrappers: the first records every ``optimize_ul``/``optimize_dl`` call
of a drop and ships the records back on the ``DropOutcome`` (so pool
workers return them too), the second hands the finished outcomes to the
benchmark.  A traced run also puts a span around the drop and around every
call into a layer the harness makes through a module attribute, counts
kernels (tracing.py), ships the drop's tracer back the same way and puts a
span around ``write_report``.  The wrappers are installed per drop, inside
the worker, so they hold whatever start method the pool uses.  Designs are
re-checked against their true constraints only after a run has ended.
"""

import inspect
import os
from contextlib import contextmanager
from dataclasses import dataclass, field

import numpy as np
from cransim import (cellgeom, channel as channel_mod, downlink, harness,
                     scheduler, uplink)
from cransim.errors import DomainError, NumericalDomainError

from tracing import Tracer, counters, patched

BACKHAUL_TOL = 1e-7
DL_MARGIN_TOL = 1e-7
POWER_RTOL = 1e-12

ORIGINAL_SIMULATE_DROP = harness._simulate_drop
ORIGINAL_AGGREGATE = harness._aggregate
ORIGINAL_WRITE_REPORT = harness.write_report
SOLVERS = ((uplink, "optimize_ul"), (downlink, "optimize_dl"))
_SIGS = {attr: inspect.signature(getattr(mod, attr)) for mod, attr in SOLVERS}
# layer calls the harness makes through module attributes, spanned as
# "<module>.<function>"; the solvers are spanned by their recorders
LAYER_CALLS = ((cellgeom, "build_layout"), (channel_mod, "build_cluster"),
               (channel_mod, "realize_channel"), (scheduler, "weights"),
               (scheduler, "update"), (downlink, "feasible_dl"))


def span_name(mod, attr):
    return f"{mod.__name__.rsplit('.', 1)[-1]}.{attr}"


@dataclass
class Solve:
    """What the benchmark keeps of one optimize_* call for one (alpha, drop,
    slot, mode): the design and the MMTrace summary, plus the channel and
    power limits an uplink re-check needs."""
    alpha: float
    drop: int
    slot: int
    mode: str
    design: object
    iterations: int
    converged: bool
    warnings: list = field(default_factory=list)
    channel: object = None           # uplink only
    p_max: object = None             # uplink only
    ms: float = 0.0                  # solve time, traced runs only
    recheck_ok: bool = None
    recheck_detail: str = ""

    @property
    def failed(self):
        return not (self.converged and self.recheck_ok)


def _recorders(records, alpha, drop, tracer=None):
    """Replacements (for ``patched``) of both solvers that append a Solve
    per call and, with a tracer, put a span around the call."""
    def make(mod, attr):
        fn, sig = getattr(mod, attr), _SIGS[attr]
        name = span_name(mod, attr)

        def recorded(*args, **kwargs):
            arg = sig.bind(*args, **kwargs).arguments
            chan, mode = arg["channel"], arg["mode"]
            if tracer is None:
                res, ms = fn(*args, **kwargs), 0.0
            else:
                with tracer.span(name, slot=chan.slot_index, mode=mode) as sp:
                    res = fn(*args, **kwargs)
                ms = (sp["end"] - sp["start"]) / 1e6
            uplink_call = mod is uplink
            records.append(Solve(
                alpha=alpha, drop=drop, slot=chan.slot_index, mode=mode,
                design=res.design, iterations=res.trace.iterations,
                converged=bool(res.trace.converged),
                warnings=list(res.trace.warnings),
                channel=chan if uplink_call else None,
                p_max=arg["p_max"] if uplink_call else None, ms=ms))
            return res
        return recorded
    return {(mod, attr): make(mod, attr) for mod, attr in SOLVERS}


def simulate_drop(config, drop):
    """``harness._simulate_drop`` plus the drop's solve records."""
    records = []
    with patched(_recorders(records, float(config.alpha), drop)):
        out = ORIGINAL_SIMULATE_DROP(config, drop)
    out.bench_solves = records
    return out


def traced_simulate_drop(config, drop):
    """``simulate_drop`` with a span around the drop and every layer call,
    and kernel counts; the drop's tracer comes back on the outcome."""
    records, tracer, alpha = [], Tracer(), float(config.alpha)
    wrappers = {(mod, attr): tracer.wrap(getattr(mod, attr),
                                         span_name(mod, attr))
                for mod, attr in LAYER_CALLS}
    wrappers.update(counters(tracer))
    wrappers.update(_recorders(records, alpha, drop, tracer))
    with patched(wrappers), tracer.span("harness.drop", alpha=alpha,
                                        drop=drop):
        out = ORIGINAL_SIMULATE_DROP(config, drop)
    out.bench_solves = records
    out.bench_tracer = tracer
    return out


@contextmanager
def capturing(tracer=None):
    """Collect (config, outcomes) of every run_experiment call in the block.
    With a tracer, drops are traced and ``write_report`` calls are spanned
    on ``tracer``, with the bytes written."""
    runs = []

    def aggregate(config, outcomes):
        runs.append((config, list(outcomes)))
        return ORIGINAL_AGGREGATE(config, outcomes)

    def write_report(report, out_dir):
        with tracer.span("harness.write_report",
                         alpha=float(report.config.alpha)) as sp:
            ORIGINAL_WRITE_REPORT(report, out_dir)
        files = [os.path.join(out_dir, f) for f in os.listdir(out_dir)]
        sp["counts"]["bytes"] = sum(os.path.getsize(f) for f in files
                                    if os.path.isfile(f))

    repl = {(harness, "_aggregate"): aggregate,
            (harness, "_simulate_drop"): simulate_drop}
    if tracer is not None:
        repl.update({(harness, "_simulate_drop"): traced_simulate_drop,
                     (harness, "write_report"): write_report})
    with patched(repl):
        yield runs


def recheck(solve):
    """Re-check a returned design against its true constraints."""
    try:
        problems = _violations(solve)
    except (DomainError, NumericalDomainError) as exc:
        problems = [f"re-check raised: {exc}"]
    solve.recheck_ok = not problems
    solve.recheck_detail = "; ".join(problems)
    return solve.recheck_ok


def _violations(solve):
    d = solve.design
    if isinstance(d, downlink.DownlinkDesign):
        rep = downlink.feasible_dl(d)
        if rep.margin >= -DL_MARGIN_TOL:
            return []
        return [f"margin {rep.margin:.3e} at {rep.worst_constraint}"]
    p_max = np.asarray(solve.p_max, dtype=float)
    problems = []
    if np.any(d.p < 0) or np.any(d.p > p_max * (1 + POWER_RTOL)):
        problems.append("power box")
    if d.mode == uplink.MODE_P2P:
        loads = [(i, uplink.backhaul_p2p(d, solve.channel, i)) for i in d.active]
    else:
        loads = [(i, uplink.backhaul_wz(d, solve.channel, pos))
                 for pos, i in enumerate(d.order)]
    for i, load in loads:
        if not load <= d.c[i] + BACKHAUL_TOL:
            problems.append(f"backhaul[{i}] {load:.9g} > {d.c[i]:.9g}")
    return problems
