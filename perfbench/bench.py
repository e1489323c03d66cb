"""Benchmark worker: one workload and seed, in a fresh interpreter.

run.py starts it with the BLAS thread variables pinned to 1 and ``src/`` on
``PYTHONPATH``.

1. A one-drop warm-up through the CLI (not timed).
2. The end-to-end run: ``cransim.cli.main`` on the workload, timed, with
   every solve recorded (solves.py).
3. Every returned design is re-checked; the quality metrics are pooled over
   all (alpha, drop, slot).
4. With ``--trace 1``: ``cli.main`` once more on the same drops, with spans
   and kernel counts (solves.py, tracing.py), a check that tracing changed
   no result, and the per-layer metrics.

Prints the environment stamp, the checks, the metrics by name with units
and, as the last line, the JSON result.  Exits 1 if a check fails.
"""

import argparse
import contextlib
import filecmp
import json
import os
import platform
import re
import resource
import shutil
import statistics
import subprocess
import sys
import time

import numpy as np
import scipy
import cransim
from cransim import cli, harness

import solves as solves_mod
from tracing import Tracer, event_costs
from workloads import THREAD_VARS, WORKLOADS

SPEC_PATH = os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "BENCHMARK.json")
OUT_ROOT = ".perfbench"
WARMUP_SEED = 999_983
TAIL_LADDER = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)
MODES = {"p2p": harness.MODE_P2P, "mt": harness.MODE_MT}
LAYERS = ("cellgeom", "channel", "scheduler", "uplink", "downlink", "harness")
WARM_KEPT = "warm-start incumbent kept"


def _quiet(fn, *args):
    with open(os.devnull, "w") as sink, contextlib.redirect_stdout(sink):
        return fn(*args)


def _tail(values):
    """Highest ladder percentile with at least 10 samples beyond it."""
    n = len(values)
    pct = next((p for p in TAIL_LADDER if n * (1 - p / 100) >= 10), 50.0)
    return float(np.percentile(values, pct)), pct, n


def _peak_rss_mb(jobs):
    """Peak RSS of this process plus ``jobs`` times the largest reaped
    worker: an upper bound on the concurrent peak, since forked workers
    share pages with the parent."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + (jobs * kids if jobs > 1 else 0)) / 1024.0


def _report_dirs(out, configs):
    return [os.path.join(out, f"alpha_{float(c.alpha):g}") for c in configs]


def _mm_summary(path):
    """Per-mode mm_iterations as written to summary.txt."""
    with open(path) as fh:
        text = fh.read()
    found = re.findall(r"\[(\w+)\]\n(?:.*\n)*?  solver: mm_iterations=(\d+)",
                       text)
    return {mode: int(n) for mode, n in found}


def cli_run(wl, opts, tracer=None):
    """``cli.main`` on the workload; returns (exit code, wall s, runs)."""
    with solves_mod.capturing(tracer) as runs:
        start = time.perf_counter()
        rc = _quiet(cli.main, wl.argv(opts))
        wall = time.perf_counter() - start
    return rc, wall, runs


def quality_metrics(runs):
    """Sum-rate medians, cell-edge rates and multiterminal gains, pooled over
    every (alpha, drop, slot).  ``mt_gain_p50`` is the median of the paired
    per-slot ratio; ``mt_gain_ratio_of_p50`` is the ratio of the medians
    that summary.txt prints."""
    sums, metrics = {}, {}
    for short, mode in MODES.items():
        sums[short] = np.concatenate([o.rates[mode].sum(axis=1)
                                      for _, outs in runs for o in outs])
        long_run = np.concatenate([o.rates[mode].mean(axis=0)
                                   for _, outs in runs for o in outs])
        metrics[f"sum_rate_p50.{short}"] = harness.percentile(sums[short], 50)
        metrics[f"cell_edge.{short}"] = harness.percentile(long_run, 5)
    metrics["mt_gain_ratio_of_p50"] = metrics["sum_rate_p50.mt"] \
        / metrics["sum_rate_p50.p2p"]
    metrics["mt_gain_p50"] = harness.percentile(sums["mt"] / sums["p2p"], 50)
    return metrics


def _self_ns(tracers):
    """Self time (span time minus child spans) per layer, in ns."""
    self_ns = dict.fromkeys(LAYERS, 0)
    for t in tracers:
        child_ns = {}
        for s in t.spans:
            if s["parent"] is not None:
                child_ns[s["parent"]] = child_ns.get(s["parent"], 0) \
                    + s["end"] - s["start"]
        for s in t.spans:
            layer = s["name"].split(".")[0]
            self_ns[layer] += s["end"] - s["start"] - child_ns.get(s["id"], 0)
    return self_ns


def layer_metrics(direction, tracers, solves, recheck_ms, wall, jobs):
    spans = [s for t in tracers for s in t.spans]

    def dur(name):
        return [(s["end"] - s["start"]) / 1e6 for s in spans
                if s["name"] == name]

    def total(key):
        return sum(s["counts"].get(key, 0) for s in spans)

    solver_span = "uplink.optimize_ul" if direction == "uplink" \
        else "downlink.optimize_dl"
    drops = dur("harness.drop")
    slots = len(dur("channel.realize_channel"))
    m = {
        "cellgeom.build_layout.ms_p50": statistics.median(
            dur("cellgeom.build_layout")),
        "cellgeom.link_gain_linear.calls_per_drop":
            total("cellgeom.link_gain_linear") / len(drops),
        "channel.build_cluster.ms_p50": statistics.median(
            dur("channel.build_cluster")),
        "channel.realize_channel.ms_p50": statistics.median(
            dur("channel.realize_channel")),
        "scheduler.ms_per_slot": (sum(dur("scheduler.weights"))
                                  + sum(dur("scheduler.update"))) / slots,
    }
    tails = {}
    for short, mode in MODES.items():
        mine = [s for s in solves if s.mode == mode]
        mode_spans = [s for s in spans if s["name"] == solver_span
                      and s["ids"]["mode"] == mode]
        ms = [s.ms for s in mine]
        iters = sum(s.iterations for s in mine)
        chol = sum(s["counts"].get("linalg.cholesky", 0) for s in mode_spans)
        inv = sum(s["counts"].get("linalg.inv", 0) for s in mode_spans)
        key = f"solver.{short}"
        tail, pct, n = _tail(ms)
        tails[f"{key}.ms_tail"] = {"percentile": pct, "samples": n}
        m.update({
            f"{key}.ms_p50": statistics.median(ms),
            f"{key}.ms_tail": tail,
            f"{key}.mm_iters": iters / len(mine),
            f"{key}.ms_per_mm_iter": sum(ms) / max(iters, 1),
            f"{key}.chol_per_solve": chol / len(mine),
            f"{key}.chol_per_mm_iter": chol / max(iters, 1),
            f"{key}.inv_per_mm_iter": inv / max(iters, 1),
            f"{key}.warnings": sum(len(s.warnings) for s in mine),
            f"{key}.fail": sum(s.failed for s in mine) / len(mine),
        })
    mt = [s for s in solves if s.mode == harness.MODE_MT]
    m["solver.mt.warm_kept_frac"] = sum(
        any(w.startswith(WARM_KEPT) for w in s.warnings) for s in mt) / len(mt)
    m["recheck.ms_p50"] = statistics.median(recheck_ms)
    tail, pct, n = _tail(drops)
    tails["harness.drop.ms_tail"] = {"percentile": pct, "samples": n}
    writes = dur("harness.write_report")
    busy_s = (sum(drops) + sum(writes)) / 1e3
    span_s, count_s = event_costs()
    overhead_s = len(spans) * span_s \
        + sum(t.count_calls for t in tracers) * count_s
    m.update({
        "harness.drop.ms_p50": statistics.median(drops),
        "harness.drop.ms_tail": tail,
        "harness.parallel_efficiency": busy_s / (jobs * wall),
        "harness.write_report.ms": sum(writes),
        "harness.write_report.bytes": total("bytes"),
        "linalg.cholesky.matrices": total("linalg.cholesky"),
        "linalg.inv.matrices": total("linalg.inv"),
        "bench.trace_overhead_frac": overhead_s / (busy_s - overhead_s),
    })
    self_ns = _self_ns(tracers)
    all_ns = sum(self_ns.values())
    m.update({f"self_frac.{k}": v / all_ns for k, v in self_ns.items()})
    return m, tails, solver_span


def run(args):
    checks = []

    def check(name, ok, detail=""):
        checks.append({"check": name, "ok": bool(ok), "detail": detail})
        return ok

    root = os.getcwd()
    src = os.path.join(root, "src") + os.sep
    if not os.path.abspath(cransim.__file__).startswith(src):
        raise SystemExit(f"cransim imported from {cransim.__file__}, "
                         f"not from {src}")
    wl = WORKLOADS[args.workload]
    out = os.path.join(root, OUT_ROOT,
                       f"{wl.name}-seed{args.seed}-trace{args.trace}")
    shutil.rmtree(out, ignore_errors=True)
    os.makedirs(out)
    # a traced run runs the CLI twice, so it sizes both runs to half of
    # --seconds
    drops = wl.drops(args.seconds / (2 if args.trace else 1), args.smoke)
    opts = wl.options(args.seed, drops, os.path.join(out, "cli"))
    warm = wl.options(WARMUP_SEED, 1, os.path.join(out, "warmup"), jobs=1,
                      slots=1, alpha=opts["alpha"].split(",")[0])
    check("warm-up exit code 0", _quiet(cli.main, wl.argv(warm)) == 0)

    rc, cli_wall, runs = cli_run(wl, opts)
    rss_mb = _peak_rss_mb(wl.jobs)
    config = wl.build_config(opts)
    modes = len(config.modes)
    alphas = len(config.alpha) if isinstance(config.alpha, list) else 1
    expected = alphas * config.drops * config.slots * modes
    cli_ok = check("CLI exit code 0", rc == 0, f"exit code {rc}")
    solves = [s for _, outs in runs for o in outs for s in o.bench_solves]
    check("every solve recorded", len(solves) == expected,
          f"{len(solves)} of {expected}")
    bad = [s for s in solves if not solves_mod.recheck(s)]
    check("every design passes its re-check", not bad,
          "; ".join(f"alpha={s.alpha} drop={s.drop} slot={s.slot} "
                    f"{s.mode}: {s.recheck_detail}" for s in bad[:5]))
    failed = len(bad) if cli_ok else expected
    result = {"attempted": expected, "failed": failed, "checks": checks,
              "cli_wall_s": cli_wall}

    if cli_ok and len(solves) == expected:
        quality = quality_metrics(runs)
        check("sum_rate_p50.mt >= sum_rate_p50.p2p",
              quality["sum_rate_p50.mt"] >= quality["sum_rate_p50.p2p"],
              f"{quality['sum_rate_p50.mt']:.6g} vs "
              f"{quality['sum_rate_p50.p2p']:.6g}")
        result["end_to_end"] = {
            "solves_per_s": expected / cli_wall, "peak_rss_mb": rss_mb,
            "solve_ok_frac": 1.0 - sum(s.failed for s in solves) / expected,
            "mt_gain_p50": quality.pop("mt_gain_p50")}
        result["quality"] = quality
        cli_dirs = _report_dirs(opts["out"], [c for c, _ in runs])
        result["mm_iterations"] = [
            {"alpha": c.alpha,
             "summary_txt": _mm_summary(os.path.join(d, "summary.txt")),
             "mmtrace": {m: sum(s.iterations for o in outs
                                for s in o.bench_solves if s.mode == m)
                         for m in config.modes}}
            for (c, outs), d in zip(runs, cli_dirs)]
        if args.trace:
            result.update(traced(wl, opts, runs, cli_wall, cli_dirs, out,
                                 check))
    result["correct"] = all(c["ok"] for c in checks)
    result["env"] = {
        "workload": wl.name, "seed": args.seed, "seconds": args.seconds,
        "drops": config.drops, "slots": config.slots, "alphas": alphas,
        "jobs": config.jobs, "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(), "numpy": np.__version__,
        "scipy": scipy.__version__, "blas": _blas(),
        "threads": {v: os.environ.get(v) for v in THREAD_VARS},
        "git_sha": _git_sha(root)}
    with open(os.path.join(out, "result.json"), "w") as fh:
        json.dump(result, fh, indent=1)
    return result


def traced(wl, opts, runs, cli_wall, cli_dirs, out, check):
    """The traced CLI run on the same drops, its checks and the per-layer
    metrics."""
    tracer = Tracer()
    topts = dict(opts, out=os.path.join(out, "traced"))
    rc, wall, truns = cli_run(wl, topts, tracer)
    check("traced CLI exit code 0", rc == 0, f"exit code {rc}")
    cli_outs = [o for _, outs in runs for o in outs]
    tr_outs = [o for _, outs in truns for o in outs]
    same = len(cli_outs) == len(tr_outs) and all(
        a.drop == b.drop and a.rates.keys() == b.rates.keys()
        and all(np.array_equal(a.rates[m], b.rates[m]) for m in a.rates)
        for a, b in zip(cli_outs, tr_outs))
    check("traced run reproduces the untraced rates bit for bit", same)
    dirs = _report_dirs(topts["out"], [c for c, _ in truns])
    same_files = len(dirs) == len(cli_dirs) and all(
        filecmp.cmp(os.path.join(a, "records.csv"),
                    os.path.join(b, "records.csv"), shallow=False)
        for a, b in zip(cli_dirs, dirs))
    check("traced records.csv byte-identical to the untraced", same_files)
    solves = [s for o in tr_outs for s in o.bench_solves]
    rtracer = Tracer()
    for s in solves:
        with rtracer.span("recheck", mode=s.mode):
            solves_mod.recheck(s)
    recheck_ms = [(s["end"] - s["start"]) / 1e6 for s in rtracer.spans]
    check("traced designs pass their re-check",
          all(s.recheck_ok for s in solves))
    tracers = [o.bench_tracer for o in tr_outs] + [tracer]
    metrics, tails, solver_span = layer_metrics(
        truns[0][0].direction, tracers, solves, recheck_ms, wall, wl.jobs)
    with open(os.path.join(out, "spans.jsonl"), "w") as fh:
        for i, t in enumerate(tracers):
            for s in t.spans:
                fh.write(json.dumps(dict(s, trace=i)) + "\n")
    with open(os.path.join(out, "solves.csv"), "w") as fh:
        fh.write("alpha,drop,slot,mode,ms,mm_iterations,converged,"
                 "recheck_ok,warnings\n")
        for s in solves:
            warns = " | ".join(s.warnings).replace(",", ";")
            fh.write(f"{s.alpha:g},{s.drop},{s.slot},{s.mode},{s.ms:.4f},"
                     f"{s.iterations},{s.converged},{s.recheck_ok},"
                     f"{warns}\n")
    return {"per_layer": metrics, "tails": tails, "solver": solver_span,
            "traced_wall_s": wall}


def _git_sha(root):
    if not os.path.exists(os.path.join(root, ".git")):
        return "unknown"             # e.g. an exported checkout
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def _blas():
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        return "unknown"


def report(res, trace, setup_s):
    """Print the run and return the JSON result's metrics (None if a metric
    is missing)."""
    print("env " + json.dumps(res["env"]))
    for c in res["checks"]:
        print(f"check {'PASS' if c['ok'] else 'FAIL'}: {c['check']}"
              + (f" ({c['detail']})" if c["detail"] and not c["ok"] else ""))
    if "end_to_end" not in res:
        return {}
    if trace:
        print(f"solver layer: {res['solver']}")
        for name, tail in res["tails"].items():
            print(f"{name}: p{tail['percentile']:g} of "
                  f"{tail['samples']} samples")
        print(f"wall s: untraced {res['cli_wall_s']:.3f}, "
              f"traced {res['traced_wall_s']:.3f}")
        values = dict(res["per_layer"], **res["quality"])
    else:
        values = dict(res["end_to_end"], setup_s=setup_s)
    for mm in res["mm_iterations"]:
        print(f"mm_iterations alpha={mm['alpha']:g}: per mode from "
              f"MMTrace {mm['mmtrace']}, summary.txt {mm['summary_txt']}")
    with open(SPEC_PATH) as fh:
        wanted = json.load(fh)["per_layer" if trace else "end_to_end"]
    missing = [m["name"] for m in wanted if values.get(m["name"]) is None]
    if missing:
        print(f"error: no value for {missing}", file=sys.stderr)
        return None
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in wanted}
    for name, m in metrics.items():
        print(f"{name:45s} {m['value']:.6g} {m['unit']}")
    return metrics


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true")
    ap.add_argument("--setup-s", type=float,
                    help="set-up time measured by run.py (untraced runs)")
    args = ap.parse_args(argv)
    res = run(args)
    metrics = report(res, args.trace, args.setup_s)
    if metrics is None:
        return 1
    print(json.dumps({"correct": res["correct"], "attempted": res["attempted"],
                      "failed": res["failed"], "metrics": metrics}))
    return 0 if res["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
