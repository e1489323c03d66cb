"""cransim benchmark entry point.

    python3 perfbench/run.py --workload ul-sweep-j2 --seed 1 --seconds 45 --trace 0

Runs from the root of a checkout.  Measures the set-up time in fresh
interpreters, then runs the workload in a worker process (bench.py), which
prints the checks, the metrics and, as the last line, the JSON result.
Both get the BLAS thread variables pinned to 1 before numpy is imported.
Exits 1 when a correctness check fails and 2 when the checkout has no
cransim sources.  See perfbench/README.md for workloads, metrics and seeds.
"""

import argparse
import os
import signal
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
from workloads import THREAD_VARS, WORKLOADS  # noqa: E402

DEFAULT_SEED = 1
HELD_OUT_SEED = 20261017
SETUP_SAMPLES = 7
WORKER_TIMEOUT_S = 165


def child_env(root):
    env = dict(os.environ)
    env.update({v: "1" for v in THREAD_VARS})
    src = os.path.join(root, "src")
    env["PYTHONPATH"] = src + os.pathsep + env["PYTHONPATH"] \
        if env.get("PYTHONPATH") else src
    return env


def setup_seconds(args, env):
    """Median import-and-configure time over fresh interpreters (the first,
    which may compile bytecode, is discarded)."""
    cmd = [sys.executable, os.path.join(HERE, "setup_probe.py"),
           "--workload", args.workload, "--seed", str(args.seed)]
    samples = []
    for _ in range(SETUP_SAMPLES + 1):
        out = subprocess.run(cmd, env=env, capture_output=True, text=True,
                             timeout=60, check=True)
        samples.append(float(out.stdout.split()[-1]))
    return statistics.median(samples[1:])


def run_worker(cmd, env):
    """Run bench.py in its own session with stdout passed through; on
    timeout kill its whole process group (pool workers too)."""
    proc = subprocess.Popen(cmd, env=env, start_new_session=True)
    try:
        return proc.wait(timeout=WORKER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        print(f"error: worker still running after {WORKER_TIMEOUT_S} s",
              file=sys.stderr)
        return 1


def main(argv=None):
    ap = argparse.ArgumentParser(description="cransim benchmark")
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED,
                    help=f"workload seed (default {DEFAULT_SEED}; held-out "
                         f"seed for re-checking claims: {HELD_OUT_SEED})")
    ap.add_argument("--seconds", type=float, default=45.0,
                    help="scales the drop count; the CLI run takes about "
                         "this long at the commit that added the benchmark")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true",
                    help="tiny drop counts: every check and the traced run "
                         "in seconds; the metrics are not meaningful")
    args = ap.parse_args(argv)

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "cransim", "__init__.py")):
        print(f"error: no cransim sources under {root}/src; run from the "
              f"root of a cransim checkout", file=sys.stderr)
        return 2
    env = child_env(root)
    cmd = [sys.executable, os.path.join(HERE, "bench.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.smoke:
        cmd.append("--smoke")
    if not args.trace:
        try:
            cmd += ["--setup-s", repr(setup_seconds(args, env))]
        except (subprocess.CalledProcessError,
                subprocess.TimeoutExpired) as exc:
            print(f"error: {exc}\n{exc.stderr or ''}", file=sys.stderr)
            return 1
    sys.stdout.flush()
    return run_worker(cmd, env)


if __name__ == "__main__":
    sys.exit(main())
