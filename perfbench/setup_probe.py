"""Time a fresh interpreter importing cransim and resolving a workload's
configuration; prints the seconds.  Run by run.py with PYTHONPATH=src."""

import argparse
import time

from workloads import WORKLOADS


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    args = ap.parse_args()
    wl = WORKLOADS[args.workload]
    start = time.perf_counter()
    import cransim  # noqa: F401  (the import is what is timed)
    wl.build_config(wl.options(args.seed, 1, "unused"))
    print(f"{time.perf_counter() - start:.6f}")


if __name__ == "__main__":
    main()
