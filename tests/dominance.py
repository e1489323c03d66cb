"""Criterion 9 across seeds: the dominance readout.

Runs criterion 9's three alpha sweeps, built exactly as the test builds them,
at seeds 1-9, applies the test's own checks (`helpers.sweep_dominance`) and
writes one JSON file.  Per preset, seed and
alpha it holds the mt/p2p efficiency and cell-edge ratios and each check's
verdict; per preset, the number of seeds that pass, the number of (seed,
alpha) points where the mt cell edge is below p2p's, and the median
cell-edge ratio.  Tier-1 does not collect this file.

    PYTHONPATH=src python tests/dominance.py --out dominance.json
"""

import argparse
import json
import os
import sys
import time

import numpy as np

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from helpers import DOMINANCE_PRESETS, dominance_sweep, sweep_dominance  # noqa: E402

SEEDS = range(1, 10)


def readout():
    start = time.perf_counter()
    presets = {}
    for preset in DOMINANCE_PRESETS:
        runs = {}
        for seed in SEEDS:
            check = sweep_dominance(dominance_sweep(preset, seed))
            runs[str(seed)] = check
            print(f"{preset} seed {seed}: "
                  f"{'pass' if check['passed'] else 'FAIL'}, cell-edge ratios "
                  + "/".join(f"{r:.2f}x" for r in check["edge_ratios"]),
                  flush=True)
        points = [p for check in runs.values() for p in check["points"]]
        presets[preset] = dict(
            seeds=runs,
            passed=sum(check["passed"] for check in runs.values()),
            points=len(points),
            cell_edge_below=sum(p["cell_edge_below"] for p in points),
            median_cell_edge_ratio=float(np.median(
                [p["cell_edge_ratio"] for p in points])))
    joint = [seed for seed in SEEDS
             if all(presets[p]["seeds"][str(seed)]["passed"]
                    for p in DOMINANCE_PRESETS)]
    return dict(seeds=list(SEEDS), presets=presets, joint_pass_seeds=joint,
                elapsed_s=time.perf_counter() - start)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", default="dominance.json")
    args = parser.parse_args(argv)
    result = readout()
    with open(args.out, "w") as fh:
        json.dump(result, fh, indent=1)
    for preset, summary in result["presets"].items():
        print(f"{preset}: {summary['passed']}/{len(result['seeds'])} seeds "
              f"pass, mt cell edge below p2p at {summary['cell_edge_below']}"
              f"/{summary['points']} points, median cell-edge ratio "
              f"{summary['median_cell_edge_ratio']:.3f}")
    print(f"joint passes: {result['joint_pass_seeds']}; "
          f"{result['elapsed_s']:.0f} s")


if __name__ == "__main__":
    main()
