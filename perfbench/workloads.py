"""The benchmark's workloads, each a ``cransim sweep`` invocation.

Every workload keeps its preset's parameters and only sets the drop count
(scaled by ``--seconds``), the slot count and the alpha list.
The drop rates were calibrated so that the CLI run of one workload takes
about ``--seconds`` on a 2-core x86 machine at the commit that introduced
the benchmark.  This module imports nothing heavy: the set-up probe
imports it before timing ``import cransim``.
"""

from dataclasses import dataclass

# argparse destinations of the cransim CLI options
CLI_DESTS = ("config", "preset", "seed", "drops", "slots", "mode", "jobs",
             "out", "k_ms", "n_pico", "c_macro", "c_pico", "alpha", "beta",
             "direction")
SMOKE_DROPS = 2
# pinned to 1 in every benchmark process before numpy is imported
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


@dataclass(frozen=True)
class Workload:
    name: str
    preset: str
    jobs: int
    drops_per_s: float        # drops per second of CLI run time
    overrides: tuple = ()     # (dest, value) pairs on top of the preset

    def drops(self, seconds, smoke=False):
        return SMOKE_DROPS if smoke else max(1, round(seconds * self.drops_per_s))

    def options(self, seed, drops, out, **extra):
        opts = dict(preset=self.preset, seed=seed, drops=drops,
                    jobs=self.jobs, out=out)
        opts.update(self.overrides)
        opts.update(extra)
        return opts

    def build_config(self, opts):
        """Resolve options to an ExperimentConfig the way the CLI does."""
        import argparse
        from cransim import cli
        args = argparse.Namespace(**{**dict.fromkeys(CLI_DESTS), **opts})
        return cli.build_config(args)

    def argv(self, opts):
        argv = ["sweep"]
        for dest, value in opts.items():
            argv += ["--" + dest.replace("_", "-"), str(value)]
        return argv


WORKLOADS = {w.name: w for w in (
    Workload(name="ul-sweep-j2", preset="ul-sweep", jobs=2, drops_per_s=7.5,
             overrides=(("slots", 3), ("alpha", "0,1,3"))),
    Workload(name="dl-sweep-b", preset="dl-sweep-b", jobs=2, drops_per_s=3.2,
             overrides=(("slots", 2), ("alpha", "2"))),
)}
