"""In-memory span tracer, call counters and attribute patching.

A span records name, start, end (``perf_counter_ns``), the span that was open
when it started, ids of the work (alpha, drop, slot, mode where the call
shows them) and the counts charged to it.  Counts come from wrappers
installed on library attributes for the length of one drop and always go to
the innermost open span, so a kernel count lands in the layer that asked for
it.

Only attribute lookups at call time are seen.  Names bound by ``from x import
y`` inside cransim (``uplink.solve_triangular``, ``gaussinfo.cho_factor``) are
not wrapped, so work moved behind them shows up as time, not as counts.
"""

import math
import time
from contextlib import contextmanager

import numpy as np
from cransim import cellgeom

CALIBRATION_CALLS = 5000
CALIBRATION_REPEATS = 7


class Tracer:
    def __init__(self):
        self.spans = []
        self.count_calls = 0
        self._open = []

    @contextmanager
    def span(self, name, **ids):
        rec = {"id": len(self.spans), "name": name,
               "parent": self._open[-1]["id"] if self._open else None,
               "ids": ids, "counts": {}, "start": 0, "end": 0}
        self.spans.append(rec)
        self._open.append(rec)
        rec["start"] = time.perf_counter_ns()
        try:
            yield rec
        finally:
            rec["end"] = time.perf_counter_ns()
            self._open.pop()

    def count(self, key, n=1):
        """Charge ``n`` to the innermost open span."""
        counts = self._open[-1]["counts"]
        counts[key] = counts.get(key, 0) + n
        self.count_calls += 1

    def wrap(self, fn, name):
        """``fn`` with a span named ``name`` around every call."""
        def traced(*args, **kwargs):
            with self.span(name):
                return fn(*args, **kwargs)
        return traced


@contextmanager
def patched(replacements):
    """Set each ``(module, attr)`` key to its value for the length of the
    block and restore the originals on exit."""
    saved = [(mod, attr, getattr(mod, attr)) for mod, attr in replacements]
    try:
        for (mod, attr), value in replacements.items():
            setattr(mod, attr, value)
        yield
    finally:
        for mod, attr, value in saved:
            setattr(mod, attr, value)


def _matrices(a):
    return math.prod(np.shape(a)[:-2])


def _counted(fn, tracer, key, size):
    def counted(a, *args, **kwargs):
        tracer.count(key, size(a))
        return fn(a, *args, **kwargs)
    return counted


def counters(tracer):
    """Replacements (for ``patched``) that count ``numpy.linalg``
    factorizations/inversions, batch dimensions included, and link-gain
    evaluations."""
    targets = ((np.linalg, "cholesky", "linalg.cholesky", _matrices),
               (np.linalg, "inv", "linalg.inv", _matrices),
               (cellgeom, "link_gain_linear", "cellgeom.link_gain_linear",
                lambda *_: 1))
    return {(mod, attr): _counted(getattr(mod, attr), tracer, key, size)
            for mod, attr, key, size in targets}


def event_costs():
    """Seconds that one span and one counted call add to a call, timed on a
    no-op in this process (best of several repeats)."""
    tracer = Tracer()
    arg = np.zeros((2, 2, 2))

    def noop(a=None):
        return a

    def best(fn):
        times = []
        for _ in range(CALIBRATION_REPEATS):
            tracer.spans.clear()
            start = time.perf_counter()
            for _ in range(CALIBRATION_CALLS):
                fn(arg)
            times.append(time.perf_counter() - start)
        return min(times) / CALIBRATION_CALLS

    with tracer.span("calibration"):
        plain = best(noop)
        span = best(tracer.wrap(noop, "noop")) - plain
        count = best(_counted(noop, tracer, "noop", _matrices)) - plain
    return max(span, 0.0), max(count, 0.0)
