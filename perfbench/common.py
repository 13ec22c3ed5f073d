"""Shared pieces of the benchmark: the machine probe, spans, statistics.

Nothing here imports ``repro``: the probe must not touch the program it
calibrates, and the span recorder only wraps calls the workloads make.
"""

import json
import os
import random
import resource
import statistics
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, field

#: Probe rate (loop iterations per second) of the machine the scaled
#: figures are expressed on.  A scaled rate reads "what this run would have
#: measured on a machine whose probe runs at this rate": raw rate times
#: ``REFERENCE_PROBE_OPS_PER_S / probe rate``.  Measured once as the median
#: probe rate on a 2-vCPU x86-64 cloud VM (Python 3.11); changing it rescales
#: every probe-scaled metric, so it is fixed here for good.
REFERENCE_PROBE_OPS_PER_S = 1.5e6

#: Iterations of one probe slice (about 15-25 ms).
PROBE_OPS = 30000

_PROBE_SLOTS = 64


def probe_rate(ops=PROBE_OPS):
    """Time one probe slice and return its rate in iterations per second.

    The loop draws ``randrange`` from stdlib ``random`` and bumps a list
    slot: the same two primitives the generated stepper spends its time in,
    with no ``repro`` code on the path.  A fixed seed makes every slice the
    same work.
    """
    rng = random.Random(20240611)
    randbelow = rng.randrange
    slots = [0] * _PROBE_SLOTS
    start = time.perf_counter()
    for _ in range(ops):
        slots[randbelow(_PROBE_SLOTS)] += 1
    elapsed = time.perf_counter() - start
    return ops / elapsed


def scaled_time(elapsed, rate, exponent):
    """Elapsed time as it would read on the reference machine.

    ``rate`` is the probe rate seen around the timed slice; ``exponent`` 1
    scales fully, 0 leaves the time raw.
    """
    return elapsed * (rate / REFERENCE_PROBE_OPS_PER_S) ** exponent


class Probe:
    """Interleaves probe slices with timed slices.

    :meth:`timed` runs a callable between two probe slices and returns its
    value, its raw elapsed time and the mean of the two probe rates.  Every
    probe rate is kept, so a run can report the machine speed it saw.
    """

    def __init__(self, tracer):
        self.tracer = tracer
        self.rates = []

    def sample(self):
        with self.tracer.span("probe", "machine"):
            rate = probe_rate()
        self.rates.append(rate)
        return rate

    def timed(self, call):
        before = self.sample()
        start = time.perf_counter()
        value = call()
        elapsed = time.perf_counter() - start
        after = self.sample()
        return value, elapsed, (before + after) / 2

    def quartiles(self):
        return quartiles(self.rates)


@dataclass
class Outcome:
    """What a workload hands back to ``run.py``."""

    #: End-to-end metrics by name (see BENCHMARK.json).
    e2e: dict
    #: Per-layer metrics by name; layers a workload does not use are absent.
    layers: dict
    #: Operations (runs, cells or jobs, plus replayed checks) attempted.
    attempted: int
    #: Operations whose output failed a check.
    failed: int
    #: Extra diagnostics printed before the result line.
    diag: dict = field(default_factory=dict)


def quartiles(values):
    """(q1, median, q3) of ``values``; a single value is its own quartiles."""
    values = list(values)
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def percentile(values, share):
    """The ``share`` quantile (0..1) by the inclusive method."""
    ordered = sorted(values)
    if len(ordered) == 1:
        return ordered[0]
    points = statistics.quantiles(ordered, n=100, method="inclusive")
    return points[round(share * 100) - 1]


def peak_rss_mb():
    """This process's peak RSS plus the largest reaped child's peak, in MiB.

    ``RUSAGE_CHILDREN`` reports the largest peak among terminated, reaped
    descendants (pool workers of a reaped server included), in KiB on Linux.
    """
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + child) / 1024.0


class Tracer:
    """In-memory spans recorded around the benchmark's calls into ``repro``.

    A span has a name, a layer, start and end times, an id and the id of the
    span that caused it.  Recording happens only under a *root* span opened
    with ``root=True`` while the tracer is enabled; spans nest by a
    per-thread stack, so a client thread opens its own roots.  Outside a
    recorded root a span records nothing.
    """

    def __init__(self, enabled):
        self.enabled = enabled
        self.spans = []
        self.roots = []
        self._local = threading.local()
        self._lock = threading.Lock()
        self._next_id = 0

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextmanager
    def span(self, name, layer, root=False, traced=True, **attrs):
        stack = self._stack()
        recording = (self.enabled and traced) if root else bool(stack)
        if not recording:
            yield None
            return
        with self._lock:
            self._next_id += 1
            span_id = self._next_id
        parent = stack[-1] if stack and not root else None
        stack.append(span_id)
        start = time.perf_counter()
        try:
            yield span_id
        finally:
            end = time.perf_counter()
            stack.pop()
            record = {
                "id": span_id, "parent": parent, "name": name, "layer": layer,
                "start": start, "end": end,
            }
            record.update(attrs)
            with self._lock:
                self.spans.append(record)
                if root:
                    self.roots.append(span_id)

    def record(self, name, layer, start, end, parent, **attrs):
        """Add a span whose interval was measured elsewhere (store callbacks)."""
        with self._lock:
            self._next_id += 1
            record = {
                "id": self._next_id, "parent": parent, "name": name,
                "layer": layer, "start": start, "end": end,
            }
            record.update(attrs)
            self.spans.append(record)
            return self._next_id

    def current(self):
        stack = self._stack()
        return stack[-1] if stack else None

    def self_times(self):
        """Per-layer self time summed over every recorded root.

        A span's self time is its duration minus the union of the intervals
        its direct children cover (children on two client threads may
        overlap).  Returns ``({layer: seconds}, summed root duration)``; the
        roots' own layer holds the time no named layer claimed.
        """
        children = {}
        by_id = {}
        for record in self.spans:
            by_id[record["id"]] = record
            children.setdefault(record["parent"], []).append(record)
        totals = {}
        pending = list(self.roots)
        while pending:
            record = by_id[pending.pop()]
            kids = children.get(record["id"], [])
            covered = _union_length(
                (max(kid["start"], record["start"]), min(kid["end"], record["end"]))
                for kid in kids
            )
            own = max(0.0, record["end"] - record["start"] - covered)
            totals[record["layer"]] = totals.get(record["layer"], 0.0) + own
            pending.extend(kid["id"] for kid in kids)
        duration = sum(by_id[root]["end"] - by_id[root]["start"] for root in self.roots)
        return totals, duration

    def write(self, path):
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(sorted(self.spans, key=lambda s: s["start"]), handle)


def _union_length(intervals):
    total = 0.0
    end = None
    for lo, hi in sorted(interval for interval in intervals if interval[1] > interval[0]):
        if end is None or lo > end:
            total += hi - lo
            end = hi
        elif hi > end:
            total += hi - end
            end = hi
    return total
