"""Engine profiling hooks: interactions/sec and per-run step timing.

The simulator's engine seam (one wrapper in
:mod:`repro.simulation.simulator`) calls :func:`active_profiler` once per
ensemble; when profiling is disabled that is a single module-global
``None``-check — no object construction, no clock reads, no per-run
branch — which is what keeps the disabled-overhead bench (E15) under its
2% budget.  Timing is per *run*, never per step: a run of ``n`` steps
costs two monotonic reads total.

When enabled, an :class:`EngineProfiler` accumulates per-engine totals
(runs, interaction steps, seconds) and flushes them into a
:class:`~repro.obs.registry.MetricsRegistry` every ``sample_every``
records:

* ``repro_engine_runs_total{engine=...}`` / ``repro_engine_steps_total``
  — counters of completed runs and interaction steps,
* ``repro_engine_run_seconds{engine=...}`` — a histogram of per-run wall
  time (fixed deterministic buckets),
* ``repro_engine_steps_per_second{engine=...}`` — a gauge holding the
  throughput over the most recent sample window.

All clock reads happen at the call sites via
:func:`repro.config.monotonic_time`; this module only aggregates numbers
it is handed, so it is trivially clean under the determinism linter.
"""

from __future__ import annotations

import threading
from typing import Dict, Optional, Tuple

from .. import config
from .registry import Histogram, MetricsRegistry, get_registry

__all__ = [
    "EngineProfiler",
    "RUN_SECONDS_BUCKETS",
    "active_profiler",
    "disable_profiling",
    "enable_profiling",
    "profiling_from_env",
]

#: Per-run wall-time buckets (seconds).  Runs span ~10µs (tiny reference
#: runs) to minutes (large ensembles), so the ladder starts below the
#: latency default's 1ms floor.  Fixed bounds — deterministic exposition.
RUN_SECONDS_BUCKETS: Tuple[float, ...] = (
    1e-5, 2.5e-5, 5e-5, 1e-4, 2.5e-4, 5e-4,
    0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5,
    1.0, 2.5, 5.0, 10.0, 30.0, 60.0,
)


class _EngineWindow:
    """Accumulated-but-unflushed totals for one engine."""

    __slots__ = ("runs", "steps", "seconds")

    def __init__(self) -> None:
        self.runs = 0
        self.steps = 0
        self.seconds = 0.0


class EngineProfiler:
    """Aggregates per-engine run timings into a metrics registry.

    ``sample_every`` bounds the enabled-mode overhead: registry updates
    (lock + histogram scan) happen once per window, not once per run;
    between flushes a record is three attribute adds under a local lock.
    """

    def __init__(
        self,
        registry: Optional[MetricsRegistry] = None,
        sample_every: int = 16,
    ) -> None:
        if sample_every < 1:
            raise ValueError(f"sample_every must be >= 1, got {sample_every}")
        self.registry = registry if registry is not None else get_registry()
        self.sample_every = int(sample_every)
        self._lock = threading.Lock()
        self._windows: Dict[str, _EngineWindow] = {}
        self._pending = 0
        self._runs = self.registry.counter(
            "repro_engine_runs_total",
            "Completed simulation runs by engine.",
            labelnames=("engine",),
        )
        self._steps = self.registry.counter(
            "repro_engine_steps_total",
            "Interaction steps executed by engine.",
            labelnames=("engine",),
        )
        self._seconds: Histogram = self.registry.histogram(
            "repro_engine_run_seconds",
            "Per-run wall time by engine.",
            labelnames=("engine",),
            buckets=RUN_SECONDS_BUCKETS,
        )
        self._rate = self.registry.gauge(
            "repro_engine_steps_per_second",
            "Interaction throughput over the most recent sample window.",
            labelnames=("engine",),
        )

    def record(self, engine: str, steps: int, seconds: float) -> None:
        """Account one completed run; flushes every ``sample_every`` calls."""
        with self._lock:
            window = self._windows.get(engine)
            if window is None:
                window = self._windows[engine] = _EngineWindow()
            window.runs += 1
            window.steps += steps
            window.seconds += seconds
            self._seconds.observe(seconds, engine=engine)
            self._pending += 1
            if self._pending < self.sample_every:
                return
            windows, self._windows = self._windows, {}
            self._pending = 0
        self._flush(windows)

    def flush(self) -> None:
        """Push any partial window into the registry (end-of-batch drain)."""
        with self._lock:
            windows, self._windows = self._windows, {}
            self._pending = 0
        self._flush(windows)

    def _flush(self, windows: Dict[str, _EngineWindow]) -> None:
        for engine in sorted(windows):
            window = windows[engine]
            self._runs.inc(window.runs, engine=engine)
            self._steps.inc(window.steps, engine=engine)
            if window.seconds > 0:
                self._rate.set(window.steps / window.seconds, engine=engine)

    def __repr__(self) -> str:
        return (
            f"EngineProfiler(sample_every={self.sample_every}, "
            f"registry={self.registry!r})"
        )


#: The module-global hook the stepper entry points check — ``None`` is the
#: entire disabled cost.
_PROFILER: Optional[EngineProfiler] = None
_PROFILER_LOCK = threading.Lock()


def active_profiler() -> Optional[EngineProfiler]:
    """The installed profiler, or ``None`` — the one disabled-path check."""
    return _PROFILER


def enable_profiling(
    registry: Optional[MetricsRegistry] = None, sample_every: int = 16
) -> EngineProfiler:
    """Install (or return the already-installed) process-wide profiler."""
    global _PROFILER
    with _PROFILER_LOCK:
        if _PROFILER is None:
            _PROFILER = EngineProfiler(registry, sample_every=sample_every)
        return _PROFILER


def disable_profiling() -> Optional[EngineProfiler]:
    """Remove the profiler (flushing its partial window); returns it."""
    global _PROFILER
    with _PROFILER_LOCK:
        profiler, _PROFILER = _PROFILER, None
    if profiler is not None:
        profiler.flush()
    return profiler


def profiling_from_env() -> Optional[EngineProfiler]:
    """Enable profiling when ``REPRO_METRICS`` asks for it (CLI entry points)."""
    if not config.metrics_enabled():
        return None
    return enable_profiling()
