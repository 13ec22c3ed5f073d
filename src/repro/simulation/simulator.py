"""Random-scheduler simulation of protocols.

The verification layer explores every execution exhaustively, which is only
feasible for small populations.  The simulator samples executions under a
scheduler instead, which scales to thousands of agents and is the substrate of
the convergence-time experiments and the larger examples.

A run proceeds step by step until one of:

* the current configuration reaches a **consensus** that does not change for
  ``stability_window`` further steps (heuristic convergence detection),
* no transition is enabled (a genuinely terminal configuration),
* the step budget is exhausted.

The result records the trajectory summary, the final configuration, the
consensus value (if any) and how many steps were needed to reach it.

An *engine* implements these semantics: an object with a ``name``, a
``run`` on a caller-owned generator, and a ``run_seeds`` that runs one
execution per seed on ``random.Random(seed)``.  :class:`Simulator` resolves
its engine once, at construction, and every run goes through it:

* :class:`DenseEngine` maps states to dense indices once per net and drives
  a :class:`~repro.simulation.compiled.Stepper` loop that mutates one counts
  array in place, reweighs transitions incrementally and checks consensus in
  O(1) via maintained output counters.  Its two names differ only in the
  net that builds the stepper: ``"compiled"`` runs the native C kernel
  (:mod:`repro.simulation.native`) whenever it loads, and otherwise — or for
  a run it cannot hold in int64 — the straight-line Python it generates
  (:mod:`repro.simulation.compiled`); ``"numpy"`` runs ``int64`` array
  kernels whose per-step cost is flat in the transition count
  (:mod:`repro.simulation.vectorized`).  ``run_seeds`` hands each int seed
  to the stepper, so the native kernel seeds its own generator and no
  Python generator is built,
* :class:`EnsembleEngine` (``"ensemble"``) is a NumPy dense engine whose
  ``run_seeds`` advances all seeds in lock step through one
  :class:`~repro.simulation.ensemble.VectorizedEnsemble`, every row
  bit-identical to a per-run engine run with the same seed,
* :class:`ReferenceEngine` (``"reference"``) is the original sparse
  implementation: one immutable :class:`~repro.core.configuration.Configuration`
  per step, full consensus rescans, full weight recomputation.  It runs any
  scheduler and any configuration.

All engines consume the random stream identically, so for a fixed
``(protocol, inputs, seed)`` they produce the same trajectory step for step.
Run spans and profiler records are added at the seam by one wrapper, which
picks the plain or the timed call once per ensemble and labels each run with
the engine that actually ran it.

``engine="auto"`` (the default) picks the NumPy engine when the net has at
least :data:`AUTO_VECTORIZE_THRESHOLD` transitions and NumPy is installed,
the compiled engine for smaller nets (or when NumPy is missing), and the
reference engine for schedulers without a dense fast path or configurations
outside the dense universe (which an explicit dense engine rejects with
``ValueError``); it never picks the ensemble engine on its own.  An explicit
``engine=`` argument always wins (``REPRO_FORCE_ENGINE`` then warns once
that it is being ignored); otherwise the ``REPRO_FORCE_ENGINE`` environment
variable, read through :mod:`repro.config` and inherited by worker
processes, overrides the heuristic — the knob the CI uses to drive the whole
suite through one engine.
"""

from __future__ import annotations

import random
from collections import deque
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple, Union

from ..config import forced_engine, monotonic_time, notice_explicit_engine
from ..core.configuration import Configuration
from ..obs import profile as _obs_profile
from ..obs import trace as _obs_trace
from ..core.protocol import OUTPUT_ONE, OUTPUT_ZERO, Protocol
from .compiled import OUT_ONE, OUT_UNDEFINED, OUT_ZERO, CompiledNet
from .scheduler import Scheduler, UniformScheduler
from .trajectory import DEFAULT_TRAJECTORY_CAPACITY, Trajectory
from .vectorized import numpy_available

__all__ = ["AUTO_VECTORIZE_THRESHOLD", "SimulationResult", "Simulator", "simulate"]

_ENGINES = ("auto", "compiled", "numpy", "ensemble", "reference")

#: Transition count at which ``engine="auto"`` switches from the compiled
#: engine to the NumPy engine.  Calibrated with benchmark E11
#: (``benchmarks/bench_e11_large_net_throughput.py``): on random width-2 nets
#: the steady-state crossover sits around ~200 transitions for densely
#: coupled nets and ~500 for sparse ones, the compiled engine's codegen cost
#: (absent entirely from the NumPy engine) pushes the end-to-end crossover
#: well below 100, and beyond a few thousand transitions the generated
#: dispatch chain cannot be compiled at all (CPython recursion guard).  256
#: splits the steady-state range while keeping every named protocol of the
#: paper on the compiled engine.
AUTO_VECTORIZE_THRESHOLD = 256

@dataclass
class SimulationResult:
    """Outcome of a single simulated execution."""

    initial: Configuration
    final: Configuration
    steps: int
    consensus: Optional[int]
    consensus_step: Optional[int]
    terminated: bool
    interactions_sampled: int
    #: Recorded path (``record_trajectory=True`` only), else ``None``.
    trajectory: Optional[Trajectory] = None
    #: Compact metric dict extracted in-place by the batch layer's
    #: ``analytics=`` knob (see :mod:`repro.analytics.metrics`), else ``None``.
    analytics: Optional[Dict[str, object]] = None

    @property
    def converged(self) -> bool:
        """True if the run ended in a consensus (stable or terminal)."""
        return self.consensus is not None

    def __repr__(self) -> str:
        return (
            f"SimulationResult(steps={self.steps}, consensus={self.consensus}, "
            f"consensus_step={self.consensus_step}, terminated={self.terminated})"
        )


# ----------------------------------------------------------------------
# Engines
# ----------------------------------------------------------------------
class ReferenceEngine:
    """The sparse engine: any scheduler, any configuration.

    One immutable :class:`~repro.core.configuration.Configuration` per step,
    the scheduler's own ``choose``, and a full consensus rescan after every
    firing — the executable specification the dense engines are checked
    against.
    """

    name = "reference"
    #: Runs are separable, so instrumentation times each seed on its own.
    lockstep = False

    def __init__(self, protocol: Protocol, scheduler: Scheduler) -> None:
        self.protocol = protocol
        self.net = protocol.petri_net
        self.scheduler = scheduler

    def admits(self, configuration: Configuration) -> bool:
        """Every configuration is in the reference engine's universe."""
        return True

    def run_seeds(
        self,
        configuration: Configuration,
        seeds: Sequence[int],
        max_steps: int,
        stability_window: int,
        record: bool = False,
        capacity: int = DEFAULT_TRAJECTORY_CAPACITY,
    ) -> List[SimulationResult]:
        """One run per seed, each on ``random.Random(seed)``, in seed order."""
        run = self.run
        return [
            run(configuration, random.Random(seed), max_steps, stability_window,
                record, capacity)
            for seed in seeds
        ]

    def run(
        self,
        configuration: Configuration,
        rng: random.Random,
        max_steps: int,
        stability_window: int,
        record: bool = False,
        capacity: int = DEFAULT_TRAJECTORY_CAPACITY,
    ) -> SimulationResult:
        """One run drawing from ``rng``."""
        initial = configuration
        current = configuration
        consensus_value = self._consensus(current)
        consensus_since: Optional[int] = 0 if consensus_value is not None else None
        interactions = 0
        # Recording: a deque bounded to the ring capacity keeps the *last*
        # ``capacity`` fired indices, matching the dense engines' ring-buffer
        # semantics exactly.
        ring: Optional[deque] = None
        index_of_transition = None
        if record:
            ring = deque(maxlen=capacity)
            index_of_transition = {t: i for i, t in enumerate(self.net.transitions)}

        def result(steps: int, terminated: bool) -> SimulationResult:
            trajectory = None
            if ring is not None:
                trajectory = Trajectory(
                    transition_indices=tuple(ring),
                    total_fired=interactions,
                    capacity=capacity,
                )
            return SimulationResult(
                initial=initial,
                final=current,
                steps=steps,
                consensus=consensus_value,
                consensus_step=consensus_since,
                terminated=terminated,
                interactions_sampled=interactions,
                trajectory=trajectory,
            )

        for step in range(1, max_steps + 1):
            transition = self.scheduler.choose(self.net, current, rng)
            if transition is None:
                # Terminal configuration: the consensus (if any) is definitive.
                return result(step - 1, True)
            current = transition.fire(current)
            interactions += 1
            if ring is not None:
                ring.append(index_of_transition[transition])
            value = self._consensus(current)
            if value is None or value != consensus_value:
                consensus_value = value
                consensus_since = step if value is not None else None
            if (
                consensus_value is not None
                and consensus_since is not None
                and step - consensus_since >= stability_window
            ):
                return result(step, False)
        return result(max_steps, False)

    def _consensus(self, configuration: Configuration) -> Optional[int]:
        """The consensus value of a configuration, or None if outputs disagree."""
        if self.protocol.has_consensus(configuration, OUTPUT_ONE):
            return OUTPUT_ONE
        if self.protocol.has_consensus(configuration, OUTPUT_ZERO):
            return OUTPUT_ZERO
        return None


class DenseEngine:
    """A stepper loop over one dense counts array (``compiled`` / ``numpy``).

    ``net`` is the protocol's :class:`~repro.simulation.compiled.CompiledNet`
    for ``name="compiled"`` and its
    :class:`~repro.simulation.vectorized.VectorizedNet` otherwise; the two
    share the dense mapping and the stepper signature, so the run loop below
    serves both.  ``kind`` is the scheduler's dense kind and ``classes`` the
    per-state output classes the stepper's consensus counters track.
    """

    lockstep = False

    def __init__(self, name: str, protocol: Protocol, kind: str) -> None:
        petri_net = protocol.petri_net
        build = petri_net.compiled if name == "compiled" else petri_net.vectorized
        self.name = name
        self.net: CompiledNet = build(extra_states=protocol.states)
        self.kind = kind
        self.classes = self.net.output_classes(protocol.output_table)
        self.stepper = self.net.stepper(kind, self.classes)

    def admits(self, configuration: Configuration) -> bool:
        """True if every state of ``configuration`` has a dense index."""
        index_of = self.net.index_of
        return all(state in index_of for state in configuration)

    def run_seeds(
        self,
        configuration: Configuration,
        seeds: Sequence[int],
        max_steps: int,
        stability_window: int,
        record: bool = False,
        capacity: int = DEFAULT_TRAJECTORY_CAPACITY,
    ) -> List[SimulationResult]:
        """One run per seed, all reusing a single dense counts buffer.

        The seed goes to the stepper as is: a native stepper seeds its own
        generator from it, the others run on ``random.Random(seed)``.
        """
        net = self.net
        buffer = net.counts_of(configuration)
        run = self._run
        return [
            run(configuration, net.counts_of(configuration, out=buffer),
                seed, max_steps, stability_window, record, capacity)
            for seed in seeds
        ]

    def run(
        self,
        configuration: Configuration,
        rng: random.Random,
        max_steps: int,
        stability_window: int,
        record: bool = False,
        capacity: int = DEFAULT_TRAJECTORY_CAPACITY,
    ) -> SimulationResult:
        """One run drawing from ``rng``."""
        return self._run(
            configuration, self.net.counts_of(configuration), rng,
            max_steps, stability_window, record, capacity,
        )

    def _run(
        self,
        initial: Configuration,
        counts: List[int],
        rng: Union[random.Random, int],
        max_steps: int,
        stability_window: int,
        record: bool,
        capacity: int,
    ) -> SimulationResult:
        one, zero, undef = self._output_counters(counts)
        if not record:
            steps, value, since, terminated = self.stepper(
                counts, rng, max_steps, stability_window, one, zero, undef
            )
            return self._result(initial, counts, steps, value, since, terminated, None)
        # The run fires at most max_steps transitions, so the physical buffer
        # never needs to exceed that — a huge capacity on a short run should
        # not allocate gigabytes.  The reported capacity stays as requested:
        # with total_fired <= max_steps the surviving suffix is the same.
        physical = max(1, min(capacity, max_steps))
        ring = [0] * physical
        stepper = self.net.stepper(self.kind, self.classes, record=True)
        steps, value, since, terminated = stepper(
            counts, rng, max_steps, stability_window, one, zero, undef,
            ring, physical,
        )
        trajectory = Trajectory.from_ring(
            ring, steps, physical, reported_capacity=capacity
        )
        return self._result(initial, counts, steps, value, since, terminated, trajectory)

    def _result(
        self,
        initial: Configuration,
        counts: Sequence[int],
        steps: int,
        value: int,
        since: int,
        terminated: bool,
        trajectory: Optional[Trajectory],
    ) -> SimulationResult:
        """A result from a stepper's return tuple (``-1`` meaning ``None``)."""
        return SimulationResult(
            initial=initial,
            final=self.net.configuration_of(counts),
            steps=steps,
            consensus=value if value >= 0 else None,
            consensus_step=since if since >= 0 else None,
            terminated=terminated,
            interactions_sampled=steps,
            trajectory=trajectory,
        )

    def _output_counters(self, counts: Sequence[int]) -> Tuple[int, int, int]:
        """The ``(one, zero, undef)`` output-class counters of dense counts."""
        classes = self.classes
        one = zero = undef = 0
        for index, count in enumerate(counts):
            if count:
                kind = classes[index]
                if kind == OUT_ONE:
                    one += count
                elif kind == OUT_ZERO:
                    zero += count
                elif kind == OUT_UNDEFINED:
                    undef += count
        return one, zero, undef


class EnsembleEngine(DenseEngine):
    """A NumPy dense engine whose ``run_seeds`` runs all seeds in lock step.

    The :class:`~repro.simulation.ensemble.VectorizedEnsemble` is built on
    the first ``run_seeds`` call and cached (its consensus-delta table is
    worth reusing); single runs use the inherited per-run NumPy stepper.
    """

    #: Rows share one wall time, so instrumentation times the whole list.
    lockstep = True

    def __init__(self, name: str, protocol: Protocol, kind: str) -> None:
        super().__init__(name, protocol, kind)
        self._ensemble: Optional[Any] = None

    def run_seeds(
        self,
        configuration: Configuration,
        seeds: Sequence[int],
        max_steps: int,
        stability_window: int,
        record: bool = False,
        capacity: int = DEFAULT_TRAJECTORY_CAPACITY,
    ) -> List[SimulationResult]:
        """One lock-step ensemble run; row ``i`` matches seed ``seeds[i]``."""
        if not seeds:
            return []
        from .ensemble import VectorizedEnsemble
        from .vectorized import require_numpy

        np = require_numpy()
        if self._ensemble is None:
            self._ensemble = VectorizedEnsemble(self.net, self.kind, self.classes)
        counts = self.net.counts_of(configuration)
        one, zero, undef = self._output_counters(counts)
        ring = None
        physical = 0
        if record:
            # Same physical clamp as the per-run recording path.
            physical = max(1, min(capacity, max_steps))
            ring = np.zeros((len(seeds), physical), dtype=np.int64)
        steps, values, since, terminated, finals = self._ensemble.run(
            counts, seeds, max_steps, stability_window, one, zero, undef,
            ring, physical,
        )
        results: List[SimulationResult] = []
        for i in range(len(seeds)):
            fired = int(steps[i])
            trajectory = None
            if ring is not None:
                trajectory = Trajectory.from_ring(
                    ring[i].tolist(), fired, physical, reported_capacity=capacity
                )
            results.append(self._result(
                configuration, finals[i].tolist(), fired, int(values[i]),
                int(since[i]), bool(terminated[i]), trajectory,
            ))
        return results


_Engine = Union[ReferenceEngine, DenseEngine]


def _observed(
    engine: _Engine,
    run_batch: Callable[[Sequence[Any]], List[SimulationResult]],
    seeds: Sequence[Any],
) -> List[SimulationResult]:
    """``run_batch(seeds)``, with run spans and profiler records if enabled.

    The one instrumentation point of every engine.  It decides once per
    call: with no profiler and no tracer installed it is a single plain
    ``run_batch`` call, so the disabled path carries no per-run branch
    (bench E15 holds it within 2% of the bare loop).  Otherwise it times
    every batch the engine can separate — each seed alone, or the whole
    list for a lock-step engine, whose rows share the wall time evenly — and
    emits one ``run`` span and one profiler record per run, labelled with
    the engine that ran it.  A ``None`` seed (a run on the simulator's own
    generator) leaves the span's ``seed`` attribute out.
    """
    profiler = _obs_profile.active_profiler()
    if profiler is None and not _obs_trace.tracing_active():
        return run_batch(seeds)
    name = engine.name
    batches = [seeds] if engine.lockstep else [[seed] for seed in seeds]
    results: List[SimulationResult] = []
    for batch in batches:
        t0 = monotonic_time()
        done = run_batch(batch)
        per_run = (monotonic_time() - t0) / max(1, len(batch))
        for seed, result in zip(batch, done):
            if profiler is not None:
                profiler.record(name, result.steps, per_run)
            seed_attr = {} if seed is None else {"seed": int(seed)}
            _obs_trace.span_event("run", "run", t0, per_run, **seed_attr,
                                  engine=name, steps=result.steps,
                                  consensus=result.consensus,
                                  terminated=result.terminated)
        results.extend(done)
    return results


class Simulator:
    """Simulate a protocol under a scheduler.

    Parameters
    ----------
    protocol:
        The protocol to simulate (must be Petri-net based).
    scheduler:
        The scheduling discipline; defaults to :class:`UniformScheduler`.
    seed:
        Seed of the internal random generator (for reproducible runs).
    engine:
        One of ``"auto"`` (default), ``"compiled"``, ``"numpy"``,
        ``"ensemble"`` or ``"reference"``; the module docstring says what
        each runs and how ``"auto"`` and ``REPRO_FORCE_ENGINE`` choose.  An
        explicit dense engine raises ``ValueError`` for a scheduler without
        a dense fast path, and ``"numpy"`` / ``"ensemble"`` raise
        ``ImportError`` without NumPy installed.
    """

    def __init__(
        self,
        protocol: Protocol,
        scheduler: Optional[Scheduler] = None,
        seed: Optional[int] = None,
        engine: str = "auto",
    ) -> None:
        if protocol.petri_net is None:
            raise ValueError("simulation requires a Petri-net based protocol")
        if engine not in _ENGINES:
            raise ValueError(f"unknown engine {engine!r} (expected one of {_ENGINES})")
        if engine != "auto":
            # One-time warning when REPRO_FORCE_ENGINE is set but ignored
            # (the override only applies to engine="auto").
            notice_explicit_engine(engine, _ENGINES)
        self.protocol = protocol
        self.net = protocol.petri_net
        self.scheduler = scheduler or UniformScheduler()
        self.rng = random.Random(seed)
        self.engine = engine

        self._reference = ReferenceEngine(protocol, self.scheduler)
        #: The engine every run goes through (see :meth:`_engine_for`).
        self._engine: _Engine = self._reference
        if engine != "reference":
            kind = self.scheduler.compiled_kind()
            if kind is None:
                if engine != "auto":
                    raise ValueError(
                        f"scheduler {type(self.scheduler).__name__} has no compiled fast "
                        "path; use engine='auto' or engine='reference'"
                    )
            else:
                choice = self._resolve_auto(engine)
                if choice != "reference":
                    dense = EnsembleEngine if choice == "ensemble" else DenseEngine
                    self._engine = dense(choice, protocol, kind)

    def _resolve_auto(self, engine: str) -> str:
        """The engine to build for a scheduler that admits a dense one.

        Returns ``"compiled"``, ``"numpy"``, ``"ensemble"`` or
        ``"reference"`` (the last two only explicitly or via the environment
        override — the heuristic never picks them).  Explicit engines pass
        through; only ``engine="auto"`` consults ``REPRO_FORCE_ENGINE`` and
        the transition-count heuristic.
        """
        if engine != "auto":
            return engine
        forced = forced_engine(_ENGINES)
        if forced is not None:
            # Forcing "numpy" without NumPy installed raises (loudly, from
            # the VectorizedNet constructor) rather than silently testing a
            # different engine than the CI job asked for.
            return forced
        if numpy_available() and self.net.num_transitions >= AUTO_VECTORIZE_THRESHOLD:
            return "numpy"
        return "compiled"

    def _engine_for(
        self, configuration: Configuration, record: bool, capacity: int
    ) -> _Engine:
        """The engine that runs ``configuration``, after validating the request.

        The resolved engine if it admits the configuration; otherwise the
        reference engine in auto mode, and a ``ValueError`` for an explicit
        dense engine.
        """
        if record and capacity < 1:
            raise ValueError("trajectory_capacity must be at least 1")
        if self._engine.admits(configuration):
            return self._engine
        if self.engine != "auto":
            raise ValueError(
                "configuration mentions states outside the compiled universe; "
                "use engine='auto' or engine='reference'"
            )
        return self._reference

    # ------------------------------------------------------------------
    # Single runs
    # ------------------------------------------------------------------
    def run(
        self,
        inputs: Configuration,
        max_steps: int = 100000,
        stability_window: int = 200,
        record_trajectory: bool = False,
        trajectory_capacity: int = DEFAULT_TRAJECTORY_CAPACITY,
    ) -> SimulationResult:
        """Simulate one execution from the initial configuration ``rho_L + inputs``.

        With ``record_trajectory=True`` the result carries a
        :class:`~repro.simulation.trajectory.Trajectory` of the last
        ``trajectory_capacity`` fired transition indices (a bounded ring
        buffer, so memory stays flat however long the run).
        """
        configuration = self.protocol.initial_configuration(inputs)
        return self.run_from(
            configuration,
            max_steps=max_steps,
            stability_window=stability_window,
            record_trajectory=record_trajectory,
            trajectory_capacity=trajectory_capacity,
        )

    def run_from(
        self,
        configuration: Configuration,
        max_steps: int = 100000,
        stability_window: int = 200,
        record_trajectory: bool = False,
        trajectory_capacity: int = DEFAULT_TRAJECTORY_CAPACITY,
    ) -> SimulationResult:
        """Simulate one execution from an arbitrary starting configuration.

        The run draws from the simulator's own generator, so consecutive
        runs continue one stream.
        """
        engine = self._engine_for(configuration, record_trajectory, trajectory_capacity)
        rng = self.rng
        (result,) = _observed(
            engine,
            lambda _batch: [engine.run(
                configuration, rng, max_steps, stability_window,
                record_trajectory, trajectory_capacity,
            )],
            [None],
        )
        return result

    # ------------------------------------------------------------------
    # Repeated runs
    # ------------------------------------------------------------------
    def run_seeds(
        self,
        configuration: Configuration,
        seeds: Sequence[int],
        max_steps: int,
        stability_window: int,
        record_trajectory: bool = False,
        trajectory_capacity: int = DEFAULT_TRAJECTORY_CAPACITY,
        analytics: Any = None,
    ) -> List[SimulationResult]:
        """Run one repetition per seed from ``configuration``, in seed order.

        Repetition ``i`` runs on ``random.Random(seeds[i])``.  This is the
        building block of both batch backends (the serial loop, and each
        worker's share under ``backend="process"``), of sweep cells and of
        served jobs; the dense engines reuse one counts buffer across the
        whole seed list, and the ensemble engine runs it in lock step.

        ``analytics`` optionally supplies an extraction spec (any object with
        an ``extract(result, protocol)`` method, canonically
        :class:`~repro.analytics.metrics.AnalyticsSpec`).  Each run is then
        recorded internally with a capacity large enough for the complete
        path, its compact metric dict is attached as ``result.analytics``,
        and the bulky trajectory ring is **dropped again** unless the caller
        asked for trajectories too — this is what lets worker processes
        return metrics instead of 65536-entry rings.  The surviving result
        fields (and any requested trajectory) are bit-identical to a run
        without analytics.
        """
        engine = self._engine_for(configuration, record_trajectory, trajectory_capacity)
        record = record_trajectory
        capacity = trajectory_capacity
        if analytics is not None:
            # Record internally with room for the complete path: a run fires
            # at most max_steps transitions, so max_steps guarantees no ring
            # overwrites (the dense engines clamp their physical buffer the
            # same way, so a short run never over-allocates).
            record = True
            capacity = max(
                1, max_steps, trajectory_capacity if record_trajectory else 0
            )
        results = _observed(
            engine,
            lambda batch: engine.run_seeds(
                configuration, batch, max_steps, stability_window, record, capacity
            ),
            seeds,
        )
        if analytics is not None:
            for result in results:
                result.analytics = analytics.extract(result, self.protocol)
                self._restore_trajectory(
                    result, record_trajectory, trajectory_capacity
                )
        return results

    @staticmethod
    def _restore_trajectory(
        result: SimulationResult, record_trajectory: bool, trajectory_capacity: int
    ) -> None:
        """Undo the internal full-capacity recording of an analytics run.

        Leaves ``result.trajectory`` exactly as a plain run with the caller's
        ``record_trajectory``/``trajectory_capacity`` would have: ``None``
        when recording was not requested, else the last
        ``trajectory_capacity`` firings under the requested capacity — so
        enabling analytics can never change the non-analytics fields.
        """
        if not record_trajectory:
            result.trajectory = None
            return
        trajectory = result.trajectory
        if trajectory is None or trajectory.capacity == trajectory_capacity:
            return
        indices = trajectory.transition_indices
        if len(indices) > trajectory_capacity:
            indices = indices[len(indices) - trajectory_capacity:]
        result.trajectory = Trajectory(
            transition_indices=indices,
            total_fired=trajectory.total_fired,
            capacity=trajectory_capacity,
        )

    def run_many(
        self,
        inputs: Configuration,
        repetitions: int,
        max_steps: int = 100000,
        stability_window: int = 200,
        backend: str = "serial",
        max_workers: Optional[int] = None,
        chunk_size: Optional[int] = None,
        record_trajectory: bool = False,
        trajectory_capacity: int = DEFAULT_TRAJECTORY_CAPACITY,
        analytics: Any = None,
    ) -> List[SimulationResult]:
        """Simulate several independent executions from the same input.

        Each repetition runs under its own generator seeded from the
        simulator's master generator, so a batch is reproducible from the
        simulator seed while the repetitions stay independent — and the two
        engines agree run-for-run.

        ``backend="serial"`` (default) runs the repetitions in this process,
        reusing a single dense counts buffer on the compiled path;
        ``backend="process"`` fans them out over ``max_workers`` worker
        processes (see :mod:`repro.simulation.batch`).  The per-repetition
        seeds are drawn from the master generator *before* scheduling, and the
        results come back in repetition order, so the two backends return
        bit-identical result lists for the same simulator seed.

        ``analytics`` optionally attaches a compact metric dict per result
        (see :mod:`repro.analytics.metrics`); under ``backend="process"`` the
        extraction runs inside the workers and only the metrics cross the
        pool.
        """
        from .batch import run_ensemble

        if repetitions < 0:
            raise ValueError(f"repetitions must be non-negative, got {repetitions}")
        # A failed batch must not advance the master generator — whether the
        # failure is early validation or a late one (unpicklable payload,
        # malformed worker-count override) — or a corrected retry would
        # silently produce a different ensemble than a fresh simulator with
        # this seed.  Snapshot the stream and restore it on any error.
        rng_state = self.rng.getstate()
        seeds = [self.rng.getrandbits(64) for _ in range(repetitions)]
        try:
            return run_ensemble(
                self.protocol,
                inputs,
                seeds,
                scheduler=self.scheduler,
                engine=self.engine,
                max_steps=max_steps,
                stability_window=stability_window,
                backend=backend,
                max_workers=max_workers,
                chunk_size=chunk_size,
                record_trajectory=record_trajectory,
                trajectory_capacity=trajectory_capacity,
                analytics=analytics,
                _serial_simulator=self,
            )
        except Exception:
            self.rng.setstate(rng_state)
            raise


def simulate(
    protocol: Protocol,
    inputs: Configuration,
    seed: Optional[int] = None,
    max_steps: int = 100000,
    stability_window: int = 200,
    scheduler: Optional[Scheduler] = None,
    engine: str = "auto",
    record_trajectory: bool = False,
    trajectory_capacity: int = DEFAULT_TRAJECTORY_CAPACITY,
) -> SimulationResult:
    """One-shot convenience wrapper around :class:`Simulator`."""
    simulator = Simulator(protocol, scheduler=scheduler, seed=seed, engine=engine)
    return simulator.run(
        inputs,
        max_steps=max_steps,
        stability_window=stability_window,
        record_trajectory=record_trajectory,
        trajectory_capacity=trajectory_capacity,
    )
