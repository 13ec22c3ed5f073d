"""Resumable execution of sweep grids over the batch subsystem.

The :class:`SweepRunner` walks a :class:`~repro.sweep.spec.SweepSpec`'s cell
grid in its deterministic order and runs one seeded ensemble per cell:

* every cell is registered in the :class:`~repro.sweep.store.ResultStore` up
  front (status ``created``), and the store is flushed incrementally — before
  a cell runs (``running``) and after it completes (``done`` / ``error``) —
  so a killed sweep leaves a consistent, resumable table behind;
* **resume is the default**: cells already ``done`` in the store are skipped,
  everything else (``created``, a stale ``running`` from a killed run, and —
  unless ``retry_errors=False`` — ``error``) is (re)run;
* under ``backend="process"`` every cell fans its repetitions over **one
  shared persistent** :class:`~repro.simulation.batch.WorkerPool`: worker
  processes are created once per :meth:`SweepRunner.run` and cache one
  initialized simulator per (protocol, scheduler, engine) spec, so the grid
  pays protocol pickling and stepper compilation once per spec per worker,
  not once per cell;
* results are backend-independent **by construction**: each cell's ensemble
  seeds derive from the spec's master seed and the cell identity alone
  (see :meth:`~repro.sweep.spec.SweepSpec.cell_seed`), and the batch layer
  guarantees serial/process bit-identity for a fixed seed list — so the same
  spec produces byte-identical store files serially, in parallel, straight
  through, or across any kill-and-resume cycle.
"""

from __future__ import annotations

import random
import threading
import time
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

from ..config import monotonic_time
from ..core.configuration import Configuration
from ..core.predicates import Predicate
from ..core.protocol import Protocol
from ..obs import trace as _obs_trace
from ..obs.registry import get_registry
from ..simulation.batch import WorkerPool, _dumps_for_workers
from ..simulation.scheduler import Scheduler
from ..simulation.simulator import SimulationResult, Simulator
from ..simulation.statistics import accuracy_against_predicate, summarize_runs
from ..simulation.trajectory import DEFAULT_TRAJECTORY_CAPACITY
from .faults import InjectedFault, fault_point
from .spec import SweepCell, SweepSpec, build_inputs_for
from .store import STATUS_DONE, STATUS_ERROR, ResultStore, StoreCorruptionError

__all__ = [
    "CellExecutionError",
    "ClaimReport",
    "SweepReport",
    "SweepRunner",
    "claim_worker",
    "to_experiment_table",
]

_BACKENDS = ("serial", "process")


class CellExecutionError(RuntimeError):
    """A grid cell's ensemble failed (crash, timeout, or protocol error).

    The claim loop's unit of containment: every failure inside
    :meth:`SweepRunner._run_cell` — a raising protocol builder, a worker
    process crash (:class:`~repro.simulation.batch.WorkerCrashError`), an
    ensemble timeout (:class:`~repro.simulation.batch.WorkerTimeoutError`) —
    is wrapped in this typed error carrying the cell id and the original
    cause, and converted into a retry-or-park decision on the claim store
    instead of killing the runner process.
    """

    def __init__(self, cell_id: str, cause: BaseException):
        self.cell_id = cell_id
        self.cause = cause
        super().__init__(f"{type(cause).__name__}: {cause}")


@dataclass(frozen=True)
class SweepReport:
    """What one :meth:`SweepRunner.run` call did to the grid."""

    #: Cells in the grid.
    total: int
    #: Cells that completed successfully during this call.
    executed: int
    #: Cells skipped because the store already had them ``done`` (or
    #: ``error`` with ``retry_errors=False`` — counted separately below).
    skipped: int
    #: Cells that raised during this call (recorded as ``error`` rows).
    failed: int
    #: The subset of ``skipped`` that was skipped as a *previous* ``error``
    #: (``retry_errors=False``) — still failures, just not this call's.
    skipped_errors: int = 0

    @property
    def remaining(self) -> int:
        """Cells not reached (an interrupted run, e.g. via ``max_cells``)."""
        return self.total - self.executed - self.skipped - self.failed

    @property
    def complete(self) -> bool:
        """True when every cell of the grid is actually ``done``.

        False while cells remain, and also when any cell failed — in this
        call or in the run a ``retry_errors=False`` resume skipped over.
        """
        return self.failed == 0 and self.skipped_errors == 0 and self.remaining == 0


@dataclass(frozen=True)
class ClaimReport:
    """What one :meth:`SweepRunner.run_claims` loop did to a shared grid.

    Unlike :class:`SweepReport`, the counters are *this runner's* view: other
    runners may have executed the rest of the grid concurrently.  ``drained``
    is the global statement — on exit, every row of the store was ``done`` or
    a terminal (parked) ``error`` row.
    """

    #: This runner's owner id.
    owner: str
    #: Cells in the grid.
    total: int
    #: Claims this runner executed and committed.
    executed: int
    #: Claims that failed and were recorded for retry (backoff pending).
    retried: int
    #: Claims that failed with retries exhausted (terminal ``error`` rows).
    parked: int
    #: Commits refused because the lease had been reclaimed meanwhile (the
    #: reclaimant recomputes the identical row, so nothing is damaged).
    lost: int
    #: Whether the store was fully drained when the loop exited.
    drained: bool
    #: Whether the loop exited on a stop request (SIGTERM drain) rather than
    #: an empty store or an exhausted ``max_cells`` budget.
    stopped: bool = False


class _HeartbeatPump:
    """A daemon thread extending a held claim's lease while the cell runs.

    Beats every ``interval`` seconds (default: a third of the store's lease)
    until stopped; each beat goes through the store's ``heartbeat`` — and
    therefore through the ``heartbeat-loss`` fault point, which is how the
    partition chaos tests starve a lease under a live runner.  A beat
    returning False (the claim is gone) is remembered so the claim loop can
    report the eventual lost commit with a cause.

    Lease trouble is never silent: a beat that lands late (more than two
    intervals since the previous one — a starved thread or a blocked store),
    a gap that eats into the final beat of the lease window, and a beat
    whose claim is already gone each emit a structured ``warning`` event
    through :mod:`repro.obs.trace` and bump the
    ``repro_sweep_heartbeat_warnings_total{reason=...}`` counter; the
    reasons are also kept on :attr:`warnings` for the claim loop's report.
    """

    def __init__(self, store: ResultStore, claim: object, interval: float):
        self._store = store
        self._claim = claim
        self._interval = max(0.05, interval)
        self._stop = threading.Event()
        self.claim_alive = True
        self.warnings: List[str] = []
        self._warn_counter = get_registry().counter(
            "repro_sweep_heartbeat_warnings_total",
            "Heartbeat-pump lease warnings by reason.",
            labelnames=("reason",),
        )
        self._thread = threading.Thread(target=self._beat, daemon=True)

    def __enter__(self) -> "_HeartbeatPump":
        self._thread.start()
        return self

    def __exit__(self, *exc_info: object) -> None:
        self._stop.set()
        self._thread.join()

    def _warn(self, reason: str, **attrs: object) -> None:
        self.warnings.append(reason)
        self._warn_counter.inc(reason=reason)
        _obs_trace.event(
            f"heartbeat-{reason}",
            kind="warning",
            reason=reason,
            cell=getattr(self._claim, "cell", None),
            owner=getattr(self._claim, "owner", None),
            interval=self._interval,
            **attrs,
        )

    def _beat(self) -> None:
        lease = getattr(self._store, "lease_seconds", None)
        last = monotonic_time()
        while not self._stop.wait(self._interval):
            now = monotonic_time()
            gap = now - last
            if gap > 2.0 * self._interval:
                # At least one beat went missing (a starved thread, a store
                # call that blocked) — the lease burned down unattended.
                self._warn("skipped", gap=gap)
            if lease is not None and gap > lease - self._interval:
                # Within one beat of expiry: the next hiccup loses the claim.
                self._warn("lease-at-risk", gap=gap, lease=lease)
            if not self._store.heartbeat(self._claim):
                self._warn("lost")
                self.claim_alive = False
                return
            last = monotonic_time()


class SweepRunner:
    """Run a sweep spec against a result store, resumably.

    Parameters
    ----------
    spec:
        The grid to run.
    store:
        Where rows are persisted.  Reusing a store from an earlier (possibly
        interrupted) run of the **same** spec resumes it; a store written by
        a different spec or master seed is rejected at registration time.
    backend:
        ``"process"`` (default) fans each cell's repetitions over a shared
        persistent :class:`~repro.simulation.batch.WorkerPool`;
        ``"serial"`` runs everything in-process, reusing one simulator per
        (protocol, scheduler, engine) spec across cells.
    max_workers, chunk_size, start_method:
        Pool knobs, as for :class:`~repro.simulation.batch.BatchRunner`.
        Ignored under ``backend="serial"``.
    retry_errors:
        Whether resumption re-runs cells recorded as ``error`` (default) or
        skips them.
    """

    def __init__(
        self,
        spec: SweepSpec,
        store: ResultStore,
        backend: str = "process",
        max_workers: Optional[int] = None,
        chunk_size: Optional[int] = None,
        start_method: Optional[str] = None,
        retry_errors: bool = True,
    ):
        if backend not in _BACKENDS:
            raise ValueError(
                f"unknown backend {backend!r} (expected one of {_BACKENDS})"
            )
        if max_workers is not None and max_workers < 1:
            raise ValueError(f"max_workers must be at least 1, got {max_workers}")
        if chunk_size is not None and chunk_size < 1:
            raise ValueError(f"chunk_size must be at least 1, got {chunk_size}")
        self.spec = spec
        self.store = store
        self.backend = backend
        self.max_workers = max_workers
        self.chunk_size = chunk_size
        self.start_method = start_method
        self.retry_errors = retry_errors

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def run(
        self,
        max_cells: Optional[int] = None,
        on_error: str = "raise",
        progress: Optional[Callable[[str], None]] = None,
    ) -> SweepReport:
        """Execute the grid (or what remains of it) and return a report.

        Parameters
        ----------
        max_cells:
            Stop after attempting this many cells (completed or failed) —
            the controlled-interruption knob used by the resume tests and
            the CI smoke job.  Skipped ``done`` cells do not count.
        on_error:
            ``"raise"`` (default) persists the ``error`` row, then re-raises
            the cell's exception; ``"continue"`` records it and moves on —
            the failure stays visible in the table and the report.
        progress:
            Optional callback receiving one human-readable line per cell.
        """
        if on_error not in ("raise", "continue"):
            raise ValueError(
                f"on_error must be 'raise' or 'continue', got {on_error!r}"
            )
        if max_cells is not None and max_cells < 0:
            raise ValueError(f"max_cells must be non-negative, got {max_cells}")

        cells = self.spec.cells()
        for cell in cells:
            self.store.ensure(
                cell.cell_id, cell.keyfields(), self.spec.cell_seed(cell)
            )
        self.store.flush()

        executed = failed = skipped = skipped_errors = attempted = 0
        caches = _CellCaches()
        pool: Optional[WorkerPool] = None
        try:
            for index, cell in enumerate(cells):
                status = self.store.status(cell.cell_id)
                if status == STATUS_DONE or (
                    status == STATUS_ERROR and not self.retry_errors
                ):
                    skipped += 1
                    if status == STATUS_ERROR:
                        skipped_errors += 1
                    if progress is not None:
                        progress(
                            f"[{index + 1}/{len(cells)}] {cell.cell_id} "
                            f"skipped ({status})"
                        )
                    continue
                if max_cells is not None and attempted >= max_cells:
                    break
                attempted += 1
                self.store.mark_running(cell.cell_id)
                self.store.flush()
                with _obs_trace.span(
                    "sweep-cell", kind="sweep-cell", cell=cell.cell_id
                ) as cell_span:
                    try:
                        if self.backend == "process" and pool is None:
                            pool = WorkerPool(
                                max_workers=self.max_workers,
                                start_method=self.start_method,
                            )
                        results = self._run_cell(cell, caches, pool)
                    except Exception as error:
                        failed += 1
                        cell_span.set(status="error")
                        self.store.mark_error(
                            cell.cell_id, f"{type(error).__name__}: {error}"
                        )
                        self.store.flush()
                        if progress is not None:
                            progress(
                                f"[{index + 1}/{len(cells)}] {cell.cell_id} "
                                f"ERROR: {error}"
                            )
                        if on_error == "raise":
                            raise
                    else:
                        executed += 1
                        statistics = summarize_runs(results)
                        cell_span.set(
                            status="done",
                            runs=statistics.runs,
                            converged=statistics.converged,
                        )
                        self.store.mark_done(
                            cell.cell_id, statistics, **self._result_extras(
                                cell, caches, results
                            )
                        )
                        self.store.flush()
                        if progress is not None:
                            progress(
                                f"[{index + 1}/{len(cells)}] {cell.cell_id} done "
                                f"(converged {statistics.converged}/{statistics.runs}, "
                                f"mean steps {statistics.mean_steps:.1f})"
                            )
        finally:
            if pool is not None:
                pool.close()
        return SweepReport(
            total=len(cells), executed=executed, skipped=skipped, failed=failed,
            skipped_errors=skipped_errors,
        )

    # ------------------------------------------------------------------
    # Claim-based execution (multi-runner mode)
    # ------------------------------------------------------------------
    def run_claims(
        self,
        owner: str,
        max_cells: Optional[int] = None,
        cell_timeout: Optional[float] = None,
        heartbeat_interval: Optional[float] = None,
        wait_for_stragglers: bool = True,
        idle_wait: float = 0.2,
        stop_event: Optional[threading.Event] = None,
        progress: Optional[Callable[[str], None]] = None,
    ) -> ClaimReport:
        """Drain the grid cooperatively: claim, execute, commit, repeat.

        The multi-runner mode: any number of processes (one host or many
        sharing a filesystem) point :meth:`run_claims` at the same sqlite
        store and the grid drains concurrently.  Requires a claim-capable
        store (:class:`~repro.sweep.dbstore.SqliteResultStore`).

        Each iteration atomically claims the next open cell, executes its
        ensemble (under a heartbeat pump extending the lease), and commits
        the result through the owner-guarded ``finish_claim``.  A failing
        cell — including worker crashes and ensemble timeouts, both wrapped
        in :class:`CellExecutionError` — is recorded for retry with
        exponential backoff, or parked as a terminal ``error`` row once the
        store's ``max_retries`` is exhausted; the runner itself survives and
        moves on.  Because every cell's seeds derive from the spec's master
        seed and the cell identity alone, the drained table's ``done`` rows
        are byte-identical to a single-process :meth:`run` of the same spec,
        no matter how many runners participated or how often they crashed.

        Parameters
        ----------
        owner:
            This runner's claim-owner id; must be unique across concurrently
            live runners (the launcher derives it from host and index).
        max_cells:
            Stop after processing this many claims (the controlled-
            interruption knob; ``None`` = run until the grid drains).
        cell_timeout:
            Wall-clock budget per cell ensemble (process backend only) —
            expiry raises through the crash containment and counts as a
            cell failure.
        heartbeat_interval:
            Seconds between lease extensions (default: a third of the
            store's ``lease_seconds``).
        wait_for_stragglers:
            When no cell is claimable but unresolved rows remain (live
            claims of other runners, rows in backoff), keep polling every
            ``idle_wait`` seconds until the grid drains (default) instead of
            returning.  Waiting runners also adopt expired leases, so a
            SIGKILLed peer's cells are re-executed without any restart.
        stop_event:
            Optional external stop flag: the loop finishes the cell in
            flight, then exits without claiming further — the graceful
            SIGTERM drain of :func:`claim_worker`.
        progress:
            Optional callback receiving one line per processed claim.
        """
        claim_api = ("claim_next", "finish_claim", "fail_claim", "heartbeat")
        if not all(hasattr(self.store, name) for name in claim_api):
            raise TypeError(
                "run_claims requires a claim-capable store (a .sqlite path / "
                f"SqliteResultStore), got {type(self.store).__name__}"
            )
        if max_cells is not None and max_cells < 0:
            raise ValueError(f"max_cells must be non-negative, got {max_cells}")
        if idle_wait <= 0:
            raise ValueError(f"idle_wait must be positive, got {idle_wait}")
        if heartbeat_interval is None:
            heartbeat_interval = self.store.lease_seconds / 3.0

        cells = self.spec.cells()
        by_id = {cell.cell_id: cell for cell in cells}
        for cell in cells:
            self.store.ensure(
                cell.cell_id, cell.keyfields(), self.spec.cell_seed(cell)
            )

        executed = retried = parked = lost = processed = 0
        stopped = False
        caches = _CellCaches()
        pool: Optional[WorkerPool] = None
        # The registry mirror of this loop's ClaimReport counters: cumulative
        # across claim loops in the process, scrapeable while the loop runs.
        claim_counter = get_registry().counter(
            "repro_sweep_claims_total",
            "Claim outcomes processed by run_claims.",
            labelnames=("outcome",),
        )
        try:
            while True:
                if stop_event is not None and stop_event.is_set():
                    stopped = True
                    break
                if max_cells is not None and processed >= max_cells:
                    break
                claim = self.store.claim_next(owner)
                if claim is None:
                    if not wait_for_stragglers:
                        break
                    if self.store.unresolved_count() == 0:
                        break
                    # Rows remain but none is eligible right now: another
                    # runner's live claim, or a backoff window.  Poll — an
                    # expired lease or due retry becomes claimable here,
                    # which is how surviving runners adopt a killed peer's
                    # cells without any restart.
                    time.sleep(idle_wait)
                    continue
                cell = by_id.get(claim.cell)
                if cell is None:
                    # Not this spec's cell: the store holds a different (or
                    # larger) grid.  Hand the claim back and refuse to mix.
                    self.store.release_claim(claim)
                    raise StoreCorruptionError(
                        f"claimed cell {claim.cell!r} is not part of this "
                        "sweep spec; the store holds a different grid"
                    )
                processed += 1
                try:
                    # Models a runner dying (or erroring) between claiming
                    # and executing: the claim is held, no result exists.
                    try:
                        fault_point("mid-cell")
                    except InjectedFault as fault:
                        raise CellExecutionError(claim.cell, fault) from fault
                    if self.backend == "process" and pool is None:
                        pool = WorkerPool(
                            max_workers=self.max_workers,
                            start_method=self.start_method,
                        )
                    with _obs_trace.span(
                        "claim", kind="claim", cell=claim.cell,
                        attempt=claim.attempt, owner=owner,
                    ), _HeartbeatPump(
                        self.store, claim, heartbeat_interval
                    ) as pump:
                        results = self._execute_claimed(
                            cell, caches, pool, cell_timeout
                        )
                except CellExecutionError as error:
                    fate = self.store.fail_claim(claim, str(error))
                    if fate == "retry":
                        retried += 1
                        claim_counter.inc(outcome="retried")
                    elif fate == "parked":
                        parked += 1
                        claim_counter.inc(outcome="parked")
                    else:
                        lost += 1
                        claim_counter.inc(outcome="lost")
                    if progress is not None:
                        progress(
                            f"[{owner}] {claim.cell} attempt {claim.attempt} "
                            f"FAILED ({fate}): {error}"
                        )
                else:
                    statistics = summarize_runs(results)
                    committed = self.store.finish_claim(
                        claim, statistics, **self._result_extras(
                            cell, caches, results
                        )
                    )
                    if committed:
                        executed += 1
                        claim_counter.inc(outcome="executed")
                    else:
                        lost += 1
                        claim_counter.inc(outcome="lost")
                    if progress is not None:
                        outcome = "done" if committed else (
                            "lost (lease reclaimed)" if not pump.claim_alive
                            else "lost"
                        )
                        progress(
                            f"[{owner}] {claim.cell} attempt {claim.attempt} "
                            f"{outcome} (converged "
                            f"{statistics.converged}/{statistics.runs})"
                        )
        finally:
            if pool is not None:
                pool.close()
        return ClaimReport(
            owner=owner,
            total=len(cells),
            executed=executed,
            retried=retried,
            parked=parked,
            lost=lost,
            drained=self.store.unresolved_count() == 0,
            stopped=stopped,
        )

    def _execute_claimed(
        self,
        cell: SweepCell,
        caches: "_CellCaches",
        pool: Optional[WorkerPool],
        timeout: Optional[float],
    ) -> List[SimulationResult]:
        """Run a claimed cell, wrapping any failure in the typed cell error.

        The wrapped message renders as ``TypeName: text`` — exactly what the
        single-process path's ``mark_error`` records — so parked rows stay
        byte-comparable with a serial sweep's ``error`` rows.
        """
        try:
            return self._run_cell(cell, caches, pool, timeout=timeout)
        except Exception as error:
            raise CellExecutionError(cell.cell_id, error) from error

    # ------------------------------------------------------------------
    # One cell
    # ------------------------------------------------------------------
    def _run_cell(
        self,
        cell: SweepCell,
        caches: "_CellCaches",
        pool: Optional[WorkerPool],
        timeout: Optional[float] = None,
    ) -> List[SimulationResult]:
        protocol = caches.protocol(cell)
        inputs = caches.inputs(cell)
        scheduler = caches.scheduler(cell)
        seeds = self._cell_run_seeds(cell)
        analytics = (
            caches.analytics_spec(cell, inputs) if self.spec.analytics else None
        )
        if self.backend == "serial":
            simulator = caches.serial_simulator(cell, protocol, scheduler)
            configuration = protocol.initial_configuration(inputs)
            return simulator.run_seeds(
                configuration, seeds, self.spec.max_steps,
                self.spec.stability_window, False, DEFAULT_TRAJECTORY_CAPACITY,
                analytics,
            )
        return pool.run_seeds(
            protocol,
            inputs,
            seeds,
            scheduler=scheduler,
            engine=cell.engine,
            max_steps=self.spec.max_steps,
            stability_window=self.spec.stability_window,
            chunk_size=self.chunk_size,
            analytics=analytics,
            spec_bytes=caches.spec_bytes(cell, protocol, scheduler),
            timeout=timeout,
        )

    def _result_extras(
        self,
        cell: SweepCell,
        caches: "_CellCaches",
        results: List[SimulationResult],
    ) -> Dict[str, object]:
        """The analytics columns of a completed cell.

        Predicate accuracy is scored whenever the protocol registers a
        predicate — analytics on or off.  With analytics enabled the workers
        already scored each run against the expected predicate value (the
        spec's ``expected_output``), so the aggregated accuracy is reused;
        without analytics it is recomputed here from the consensus values
        the results carry.  The trajectory-derived columns (convergence-time
        quantiles, top transitions) come from the in-worker metric dicts and
        are therefore only present under ``spec.analytics=True``.
        Everything here is a deterministic pure function of the results, so
        the persisted columns inherit the store's byte-stability across
        backends and resume cycles.
        """
        if self.spec.analytics:
            # Imported lazily: repro.analytics imports this package for its
            # report CLI, so a module-level import would be circular.
            from ..analytics.ensemble import aggregate_run_metrics, top_transitions

            aggregated = aggregate_run_metrics(
                [result.analytics for result in results],
                quantile_points=(0.1, 0.5, 0.9),
            )
            rendered = None
            if aggregated.histogram is not None:
                names = [
                    transition.name
                    for transition in caches.protocol(cell).petri_net.transitions
                ]
                top = top_transitions(aggregated.histogram, names, k=3)
                # None (not "") when nothing fired: the CSV round-trip cannot
                # distinguish an empty string from an absent value.
                rendered = (
                    "; ".join(f"{name}:{count}" for name, count in top)
                    if top else None
                )
            return {
                "accuracy": aggregated.accuracy,
                "consensus_quantiles": aggregated.stable_consensus_quantiles,
                "top_transitions": rendered,
            }
        predicate = caches.predicate(cell)
        return {
            "accuracy": (
                accuracy_against_predicate(results, predicate, caches.inputs(cell))
                if predicate is not None
                else None
            )
        }

    def _cell_run_seeds(self, cell: SweepCell) -> List[int]:
        """The cell's per-repetition seeds.

        Derived exactly like ``BatchRunner.run_many(seed=cell_seed)`` derives
        them, so a cell's ensemble can be reproduced outside the sweep with
        the cell seed alone.
        """
        master = random.Random(self.spec.cell_seed(cell))
        return [master.getrandbits(64) for _ in range(self.spec.repetitions)]

    def __repr__(self) -> str:
        return (
            f"SweepRunner({len(self.spec)} cells, backend={self.backend!r}, "
            f"store={self.store!r})"
        )


class _CellCaches:
    """Per-run caches shared across cells.

    One built protocol per (protocol, params) axis value — so every
    population/scheduler/engine cell of that protocol reuses its compiled
    caches — plus one scheduler instance per kind, and per
    (protocol, params, scheduler, engine) spec either one serial simulator
    or one transport pickle (the worker-side simulator-cache key, kept
    byte-stable so every cell of a spec hits the same cached simulator in
    the pool workers).
    """

    def __init__(self):
        self._protocols: Dict[Tuple[str, str], Protocol] = {}
        self._inputs: Dict[Tuple[str, str, int], Configuration] = {}
        self._schedulers: Dict[str, Scheduler] = {}
        self._serial: Dict[Tuple[str, str, str, str], Simulator] = {}
        self._spec_bytes: Dict[Tuple[str, str, str, str], bytes] = {}
        self._predicates: Dict[Tuple[str, str, int], Optional[Predicate]] = {}
        self._analytics: Dict[Tuple[str, str, int], object] = {}

    def protocol(self, cell: SweepCell) -> Protocol:
        key = (cell.protocol, cell.params_json)
        protocol = self._protocols.get(key)
        if protocol is None:
            protocol, inputs = cell.build()
            self._protocols[key] = protocol
            self._inputs[key + (cell.population,)] = inputs
        return protocol

    def inputs(self, cell: SweepCell) -> Configuration:
        key = (cell.protocol, cell.params_json, cell.population)
        inputs = self._inputs.get(key)
        if inputs is None:
            inputs = build_inputs_for(
                cell.protocol, self.protocol(cell), cell.population, cell.params
            )
            self._inputs[key] = inputs
        return inputs

    def predicate(self, cell: SweepCell) -> Optional[Predicate]:
        """The cell's registered predicate (or None), cached per grid point."""
        key = (cell.protocol, cell.params_json, cell.population)
        if key not in self._predicates:
            self._predicates[key] = cell.build_predicate()
        return self._predicates[key]

    def analytics_spec(self, cell: SweepCell, inputs: Configuration):
        """The in-worker extraction spec of a cell, cached per grid point.

        The expected predicate value is folded in up front, so every worker
        scores correctness locally without seeing the predicate object.
        """
        key = (cell.protocol, cell.params_json, cell.population)
        spec = self._analytics.get(key)
        if spec is None:
            from ..analytics.metrics import AnalyticsSpec

            predicate = self.predicate(cell)
            expected = None if predicate is None else predicate.evaluate(inputs)
            spec = AnalyticsSpec(
                histogram=True, consensus_times=True, expected_output=expected
            )
            self._analytics[key] = spec
        return spec

    def scheduler(self, cell: SweepCell) -> Scheduler:
        scheduler = self._schedulers.get(cell.scheduler)
        if scheduler is None:
            scheduler = cell.make_scheduler()
            self._schedulers[cell.scheduler] = scheduler
        return scheduler

    def _spec_key(self, cell: SweepCell) -> Tuple[str, str, str, str]:
        return (cell.protocol, cell.params_json, cell.scheduler, cell.engine)

    def serial_simulator(
        self, cell: SweepCell, protocol: Protocol, scheduler: Scheduler
    ) -> Simulator:
        key = self._spec_key(cell)
        simulator = self._serial.get(key)
        if simulator is None:
            simulator = Simulator(protocol, scheduler=scheduler, engine=cell.engine)
            self._serial[key] = simulator
        return simulator

    def spec_bytes(
        self, cell: SweepCell, protocol: Protocol, scheduler: Scheduler
    ) -> bytes:
        key = self._spec_key(cell)
        payload = self._spec_bytes.get(key)
        if payload is None:
            payload = _dumps_for_workers((protocol, scheduler, cell.engine))
            self._spec_bytes[key] = payload
        return payload


def claim_worker(
    spec_json: str,
    store_path: str,
    owner: str,
    lease_seconds: Optional[float] = None,
    max_retries: Optional[int] = None,
    backoff_base: Optional[float] = None,
    backend: str = "process",
    max_workers: Optional[int] = None,
    chunk_size: Optional[int] = None,
    start_method: Optional[str] = None,
    cell_timeout: Optional[float] = None,
    heartbeat_interval: Optional[float] = None,
    fault_plan: Optional[str] = None,
    wait_for_stragglers: bool = True,
    idle_wait: float = 0.2,
    max_cells: Optional[int] = None,
    progress: Optional[Callable[[str], None]] = None,
) -> ClaimReport:
    """One complete claim-loop runner: the ``workers`` launcher's unit.

    Designed to be a process entry point (``multiprocessing.Process`` target
    or a per-host shell invocation): opens its own
    :class:`~repro.sweep.dbstore.SqliteResultStore` connection on
    ``store_path``, registers the grid (idempotent and cross-process safe),
    drains it via :meth:`SweepRunner.run_claims`, and finishes with a store
    consistency check.

    **SIGTERM drains gracefully**: the first signal sets a stop flag — the
    cell in flight completes and commits, then the loop exits without
    claiming further (its report says ``stopped=True``).  Only SIGKILL loses
    a claim, and that is exactly the case the lease-expiry recovery covers.

    ``fault_plan`` optionally installs a per-runner deterministic fault plan
    (see :mod:`repro.sweep.faults`) — passed explicitly rather than through
    the environment so a launcher can aim chaos at one runner of a fleet.
    """
    import signal

    from .dbstore import (
        DEFAULT_BACKOFF_BASE,
        DEFAULT_LEASE_SECONDS,
        DEFAULT_MAX_RETRIES,
        SqliteResultStore,
    )
    from .faults import install_fault_plan

    if fault_plan is not None:
        install_fault_plan(fault_plan)

    # Launcher-spawned runner processes honour REPRO_TRACE themselves: the
    # parent's installed tracer does not survive a spawn, and each runner
    # appends whole lines to the shared trace file under its own pid.
    _obs_trace.tracer_from_env()

    stop_event = threading.Event()

    def _drain(signum: int, frame: object) -> None:
        stop_event.set()

    try:
        previous = signal.signal(signal.SIGTERM, _drain)
    except ValueError:  # pragma: no cover - non-main-thread embedding
        previous = None

    spec = SweepSpec.from_json(spec_json)
    store = SqliteResultStore(
        store_path,
        lease_seconds=(
            DEFAULT_LEASE_SECONDS if lease_seconds is None else lease_seconds
        ),
        max_retries=DEFAULT_MAX_RETRIES if max_retries is None else max_retries,
        backoff_base=(
            DEFAULT_BACKOFF_BASE if backoff_base is None else backoff_base
        ),
    )
    try:
        runner = SweepRunner(
            spec,
            store,
            backend=backend,
            max_workers=max_workers,
            chunk_size=chunk_size,
            start_method=start_method,
        )
        report = runner.run_claims(
            owner,
            max_cells=max_cells,
            cell_timeout=cell_timeout,
            heartbeat_interval=heartbeat_interval,
            wait_for_stragglers=wait_for_stragglers,
            idle_wait=idle_wait,
            stop_event=stop_event,
            progress=progress,
        )
        _verify_claim_consistency(store, owner)
        return report
    finally:
        store.close()
        if previous is not None:
            signal.signal(signal.SIGTERM, previous)


def _verify_claim_consistency(store: ResultStore, owner: str) -> None:
    """The runner's exit invariant: it left nothing of its own behind.

    After a drain (graceful or straggler-waited), no row may still be
    ``running`` under this owner's id — a leftover would mean a claim was
    neither committed, failed, nor released, i.e. a bookkeeping bug, which
    must fail the runner loudly rather than leave a row to time out.
    """
    leftovers = [
        row["cell"]
        for row in store.rows()
        if row["status"] == "running"
        and store.bookkeeping(str(row["cell"])).get("owner") == owner
    ]
    if leftovers:
        raise StoreCorruptionError(
            f"runner {owner!r} exited holding live claims: {leftovers!r}"
        )


def to_experiment_table(
    store: ResultStore,
    experiment_id: str = "SWEEP",
    title: Optional[str] = None,
):
    """Render a store as an :class:`~repro.experiments.harness.ExperimentTable`.

    The bridge between the sweep subsystem and the experiment harness: E12
    returns one, and the CLI's ``show`` command renders one.
    """
    from ..experiments.harness import ExperimentTable
    from .store import COLUMNS

    table = ExperimentTable(
        experiment_id=experiment_id,
        title=title or "sweep results",
        columns=list(COLUMNS),
    )
    for row in store.rows():
        table.add_row(**row)
    return table
