"""Job specs, content-addressed keys, and execution for :mod:`repro.serve`.

A *job* is one simulation ensemble: a (protocol, params, population,
scheduler, engine) point plus the run policy (repetitions, master seed, step
budget, analytics flag).  That is exactly a 1×1×1×1 sweep grid, and this
module leans on that equivalence instead of re-implementing validation or
seeding:

* :class:`JobSpec` validates by constructing the corresponding single-cell
  :class:`~repro.sweep.spec.SweepSpec` — every rejection rule of the sweep
  layer (unknown protocols/params/schedulers/engines, non-integral scalars,
  params that don't survive a JSON round trip) applies to served jobs for
  free, with the same error messages,
* the job's **content key** is the SHA-256 of the cell's canonical identity
  string (:attr:`~repro.sweep.spec.SweepCell.cell_id`) extended with the run
  policy — two requests that mean the same ensemble hash to the same key no
  matter how the JSON was spelled (key order, ``"NumPy"`` vs ``"numpy"``,
  defaults omitted vs written out), which is what makes the server's result
  cache content-addressed rather than merely request-addressed,
* the ensemble seed is :func:`~repro.sweep.spec.derive_cell_seed` over the
  cell's engine-free seed scope, and the per-repetition seeds are drawn from
  it exactly like the sweep runner draws them — so a served job, the
  equivalent sweep cell, and a direct
  :meth:`~repro.simulation.simulator.Simulator.run_many` with
  ``seed=ensemble_seed`` are all bit-identical.

:class:`JobExecutor` is the blocking run half: it caches built protocols,
inputs, predicates and pickled worker specs per identity (the serve analogue
of the sweep runner's per-cell caches), and fans each job over one shared
:class:`~repro.simulation.batch.WorkerPool` (or a cached serial simulator).
It is thread-safe — the server calls it from several executor threads.
"""

from __future__ import annotations

import hashlib
import random
import threading
from dataclasses import dataclass, field
from typing import Any, Dict, List, Mapping, Optional, Tuple

from ..core.configuration import Configuration
from ..core.predicates import Predicate
from ..core.protocol import Protocol
from ..simulation.batch import WorkerPool, _dumps_for_workers
from ..simulation.scheduler import Scheduler
from ..simulation.simulator import SimulationResult, Simulator
from ..simulation.statistics import accuracy_against_predicate, summarize_runs
from ..simulation.trajectory import DEFAULT_TRAJECTORY_CAPACITY
from ..sweep.spec import SweepCell, SweepSpec

__all__ = ["JobExecutor", "JobSpec"]

#: The JSON fields a job submission may carry (mirrors the
#: :meth:`JobSpec.from_dict` contract; unknown fields are rejected so typos
#: fail loudly instead of silently running the default).
JOB_FIELDS = (
    "protocol",
    "params",
    "population",
    "scheduler",
    "engine",
    "repetitions",
    "master_seed",
    "max_steps",
    "stability_window",
    "analytics",
)


@dataclass(frozen=True)
class JobSpec:
    """One validated, normalized simulation-ensemble request.

    Construction normalizes (name case/whitespace, integral floats, default
    filling) and validates via the sweep layer; after ``__init__`` every
    field holds its canonical value, so equality, :attr:`key` and
    :meth:`to_dict` all operate on normal forms.  Invalid specs raise
    :class:`ValueError` with the sweep layer's messages.
    """

    protocol: str
    population: int
    params: Mapping[str, object] = field(default_factory=dict)
    scheduler: str = "uniform"
    engine: str = "auto"
    repetitions: int = 8
    master_seed: int = 0
    max_steps: int = 100000
    stability_window: int = 200
    analytics: bool = False

    def __post_init__(self) -> None:
        for name in ("protocol", "scheduler", "engine"):
            value = getattr(self, name)
            if not isinstance(value, str):
                raise ValueError(f"job {name} must be a string, got {value!r}")
            object.__setattr__(self, name, value.strip().lower())
        if not isinstance(self.params, Mapping):
            raise ValueError(
                f"job params must be a mapping, got {type(self.params).__name__}"
            )
        spec = SweepSpec(
            protocols=[(self.protocol, dict(self.params))],
            populations=[self.population],
            schedulers=[self.scheduler],
            engines=[self.engine],
            repetitions=self.repetitions,
            master_seed=self.master_seed,
            max_steps=self.max_steps,
            stability_window=self.stability_window,
            analytics=bool(self.analytics),
        )
        # Read the normalized scalars back out of the validated spec, so a
        # job submitted with e.g. ``population: 25.0`` is field-identical
        # (and therefore key-identical) to one submitted with ``25``.
        _, params = spec.protocols[0]
        object.__setattr__(self, "params", params)
        object.__setattr__(self, "population", spec.populations[0])
        object.__setattr__(self, "repetitions", spec.repetitions)
        object.__setattr__(self, "master_seed", spec.master_seed)
        object.__setattr__(self, "max_steps", spec.max_steps)
        object.__setattr__(self, "stability_window", spec.stability_window)
        object.__setattr__(self, "analytics", spec.analytics)
        object.__setattr__(self, "_spec", spec)
        object.__setattr__(self, "_cell", spec.cells()[0])

    # ------------------------------------------------------------------
    # Identity
    # ------------------------------------------------------------------
    @property
    def sweep_spec(self) -> SweepSpec:
        """The equivalent single-cell sweep spec (the validation carrier)."""
        return self._spec  # type: ignore[attr-defined]

    @property
    def cell(self) -> SweepCell:
        """The job as a sweep cell — the canonical-identity anchor."""
        return self._cell  # type: ignore[attr-defined]

    @property
    def identity(self) -> str:
        """The canonical identity string the content key hashes.

        The cell identity (protocol, canonical params JSON, population,
        scheduler, engine) extended with every run-policy field.  Anything
        that can change the served payload is in here; anything that cannot
        (submission order, JSON spelling, client identity) is not.
        """
        cell = self.cell
        return (
            f"{cell.cell_id};repetitions={self.repetitions};"
            f"master_seed={self.master_seed};max_steps={self.max_steps};"
            f"stability_window={self.stability_window};"
            f"analytics={str(self.analytics).lower()}"
        )

    @property
    def key(self) -> str:
        """The content-address of this job: ``sha256(identity)`` hex.

        Doubles as the job id in the HTTP API, so polling URLs are stable
        across resubmissions and across server restarts.
        """
        return hashlib.sha256(self.identity.encode("utf-8")).hexdigest()

    @property
    def ensemble_seed(self) -> int:
        """The 64-bit master seed of the ensemble (the sweep cell seed).

        Derived from the engine-free seed scope, so jobs differing only in
        engine run the same seeds — and must report identical statistics,
        the same cross-engine agreement check sweeps get.
        """
        return self.sweep_spec.cell_seed(self.cell)

    def repetition_seeds(self) -> List[int]:
        """The per-repetition seeds, exactly as the sweep runner draws them."""
        master = random.Random(self.ensemble_seed)
        return [master.getrandbits(64) for _ in range(self.repetitions)]

    # ------------------------------------------------------------------
    # Serialization
    # ------------------------------------------------------------------
    def to_dict(self) -> Dict[str, object]:
        """The normalized spec as a JSON-ready mapping (round-trips)."""
        return {
            "protocol": self.protocol,
            "params": dict(self.params),
            "population": self.population,
            "scheduler": self.scheduler,
            "engine": self.engine,
            "repetitions": self.repetitions,
            "master_seed": self.master_seed,
            "max_steps": self.max_steps,
            "stability_window": self.stability_window,
            "analytics": self.analytics,
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, object]) -> "JobSpec":
        """Build a spec from a submission payload, rejecting unknown fields."""
        if not isinstance(data, Mapping):
            raise ValueError(
                f"a job submission must be a JSON object, got {type(data).__name__}"
            )
        unknown = set(data) - set(JOB_FIELDS)
        if unknown:
            raise ValueError(f"unknown job fields: {sorted(unknown, key=str)}")
        if "protocol" not in data or "population" not in data:
            raise ValueError("a job needs 'protocol' and 'population'")
        return cls(**{str(key): value for key, value in data.items()})


class JobExecutor:
    """Runs validated jobs over one shared pool, with per-identity caches.

    The blocking half of the server: consumer tasks hand jobs to
    :meth:`run` on executor threads while the event loop keeps serving
    polls.  Mirrors the sweep runner's per-cell caches (protocol, inputs,
    predicate, analytics spec, scheduler, pickled worker spec, serial
    simulator) behind one build lock so concurrent jobs never race a
    half-built protocol; actual ensemble execution serializes on the pool's
    own dispatch lock (process backend) or this executor's serial lock
    (``pool=None``), matching the one-ensemble-at-a-time discipline of the
    sweep layer.
    """

    def __init__(
        self,
        pool: Optional[WorkerPool] = None,
        timeout: Optional[float] = None,
    ) -> None:
        self._pool = pool
        self._timeout = timeout
        self._build_lock = threading.Lock()
        self._serial_lock = threading.Lock()
        self._built: Dict[Tuple[str, str, int], Tuple[Protocol, Configuration]] = {}
        self._predicates: Dict[Tuple[str, str, int], Optional[Predicate]] = {}
        self._analytics: Dict[Tuple[str, str, int], Any] = {}
        self._schedulers: Dict[str, Scheduler] = {}
        self._spec_bytes: Dict[Tuple[str, str, str, str], bytes] = {}
        self._serial: Dict[Tuple[str, str, str, str], Simulator] = {}

    # ------------------------------------------------------------------
    # Caches (all under the build lock)
    # ------------------------------------------------------------------
    def _grid_key(self, cell: SweepCell) -> Tuple[str, str, int]:
        return (cell.protocol, cell.params_json, cell.population)

    def _spec_key(self, cell: SweepCell) -> Tuple[str, str, str, str]:
        return (cell.protocol, cell.params_json, cell.scheduler, cell.engine)

    def _materialize(
        self, job: JobSpec
    ) -> Tuple[Protocol, Configuration, Scheduler, Optional[Predicate], Any]:
        cell = job.cell
        grid_key = self._grid_key(cell)
        with self._build_lock:
            built = self._built.get(grid_key)
            if built is None:
                built = cell.build()
                self._built[grid_key] = built
                self._predicates[grid_key] = cell.build_predicate()
            protocol, inputs = built
            predicate = self._predicates[grid_key]
            scheduler = self._schedulers.get(cell.scheduler)
            if scheduler is None:
                scheduler = cell.make_scheduler()
                self._schedulers[cell.scheduler] = scheduler
            analytics = None
            if job.analytics:
                analytics = self._analytics.get(grid_key)
                if analytics is None:
                    from ..analytics.metrics import AnalyticsSpec

                    expected = (
                        None if predicate is None else predicate.evaluate(inputs)
                    )
                    analytics = AnalyticsSpec(
                        histogram=True,
                        consensus_times=True,
                        expected_output=expected,
                    )
                    self._analytics[grid_key] = analytics
        return protocol, inputs, scheduler, predicate, analytics

    def _worker_spec_bytes(
        self, job: JobSpec, protocol: Protocol, scheduler: Scheduler
    ) -> bytes:
        key = self._spec_key(job.cell)
        with self._build_lock:
            payload = self._spec_bytes.get(key)
            if payload is None:
                payload = _dumps_for_workers((protocol, scheduler, job.engine))
                self._spec_bytes[key] = payload
            return payload

    def _serial_simulator(
        self, job: JobSpec, protocol: Protocol, scheduler: Scheduler
    ) -> Simulator:
        key = self._spec_key(job.cell)
        with self._build_lock:
            simulator = self._serial.get(key)
            if simulator is None:
                simulator = Simulator(
                    protocol, scheduler=scheduler, engine=job.engine
                )
                self._serial[key] = simulator
            return simulator

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def run(self, job: JobSpec) -> Dict[str, Any]:
        """Execute ``job`` and render its cacheable JSON result payload.

        Blocking; raises whatever the batch layer raises (typed worker
        crash/timeout errors included) — the server records those as a
        failed job and stays up.
        """
        protocol, inputs, scheduler, predicate, analytics = self._materialize(job)
        seeds = job.repetition_seeds()
        results = self._execute(job, protocol, inputs, scheduler, analytics, seeds)
        return self._render(job, inputs, predicate, analytics, seeds, results)

    def _execute(
        self,
        job: JobSpec,
        protocol: Protocol,
        inputs: Configuration,
        scheduler: Scheduler,
        analytics: Any,
        seeds: List[int],
    ) -> List[SimulationResult]:
        if self._pool is not None:
            return self._pool.run_seeds(
                protocol,
                inputs,
                seeds,
                scheduler=scheduler,
                engine=job.engine,
                max_steps=job.max_steps,
                stability_window=job.stability_window,
                analytics=analytics,
                spec_bytes=self._worker_spec_bytes(job, protocol, scheduler),
                timeout=self._timeout,
            )
        # Serial path: cached simulators hold mutable counts buffers, so
        # concurrent jobs must not share one mid-run.
        with self._serial_lock:
            simulator = self._serial_simulator(job, protocol, scheduler)
            configuration = protocol.initial_configuration(inputs)
            return simulator.run_seeds(
                configuration,
                seeds,
                job.max_steps,
                job.stability_window,
                False,
                DEFAULT_TRAJECTORY_CAPACITY,
                analytics,
            )

    def _render(
        self,
        job: JobSpec,
        inputs: Configuration,
        predicate: Optional[Predicate],
        analytics: Any,
        seeds: List[int],
        results: List[SimulationResult],
    ) -> Dict[str, Any]:
        statistics = summarize_runs(results)
        payload: Dict[str, Any] = {
            "job": job.key,
            "spec": job.to_dict(),
            "ensemble_seed": job.ensemble_seed,
            "statistics": {
                "runs": statistics.runs,
                "converged": statistics.converged,
                "convergence_rate": statistics.convergence_rate,
                "mean_steps": statistics.mean_steps,
                "median_steps": statistics.median_steps,
                "max_steps": statistics.max_steps,
                "min_steps": statistics.min_steps,
                "mean_consensus_step": statistics.mean_consensus_step,
            },
            "runs": [
                {
                    "seed": seed,
                    "steps": result.steps,
                    "consensus": result.consensus,
                    "consensus_step": result.consensus_step,
                    "converged": result.converged,
                    "terminated": result.terminated,
                    "interactions_sampled": result.interactions_sampled,
                }
                for seed, result in zip(seeds, results)
            ],
            "accuracy": (
                accuracy_against_predicate(results, predicate, inputs)
                if predicate is not None
                else None
            ),
            "analytics": (
                [dict(result.analytics or {}) for result in results]
                if analytics is not None
                else None
            ),
        }
        return payload
