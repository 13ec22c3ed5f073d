"""The serial stepping workloads: ``ensemble-small`` and ``counting-large``.

Both time ``Simulator.run_many`` in short slices, each between two probe
slices, and scale the slice time by the probe (see ``common.Probe``).  A
*lane* is one simulator timed slice after slice: its master generator
advances from slice to slice, so the whole run is a pure function of
``--seed``.
"""

import random
import statistics
import time
from dataclasses import dataclass, field, replace
from typing import Callable, List, Optional

from common import Outcome, Probe, peak_rss_mb, scaled_time

from repro.core.configuration import Configuration
from repro.protocols import (
    flock_of_birds_predicate,
    flock_of_birds_protocol,
    majority_protocol,
    succinct_leaderless_predicate,
    succinct_leaderless_protocol,
)
from repro.protocols.majority import STATE_A, STATE_B
from repro.simulation import Simulator

SUCCINCT_THRESHOLD = 10 ** 12
FLOCK_THRESHOLD = 50

#: Probe-scaling exponent of each set-up part, as for the lanes: codegen is
#: interpreter work, the vectorized build mostly NumPy.
PART_EXPONENTS = {
    "protocols.build_s": 1.0,
    "simulation.codegen_s": 1.0,
    "simulation.vectorized_build_s": 0.5,
}


@dataclass(frozen=True)
class Family:
    """How to build one protocol, its inputs and the predicate it computes."""

    build: Callable
    inputs: Callable
    predicate: Optional[Callable] = None


def _majority_inputs(protocol):
    # The sweep registry's default a_fraction of 2/3 at population 1000.
    return Configuration({STATE_A: 667, STATE_B: 333})


FAMILIES = {
    "majority": Family(majority_protocol, _majority_inputs),
    "succinct": Family(
        lambda: succinct_leaderless_protocol(SUCCINCT_THRESHOLD),
        lambda protocol: protocol.counting_input(1000),
        lambda: succinct_leaderless_predicate(SUCCINCT_THRESHOLD),
    ),
    "flock": Family(
        lambda: flock_of_birds_protocol(FLOCK_THRESHOLD),
        lambda protocol: protocol.counting_input(300),
        lambda: flock_of_birds_predicate(FLOCK_THRESHOLD),
    ),
}


@dataclass
class Lane:
    """One stepping configuration and the slices timed on it."""

    name: str
    family: str
    engine: str
    reps: int
    max_steps: int
    window: int
    #: Budget of the untimed reference-engine replay of sampled slices.
    replay_steps: int
    #: Exponent of the probe scaling: 1 for the interpreter-bound compiled
    #: stepper, 0.5 for the NumPy engines, whose native loops the probe
    #: tracks only in part (see README.md, "Machine probe").
    exponent: float
    #: Name of the lane whose slices this one repeats with the same seeds.
    twin_of: Optional[str] = None
    simulator: object = None
    inputs: object = None
    #: The consensus every run must reach; None for budget-bound lanes,
    #: whose runs must all stop at ``max_steps`` instead.
    expected: Optional[int] = None
    steps: int = 0
    runs: int = 0
    raw_s: float = 0.0
    scaled_s: float = 0.0
    attempted: int = 0
    failed: int = 0
    #: (generator state, results) of the latest slice, for the twin lane.
    last: tuple = None
    #: Generator states of the slices kept for the reference replay.
    replays: List = field(default_factory=list)

    def run_slice(self, probe, tracer, twin, keep):
        """Time one ``run_many`` call and check its runs (untimed)."""
        if twin is not None:
            self.simulator.rng.setstate(twin.last[0])
        state = self.simulator.rng.getstate()

        def call():
            with tracer.span("run_many", "simulation", lane=self.name):
                return self.simulator.run_many(
                    self.inputs, self.reps,
                    max_steps=self.max_steps, stability_window=self.window,
                )

        results, elapsed, rate = probe.timed(call)
        self.steps += sum(result.steps for result in results)
        self.runs += len(results)
        self.raw_s += elapsed
        self.scaled_s += scaled_time(elapsed, rate, self.exponent)
        self.last = state, results
        if keep:
            self.replays.append(state)
        # A run fails when it misses the lane's expected outcome or differs
        # from the same seed on the twin lane.
        for position, result in enumerate(results):
            if self.expected is None:
                ok = result.steps == self.max_steps
            else:
                ok = result.consensus == self.expected
            if twin is not None:
                ok = ok and result == twin.last[1][position]
            self.attempted += 1
            self.failed += not ok

    def replay(self):
        """Replay the kept slices on the reference engine at a reduced budget.

        Each must equal the lane's own engine at that budget, seed for seed
        (the first two seeds of the slice).
        """
        for state in self.replays:
            outcomes = []
            for engine in ("reference", self.engine):
                simulator = Simulator(self.simulator.protocol, engine=engine)
                simulator.rng.setstate(state)
                outcomes.append(simulator.run_many(
                    self.inputs, 2, max_steps=self.replay_steps,
                    stability_window=min(self.window, self.replay_steps),
                ))
            self.attempted += 2
            self.failed += sum(a != b for a, b in zip(*outcomes))


def ensemble_small_lanes():
    # Majority at 1000 agents with a 2/3 A-share never reaches a stable
    # consensus within 50000 steps, so every run is budget-bound: pure
    # stepping of 4 transitions, no selection cost.
    return [
        Lane("majority", "majority", "compiled", reps=2, max_steps=50000,
             window=200, replay_steps=3000, exponent=1.0),
    ]


def counting_large_lanes():
    return [
        # Succinct at 10^12 with 1000 agents: the predicate is false and every
        # reachable state outputs 0, so a window equal to the budget keeps
        # each run stepping to max_steps with consensus 0.
        Lane("succinct", "succinct", "compiled", reps=2, max_steps=20000,
             window=20000, replay_steps=1500, exponent=1.0),
        # Flock at 50 with 300 agents: a window of 5000 steps outlasts the
        # ~1000-1500 steps to first acceptance, so runs stop at the true
        # 1-consensus rather than a premature 0-consensus.
        Lane("flock-numpy", "flock", "auto", reps=4, max_steps=60000,
             window=5000, replay_steps=300, exponent=0.5),
        Lane("flock-ensemble", "flock", "ensemble", reps=4, max_steps=60000,
             window=5000, replay_steps=300, exponent=0.5, twin_of="flock-numpy"),
    ]


LANES = {"ensemble-small": ensemble_small_lanes, "counting-large": counting_large_lanes}

#: Fresh set-ups timed between measurement rounds, as (every how many
#: rounds, set-ups per batch).  ``setup_s`` is their median.
SETUP_BATCHES = {"ensemble-small": (3, 4), "counting-large": (2, 1)}

#: Slices per lane replayed on the reference engine.
REPLAYED_SLICES = 2


class SetUps:
    """Times batches of fresh set-ups, each batch between two probe slices."""

    def __init__(self, tracer, probe):
        self.tracer = tracer
        self.probe = probe
        self.raw = []
        self.scaled = []
        self.parts = {}

    def batch(self, lanes, rng, count):
        timed, _, rate = self.probe.timed(lambda: [
            _timed_set_up(lanes, rng.getrandbits(64), self.tracer) for _ in range(count)
        ])
        for elapsed, parts in timed:
            scaled = {
                key: scaled_time(value, rate, PART_EXPONENTS[key])
                for key, value in parts.items()
            }
            glue = elapsed - sum(parts.values())
            self.raw.append(elapsed)
            self.scaled.append(scaled_time(glue, rate, 1.0) + sum(scaled.values()))
            for key, value in scaled.items():
                self.parts.setdefault(key, []).append(value)


def _timed_set_up(lanes, seed, tracer):
    """One fresh set-up: (elapsed seconds, seconds per layer)."""
    parts = dict.fromkeys(PART_EXPONENTS, 0.0)
    start = time.perf_counter()
    with tracer.span("setup", "bench", root=True):
        _set_up(lanes, seed, tracer, parts)
    return time.perf_counter() - start, parts


def _set_up(lanes, seed, tracer, parts):
    """Build fresh protocols and simulators for every lane.

    Fresh protocol objects each time, so the per-net ``compiled()`` /
    ``vectorized()`` caches start empty.  The ensemble engine builds its
    lock-step tables on its first ``run_many``, so a one-step warm-up call
    belongs to set-up too.
    """
    protocols = {}
    for lane in lanes:
        if lane.family not in protocols:
            family = FAMILIES[lane.family]
            start = time.perf_counter()
            with tracer.span("build", "protocols", family=lane.family):
                protocol = family.build()
                inputs = family.inputs(protocol)
            parts["protocols.build_s"] += time.perf_counter() - start
            protocols[lane.family] = protocol, inputs
        protocol, inputs = protocols[lane.family]
        part = "simulation.codegen_s" if lane.engine == "compiled" else "simulation.vectorized_build_s"
        start = time.perf_counter()
        with tracer.span("construct", "simulation", engine=lane.engine):
            lane.simulator = Simulator(protocol, seed=seed, engine=lane.engine)
            if lane.engine == "ensemble":
                lane.simulator.run_many(inputs, 1, max_steps=1)
        parts[part] += time.perf_counter() - start
        lane.inputs = inputs
        family = FAMILIES[lane.family]
        lane.expected = (
            family.predicate().evaluate(inputs) if family.predicate else None
        )


def run(name, seed, seconds, tracer):
    lanes = LANES[name]()
    by_name = {lane.name: lane for lane in lanes}
    rng = random.Random(seed)
    probe = Probe(tracer)
    layers = {}

    # -- set-up: the measured lanes' own, then more between rounds ----------
    # Fresh set-ups are spread over the whole run, so their median sees the
    # same mix of machine speeds as the stepping does.
    every, per_batch = SETUP_BATCHES[name]
    setups = SetUps(tracer, probe)
    setups.batch(lanes, rng, 1)

    # -- measurement: rounds of one slice per lane until the deadline --------
    # In a traced run, even rounds record spans and odd rounds do not, so the
    # same run yields the traced-minus-untraced difference.  Two of the first
    # four slices of each lane are kept for the reference replay; nothing
    # else outlives its slice, so memory does not grow with the round count.
    kept = set(rng.sample(range(4), REPLAYED_SLICES))
    deadline = time.perf_counter() + seconds
    rounds = 0
    round_rates = {True: [], False: []}
    while rounds == 0 or time.perf_counter() < deadline:
        traced = tracer.enabled and rounds % 2 == 0
        if rounds % every == every - 1:
            setups.batch([replace(lane) for lane in lanes], rng, per_batch)
        before = sum(lane.steps for lane in lanes), sum(lane.scaled_s for lane in lanes)
        with tracer.span("round", "bench", root=True, traced=traced):
            for lane in lanes:
                lane.run_slice(probe, tracer, by_name.get(lane.twin_of), rounds in kept)
        round_rates[traced].append(
            (sum(lane.steps for lane in lanes) - before[0])
            / (sum(lane.scaled_s for lane in lanes) - before[1])
        )
        rounds += 1

    # Peak memory of the workload itself, before the checks run.
    rss_mb = peak_rss_mb()

    # -- output checks (untimed) ----------------------------------------------
    for lane in lanes:
        lane.replay()

    steps = sum(lane.steps for lane in lanes)
    raw = sum(lane.raw_s for lane in lanes)
    scaled = sum(lane.scaled_s for lane in lanes)
    runs = sum(lane.runs for lane in lanes)
    for key, values in setups.parts.items():
        layers[key] = statistics.median(values)
    layers["setup.samples"] = len(setups.scaled)
    e2e = {
        "transitions_per_s": steps / scaled,
        "ops_per_s": runs / scaled,
        "setup_s": statistics.median(setups.scaled),
        "peak_rss_mb": rss_mb,
    }
    for lane in lanes:
        layers[f"stepper.{lane.name}.transitions_per_s"] = lane.steps / lane.scaled_s
    q1, q2, q3 = probe.quartiles()
    layers.update({
        "machine.probe_ops_per_s": q2,
        "machine.probe_q1_ops_per_s": q1,
        "machine.probe_q3_ops_per_s": q3,
        "machine.raw_transitions_per_s": steps / raw,
    })
    if round_rates[True] and round_rates[False]:
        traced_rate = statistics.median(round_rates[True])
        untraced_rate = statistics.median(round_rates[False])
        layers["trace.overhead"] = (untraced_rate - traced_rate) / untraced_rate
    return Outcome(
        e2e=e2e, layers=layers,
        attempted=sum(lane.attempted for lane in lanes),
        failed=sum(lane.failed for lane in lanes),
        diag={
            "rounds": rounds,
            "probe_quartiles": [q1, q2, q3],
            "raw": {
                "transitions_per_s": steps / raw,
                "ops_per_s": runs / raw,
                "setup_s": statistics.median(setups.raw),
            },
        },
    )
