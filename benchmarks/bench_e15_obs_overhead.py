"""Benchmark E15 — zero-cost observability when tracing is disabled.

Every engine run goes through one seam, :meth:`Simulator.run_seeds`, where a
single wrapper adds run spans and profiler records.  The wrapper decides once
per *ensemble*: with no tracer or profiler installed it makes one plain call
into the engine's seed loop, so the per-run path carries no instrumentation
branch at all.  This benchmark pins that contract.

It replicates the plain compiled loop body inline (counts buffer reuse, the
stepper call, the result construction — the code the disabled path executes,
without the seam's per-ensemble dispatch) as the baseline, on the very
stepper the engine runs (native or generated) and handing it the seed the
way the engine does, then interleaves
it against the real entry point with tracing and profiling off.  Best-of-N on
both sides, same machine, same buffers; the real entry point may cost at most
2% more — the acceptance budget from the obs design.

A second round flips tracing ON (into an in-memory capture) to report —
not assert — the enabled cost, so EXPERIMENTS.md regenerations show what a
traced run pays.
"""

import random
import time

from conftest import report

from repro.experiments.harness import ExperimentTable
from repro.obs import profile as obs_profile
from repro.obs import trace as obs_trace
from repro.simulation import SimulationResult, Simulator
from repro.simulation.compiled import OUT_ONE, OUT_UNDEFINED, OUT_ZERO
from repro.sweep.spec import build_protocol_and_inputs

POPULATION = 300
REPETITIONS = 24
MAX_STEPS = 4000
STABILITY_WINDOW = 200
ROUNDS = 9
MAX_DISABLED_OVERHEAD = 1.02


def _baseline_loop(simulator, configuration, seeds):
    """The plain serial compiled loop, replicated inline (no seam calls)."""
    engine = simulator._engine
    net, stepper, classes = engine.net, engine.stepper, engine.classes
    buffer = net.counts_of(configuration)
    results = []
    for seed in seeds:
        counts = net.counts_of(configuration, out=buffer)
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
        steps, value, since, terminated = stepper(
            counts, seed, MAX_STEPS, STABILITY_WINDOW, one, zero, undef
        )
        results.append(SimulationResult(
            initial=configuration,
            final=net.configuration_of(counts),
            steps=steps,
            consensus=value if value >= 0 else None,
            consensus_step=since if since >= 0 else None,
            terminated=terminated,
            interactions_sampled=steps,
        ))
    return results


def _instrumented_entry(simulator, configuration, seeds):
    return simulator.run_seeds(
        configuration, seeds, MAX_STEPS, STABILITY_WINDOW
    )


def run_overhead_experiment():
    protocol, inputs = build_protocol_and_inputs("majority", POPULATION, {})
    simulator = Simulator(protocol, seed=7)
    configuration = protocol.initial_configuration(inputs)
    assert simulator._engine.name != "reference", "compiled engine required for E15"
    assert not obs_trace.tracing_active()
    assert obs_profile.active_profiler() is None
    seeds = [random.Random(2022).getrandbits(64) for _ in range(REPETITIONS)]

    # Warm both paths (JIT-free, but touches allocators and branch caches).
    _baseline_loop(simulator, configuration, seeds)
    _instrumented_entry(simulator, configuration, seeds)

    baseline_best = entry_best = float("inf")
    baseline_results = entry_results = None
    for _ in range(ROUNDS):
        start = time.perf_counter()
        baseline_results = _baseline_loop(simulator, configuration, seeds)
        baseline_best = min(baseline_best, time.perf_counter() - start)
        start = time.perf_counter()
        entry_results = _instrumented_entry(simulator, configuration, seeds)
        entry_best = min(entry_best, time.perf_counter() - start)

    # Enabled cost, reported for context: divert spans into a buffer so the
    # measurement excludes disk.
    with obs_trace.capture_events():
        start = time.perf_counter()
        _instrumented_entry(simulator, configuration, seeds)
        traced_seconds = time.perf_counter() - start

    table = ExperimentTable(
        experiment_id="E15-obs-overhead",
        title=f"obs overhead, {REPETITIONS}-rep compiled serial ensemble",
        columns=["mode", "best seconds", "overhead"],
        notes=(
            "baseline replicates the plain loop body inline; 'disabled' is "
            "the real run_seeds entry with no tracer/profiler installed "
            f"(budget {MAX_DISABLED_OVERHEAD}x); 'traced' captures spans "
            "in memory and is informational"
        ),
    )
    table.add_row(mode="baseline", **{"best seconds": baseline_best,
                                      "overhead": 1.0})
    table.add_row(mode="disabled", **{"best seconds": entry_best,
                                      "overhead": entry_best / baseline_best})
    table.add_row(mode="traced", **{"best seconds": traced_seconds,
                                    "overhead": traced_seconds / baseline_best})
    return table, baseline_results, entry_results


def test_bench_e15_obs_overhead(benchmark):
    table, baseline_results, entry_results = benchmark.pedantic(
        run_overhead_experiment, rounds=1, iterations=1
    )

    # Instrumentation must not perturb the simulation: identical results.
    assert entry_results == baseline_results

    overhead = table.rows[1]["overhead"]
    assert overhead <= MAX_DISABLED_OVERHEAD, (
        f"disabled observability added {overhead:.3f}x overhead "
        f"(budget {MAX_DISABLED_OVERHEAD}x)"
    )
    report(table)
