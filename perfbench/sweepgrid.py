"""The ``sweep-grid`` workload: ``SweepRunner.run`` over a process pool.

A grid of 160 small cells (majority, modulo, succinct and flock, two
parameter sets each, ten populations, uniform and transition schedulers,
analytics on) runs with the process backend and 2 workers into a CSV store.
Rounds of the whole grid, each with its own master seed and a fresh store,
repeat until the time is up.  Times are raw: the machine probe tracks
pure-Python loops, not pool dispatch and fsync (see README.md).

The store is metered from outside: its public ``flush``, ``mark_running``
and ``mark_done`` methods are wrapped on the instance, which yields the flush
count, time and bytes, and each cell's wall time from ``mark_running`` to
the flush that commits it.
"""

import os
import random
import shutil
import statistics
import time

from common import Outcome, peak_rss_mb, percentile

from repro.analytics.ensemble import aggregate_run_metrics
from repro.analytics.metrics import AnalyticsSpec
from repro.simulation import Simulator
from repro.simulation.statistics import summarize_runs
from repro.sweep import (
    CsvResultStore,
    MemoryResultStore,
    SweepRunner,
    SweepSpec,
    build_predicate_for,
    build_protocol_and_inputs,
)

WORKERS = 2
SETUPS_PER_ROUND = 3
CHECKED_CELLS_PER_ROUND = 3

GRID = dict(
    protocols=[
        ("majority", {}),
        ("majority", {"a_fraction": 0.4}),
        ("modulo", {}),
        ("modulo", {"modulus": 5, "remainder": 2}),
        ("succinct", {"threshold": 8}),
        ("succinct", {"threshold": 16}),
        ("flock", {"threshold": 5}),
        ("flock", {"threshold": 10}),
    ],
    populations=[20, 30, 40, 50, 60, 80, 100, 120, 150, 200],
    schedulers=["uniform", "transition"],
    repetitions=4,
    max_steps=4000,
    analytics=True,
)

#: One tiny cell: what a fresh sweep pays before its first real cell.
SETUP_GRID = dict(
    protocols=["majority"], populations=[20], repetitions=2, max_steps=500,
)

#: Store columns a direct re-run of a cell must reproduce exactly.
CHECKED_COLUMNS = (
    "runs", "converged", "convergence_rate", "mean_steps", "median_steps",
    "min_steps", "max_steps", "mean_consensus_step", "accuracy",
    "consensus_q10", "consensus_q50", "consensus_q90",
)


class MeteredStore:
    """Wraps a store instance's public methods to time flushes and cells."""

    def __init__(self, store, tracer):
        self.store = store
        self.tracer = tracer
        self.flushes = []
        self.bytes_written = 0
        #: Completed cells: dicts with start, end and flush seconds.
        self.cells = []
        self._open = None
        self._flush = store.flush
        self._mark_running = store.mark_running
        self._mark_done = store.mark_done
        store.flush = self.flush
        store.mark_running = self.mark_running
        store.mark_done = self.mark_done

    def mark_running(self, cell_id):
        self._open = {"cell": cell_id, "start": time.perf_counter(), "flushes": [], "done": False}
        self._mark_running(cell_id)

    def mark_done(self, cell_id, *args, **kwargs):
        self._mark_done(cell_id, *args, **kwargs)
        self._open["done"] = True

    def flush(self):
        start = time.perf_counter()
        self._flush()
        end = time.perf_counter()
        self.flushes.append(end - start)
        self.bytes_written += os.path.getsize(self.store.path)
        cell = self._open
        if cell is None:
            self._trace_flush(start, end, self.tracer.current())
            return
        cell["flushes"].append((start, end))
        if cell["done"]:
            cell["end"] = end
            self.cells.append(cell)
            self._open = None
            parent = self.tracer.current()
            if parent is not None:
                span = self.tracer.record("cell", "sweep", cell["start"], end, parent)
                for lo, hi in cell["flushes"]:
                    self._trace_flush(lo, hi, span)

    def _trace_flush(self, start, end, parent):
        if parent is not None:
            self.tracer.record("flush", "store", start, end, parent)


def _sweep(spec, directory, tracer):
    os.makedirs(directory)
    store = CsvResultStore(os.path.join(directory, "store.csv"))
    meter = MeteredStore(store, tracer)
    runner = SweepRunner(spec, store, backend="process", max_workers=WORKERS)
    with tracer.span("run", "sweep"):
        # Failed cells stay in the table as error rows and count as failed.
        runner.run(on_error="continue")
    return store, meter


def run(seed, seconds, tracer, workdir):
    rng = random.Random(seed)
    setup_times = []
    rounds = []
    sampled = []
    attempted = failed = 0

    # Whole-grid rounds until the deadline, each preceded by fresh one-cell
    # sweeps timed as set-up samples (pool spawn, worker init, first cell),
    # so the set-up median sees the same stretch of machine time.  Only
    # summaries and the rows sampled for checking outlive a round, which
    # keeps this process's memory, and so the pool workers forked from it,
    # the same size whatever the number of rounds.
    deadline = time.perf_counter() + seconds
    while not rounds or time.perf_counter() < deadline:
        for _ in range(SETUPS_PER_ROUND):
            spec = SweepSpec(master_seed=rng.getrandbits(32), **SETUP_GRID)
            with tracer.span("setup", "bench", root=True):
                start = time.perf_counter()
                _sweep(spec, os.path.join(workdir, f"setup-{len(setup_times)}"), tracer)
                setup_times.append(time.perf_counter() - start)
        spec = SweepSpec(master_seed=rng.getrandbits(32), **GRID)
        traced = tracer.enabled and len(rounds) % 2 == 0
        directory = os.path.join(workdir, f"round-{len(rounds)}")
        with tracer.span("round", "bench", root=True, traced=traced):
            store, meter = _sweep(spec, directory, tracer)
        rows = {row["cell"]: row for row in store.rows()}
        attempted += len(rows)
        failed += sum(
            row["status"] != "done" or row["runs"] != spec.repetitions
            for row in rows.values()
        )
        for cell in rng.sample(spec.cells(), CHECKED_CELLS_PER_ROUND):
            sampled.append((spec, cell, rows[cell.cell_id]))
        rounds.append(_round_summary(meter, rows, traced))
        del store, meter, rows
        shutil.rmtree(directory)

    # Peak memory of the workload itself, before the checks run.
    rss_mb = peak_rss_mb()

    # -- output checks (untimed): direct re-runs of the sampled cells --------
    check_times = {True: 0.0, False: 0.0}
    for spec, cell, row in sampled:
        attempted += 1
        failed += not _matches_direct(spec, cell, row, check_times)

    # -- metrics: medians over rounds, each without its first cell ----------
    cell_walls = [wall for summary in rounds for wall in summary["walls"]]
    flush_total = sum(summary["cell_flush_s"] for summary in rounds)
    exec_total = sum(summary["exec_s"] for summary in rounds)
    e2e = {
        "transitions_per_s": statistics.median(r["steps"] / r["elapsed"] for r in rounds),
        "ops_per_s": statistics.median(r["cells"] / r["elapsed"] for r in rounds),
        "setup_s": statistics.median(setup_times),
        "peak_rss_mb": rss_mb,
    }
    layers = {
        "setup.samples": len(setup_times),
        "sweep.store_flush_s": sum(r["flush_s"] for r in rounds),
        "sweep.store_flush_count": sum(r["flush_count"] for r in rounds),
        "sweep.store_bytes_written": sum(r["bytes"] for r in rounds),
        "sweep.store_share": flush_total / (flush_total + exec_total),
        "sweep.cell_p50_s": percentile(cell_walls, 0.5),
        "sweep.cell_p90_s": percentile(cell_walls, 0.9),
        "sweep.cells": len(cell_walls),
        "sweep.exec_s": exec_total,
        "analytics.extract_share": (
            (check_times[True] - check_times[False]) / check_times[True]
        ),
    }
    rates = {
        traced: [r["cells"] / r["elapsed"] for r in rounds if r["traced"] == traced]
        for traced in (True, False)
    }
    if rates[True] and rates[False]:
        traced_rate = statistics.median(rates[True])
        untraced_rate = statistics.median(rates[False])
        layers["trace.overhead"] = (untraced_rate - traced_rate) / untraced_rate
    return Outcome(
        e2e=e2e, layers=layers, attempted=attempted, failed=failed,
        diag={
            "rounds": len(rounds),
            "round_rates": [r["cells"] / r["elapsed"] for r in rounds],
            "setup_s": setup_times,
        },
    )


def _round_summary(meter, rows, traced):
    """One round's figures, from its second committed cell on.

    The first cell spawns the pool, so it belongs to set-up; the round's
    rate is its other cells over the time from the first commit to the last.
    """
    committed = meter.cells[1:]
    walls = [cell["end"] - cell["start"] for cell in committed]
    in_flush = [sum(hi - lo for lo, hi in cell["flushes"]) for cell in committed]
    return {
        "traced": traced,
        "cells": len(committed),
        "elapsed": committed[-1]["end"] - meter.cells[0]["end"],
        "steps": sum(
            round(rows[cell["cell"]]["mean_steps"] * rows[cell["cell"]]["runs"])
            for cell in committed
        ),
        "walls": walls,
        "cell_flush_s": sum(in_flush),
        "exec_s": sum(walls) - sum(in_flush),
        "flush_s": sum(meter.flushes),
        "flush_count": len(meter.flushes),
        "bytes": meter.bytes_written,
    }


def _matches_direct(spec, cell, row, check_times):
    """Re-run one cell serially from ``spec.cell_seed(cell)`` and compare.

    The direct run is timed with and without analytics extraction, which
    gives the analytics layer's share of a cell's simulation time.
    """
    protocol, inputs = build_protocol_and_inputs(cell.protocol, cell.population, cell.params)
    predicate = build_predicate_for(cell.protocol, cell.population, cell.params)
    analytics = AnalyticsSpec(
        histogram=True, consensus_times=True,
        expected_output=predicate.evaluate(inputs),
    )
    results = {}
    for with_analytics in (False, True):
        simulator = Simulator(
            protocol, scheduler=cell.make_scheduler(),
            seed=spec.cell_seed(cell), engine=cell.engine,
        )
        start = time.perf_counter()
        results[with_analytics] = simulator.run_many(
            inputs, spec.repetitions, max_steps=spec.max_steps,
            stability_window=spec.stability_window,
            analytics=analytics if with_analytics else None,
        )
        check_times[with_analytics] += time.perf_counter() - start
    direct = results[True]
    aggregated = aggregate_run_metrics(
        [result.analytics for result in direct], quantile_points=(0.1, 0.5, 0.9)
    )
    expected = MemoryResultStore()
    expected.ensure(cell.cell_id, cell.keyfields(), spec.cell_seed(cell))
    expected.mark_done(
        cell.cell_id, summarize_runs(direct), accuracy=aggregated.accuracy,
        consensus_quantiles=aggregated.stable_consensus_quantiles,
    )
    want = expected.get(cell.cell_id)
    plain = [
        (r.steps, r.consensus, r.consensus_step, r.final) for r in results[False]
    ]
    return plain == [
        (r.steps, r.consensus, r.consensus_step, r.final) for r in direct
    ] and all(row[column] == want[column] for column in CHECKED_COLUMNS)
