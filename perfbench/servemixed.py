"""The ``serve-mixed`` workload: ``python -m repro.serve`` driven over HTTP.

The server runs as a subprocess (``--port 0 --workers 2``), started fresh
for each set-up sample; the last one serves the measurement.  Two client
threads in this process drive it in a closed loop: each submits its next
job only after the previous one completed.  A client's list is one
first-seen (cold) job followed by two repeats of its own completed cold
jobs, over and over, and the two clients' jobs never share a content key,
so every repeat is a cache hit and the server's hit counter is known in
advance.  Times are raw (see README.md).
"""

import hashlib
import json
import os
import random
import signal
import statistics
import subprocess
import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor

from common import Outcome, peak_rss_mb, percentile

from repro.serve.client import ServeClient
from repro.serve.jobs import JobSpec
from repro.simulation import Simulator
from repro.sweep import build_protocol_and_inputs

CLIENTS = 2
SETUPS_BEFORE = 4
SETUPS_AFTER = 4
REPEATS_PER_COLD = 2
#: Cold jobs per client per measured second, and the floor that keeps at
#: least 100 cold jobs and 200 hits in a run.
COLD_PER_CLIENT_PER_S = 5.5
MIN_COLD_PER_CLIENT = 50

#: Cold-job shapes, used in turn.  The window equals the budget, so each
#: run steps at most ``max_steps``: about 0.15 s of pool work per job, well
#: above the client's 50 ms poll interval.
TEMPLATES = (
    {"protocol": "majority", "population": 300, "repetitions": 8,
     "max_steps": 20000, "stability_window": 20000},
    {"protocol": "modulo", "population": 200, "repetitions": 8,
     "max_steps": 20000, "stability_window": 20000},
    {"protocol": "succinct", "params": {"threshold": 16}, "population": 100,
     "repetitions": 8, "max_steps": 6000, "stability_window": 6000},
    {"protocol": "flock", "params": {"threshold": 10}, "population": 60,
     "repetitions": 8, "max_steps": 8000, "stability_window": 8000},
)

#: Budget factors, used in turn (5 is prime to the 4 templates, so 20
#: shapes recur).  They spread cold-job times over more than two poll
#: intervals: with equal times, a small change of machine speed would move
#: every cold job across a poll boundary at once.
SIZE_FACTORS = (0.5, 0.75, 1.0, 1.25, 1.5)
BLOCK = len(TEMPLATES) * len(SIZE_FACTORS)

#: What a fresh server runs before it counts as ready for work.
FIRST_JOB = {"protocol": "majority", "population": 20, "repetitions": 2, "max_steps": 500}


def job_lists(rng, cold_per_client):
    """Per client: ("cold" | "hit", job) pairs, disjoint across clients."""
    base = rng.getrandbits(30)
    lists = []
    for client in range(CLIENTS):
        jobs, colds = [], []
        for index in range(cold_per_client):
            cold = dict(
                TEMPLATES[index % len(TEMPLATES)],
                master_seed=base + client * 1000003 + index,
            )
            budget = round(cold["max_steps"] * SIZE_FACTORS[index % len(SIZE_FACTORS)])
            cold.update(max_steps=budget, stability_window=budget)
            colds.append(cold)
            jobs.append(("cold", cold))
            jobs.extend(("hit", rng.choice(colds)) for _ in range(REPEATS_PER_COLD))
        lists.append(jobs)
    return lists


class Server:
    """One ``python -m repro.serve`` subprocess."""

    def __init__(self, log_path):
        self._log = open(log_path, "w", encoding="utf-8")
        self.proc = subprocess.Popen(
            [
                sys.executable, "-m", "repro.serve", "--port", "0",
                "--backend", "process", "--workers", "2", "--concurrency", "2",
                "--cache-size", "100000", "--max-inflight", "4",
            ],
            stdout=subprocess.PIPE, stderr=self._log, text=True,
        )
        line = self.proc.stdout.readline()
        if not line:
            self.stop()
            raise RuntimeError(f"server exited before its ready line; see {log_path}")
        self.url = json.loads(line)["serving"]

    def stop(self):
        """SIGTERM, wait for the drain; return the drain summary (or None)."""
        summary = None
        try:
            if self.proc.poll() is None:
                self.proc.send_signal(signal.SIGTERM)
            out, _ = self.proc.communicate(timeout=60)
            lines = out.strip().splitlines()
            summary = json.loads(lines[-1]) if lines else None
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        finally:
            self._log.close()
        return summary


def _start(index, workdir, tracer):
    """Start a server and run its first tiny job; return (server, ready_s)."""
    start = time.perf_counter()
    with tracer.span("start", "serve"):
        server = Server(os.path.join(workdir, f"server-{index}.log"))
    ready = time.perf_counter() - start
    # Polled every 5 ms: set-up ends when the job is done, not at the next
    # 50 ms poll.
    with tracer.span("first_job", "serve"):
        client = ServeClient(server.url, client_id="setup")
        response = client.submit(dict(FIRST_JOB, master_seed=index))
        client.wait(response["job"], timeout=120, poll_interval=0.005)
    return server, ready


def _drive(url, index, jobs, keep, tracer, start_barrier):
    """Run one client's job list; keep compact records, not payloads.

    Payloads are reduced to a digest (and, for the cold jobs whose index is
    in ``keep``, their runs) as they arrive, so this process's memory does
    not depend on how the client threads interleave.
    """
    client = ServeClient(url, client_id=f"client-{index}")
    records = []
    colds = 0
    start_barrier.wait()
    for position, (kind, job) in enumerate(jobs):
        # In a traced run, alternate blocks of cycles (a cold job and its
        # repeats; every cold shape once per block) record spans: traced vs
        # untraced latency gives the tracing overhead.
        cycle = position // (1 + REPEATS_PER_COLD)
        traced = tracer.enabled and (cycle // BLOCK) % 2 == 0
        with tracer.span("job", "bench", root=True, traced=traced):
            start = time.perf_counter()
            with tracer.span("submit", "serve"):
                response = client.submit(job)
            submitted = time.perf_counter()
            if response.get("cached"):
                result = response["result"]
            else:
                with tracer.span("wait", "serve"):
                    result = client.wait(response["job"], timeout=120)
            end = time.perf_counter()
        record = {
            "kind": kind, "key": response["job"],
            "cached": response.get("cached") is True,
            "digest": hashlib.sha256(
                json.dumps(result, sort_keys=True).encode("utf-8")
            ).hexdigest(),
            "start": start, "end": end, "submit": submitted - start,
            "traced": traced,
        }
        if kind == "cold":
            record["steps"] = sum(run["steps"] for run in result["runs"])
            record["complete"] = result["statistics"]["runs"] == job["repetitions"]
            if colds in keep:
                record.update(job=job, runs=result["runs"])
            colds += 1
        records.append(record)
    return records


def _direct_runs(job):
    """A served job run in-process, rendered like the HTTP layer renders it."""
    spec = JobSpec.from_dict(job)
    protocol, inputs = build_protocol_and_inputs(spec.protocol, spec.population, spec.params)
    simulator = Simulator(protocol, engine=spec.engine, seed=spec.ensemble_seed)
    results = simulator.run_many(
        inputs, spec.repetitions, max_steps=spec.max_steps,
        stability_window=spec.stability_window,
    )
    return json.loads(json.dumps([
        {
            "seed": seed, "steps": result.steps, "consensus": result.consensus,
            "consensus_step": result.consensus_step, "converged": result.converged,
            "terminated": result.terminated,
            "interactions_sampled": result.interactions_sampled,
        }
        for seed, result in zip(spec.repetition_seeds(), results)
    ]))


def run(seed, seconds, tracer, workdir):
    os.makedirs(workdir, exist_ok=True)
    rng = random.Random(seed)
    cold_per_client = max(MIN_COLD_PER_CLIENT, round(seconds * COLD_PER_CLIENT_PER_S))
    lists = job_lists(rng, cold_per_client)
    # The cold jobs checked against direct runs: one of each template.
    keep = [
        {len(TEMPLATES) * rng.randrange(cold_per_client // len(TEMPLATES)) + template
         for template in range(client, len(TEMPLATES), CLIENTS)}
        for client in range(CLIENTS)
    ]
    servers = []
    summaries = []
    try:
        # -- set-up: fresh servers up to their ready line plus a first job.
        # Half of them start before the measurement (the last one serves it)
        # and half after, so the median spans the run.
        setup_times, ready_times = [], []

        def set_up():
            index = len(setup_times)
            with tracer.span("setup", "bench", root=True):
                start = time.perf_counter()
                server, ready = _start(index, workdir, tracer)
                setup_times.append(time.perf_counter() - start)
            servers.append(server)
            ready_times.append(ready)
            return server

        for _ in range(SETUPS_BEFORE - 1):
            summaries.append(set_up().stop())
        server = set_up()
        probe_client = ServeClient(server.url, client_id="metrics")
        before = probe_client.metrics()

        # -- measurement: 2 closed-loop clients ---------------------------------
        barrier = threading.Barrier(CLIENTS + 1, timeout=60)
        with ThreadPoolExecutor(max_workers=CLIENTS) as pool:
            futures = [
                pool.submit(_drive, server.url, index, jobs, keep[index], tracer, barrier)
                for index, jobs in enumerate(lists)
            ]
            barrier.wait()
            start = time.perf_counter()
            records = [record for future in futures for record in future.result()]
        elapsed = max(record["end"] for record in records) - start
        after = probe_client.metrics()
        summaries.append(server.stop())
        for _ in range(SETUPS_AFTER):
            summaries.append(set_up().stop())
        # Peak memory of the workload itself, before the checks run.
        rss_mb = peak_rss_mb()
    finally:
        for server in servers:
            if server.proc.poll() is None:
                server.proc.kill()
                server.proc.wait()

    # -- output checks (untimed) -------------------------------------------
    cold = [r for r in records if r["kind"] == "cold"]
    hits = [r for r in records if r["kind"] == "hit"]
    served = {r["key"]: r["digest"] for r in cold}
    attempted = len(records)
    failed = sum(r["cached"] or not r["complete"] for r in cold)
    failed += sum(not r["cached"] or r["digest"] != served.get(r["key"]) for r in hits)
    for record in cold:
        if "runs" in record:
            attempted += 1
            failed += record["runs"] != _direct_runs(record["job"])

    def delta(name):
        return after.get(name, 0.0) - before.get(name, 0.0)

    # A counter off by n is n operations that did not go as planned.
    failed += abs(delta("repro_serve_cache_hits") - len(hits))
    failed += abs(delta("repro_serve_jobs_completed") - len(cold))
    failed += sum(summary is None or summary.get("jobs_failed") != 0 for summary in summaries)
    failed = int(failed)

    steps = sum(r["steps"] for r in cold)
    exec_s = delta("repro_serve_job_exec_seconds_sum")
    queue_s = delta("repro_serve_job_queue_wait_seconds_sum")
    cold_latency = [r["end"] - r["start"] for r in cold]
    hit_latency = [r["end"] - r["start"] for r in hits]
    e2e = {
        "transitions_per_s": steps / elapsed,
        "ops_per_s": len(records) / elapsed,
        "setup_s": statistics.median(setup_times),
        "peak_rss_mb": rss_mb,
    }
    layers = {
        "setup.samples": len(setup_times),
        "serve.ready_s": statistics.median(ready_times),
        "serve.exec_s": exec_s,
        "serve.queue_wait_s": queue_s,
        "serve.client_wait_s": sum(cold_latency) - exec_s - queue_s,
        "serve.submit_p50_ms": 1000 * percentile([r["submit"] for r in records], 0.5),
        "serve.cold_job_p50_s": percentile(cold_latency, 0.5),
        "serve.cold_job_p90_s": percentile(cold_latency, 0.9),
        "serve.cold_jobs": len(cold),
        "serve.hit_job_p50_ms": 1000 * percentile(hit_latency, 0.5),
        "serve.hit_job_p90_ms": 1000 * percentile(hit_latency, 0.9),
        "serve.hit_jobs": len(hits),
        "serve.cache_hits": delta("repro_serve_cache_hits"),
        "serve.jobs_completed": delta("repro_serve_jobs_completed"),
    }
    if tracer.enabled:
        # Per job kind, the median latency of traced against untraced jobs.
        shifts = []
        for kind in ("cold", "hit"):
            traced = [r["end"] - r["start"] for r in records if r["kind"] == kind and r["traced"]]
            untraced = [r["end"] - r["start"] for r in records if r["kind"] == kind and not r["traced"]]
            shifts.append(statistics.median(traced) / statistics.median(untraced) - 1)
        layers["trace.overhead"] = statistics.fmean(shifts)
    return Outcome(
        e2e=e2e, layers=layers, attempted=attempted, failed=failed,
        diag={
            "cold_jobs": len(cold), "hit_jobs": len(hits),
            "setup_s": setup_times, "elapsed_s": elapsed,
        },
    )
