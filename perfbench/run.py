"""Run one benchmark workload and print its metrics as a JSON line.

Usage, from the root of a source checkout::

    python3 perfbench/run.py --workload ensemble-small --seed 1 --seconds 15 --trace 0

``--trace 0`` prints the end-to-end metrics named in ``BENCHMARK.json``;
``--trace 1`` records spans around the benchmark's calls into ``repro`` and
prints the per-layer metrics instead (span dump under ``.bench_build``).
The last line of standard output is the result object; the line before it,
starting with ``# diag``, carries raw (unscaled) figures and run details.
Exits non-zero without a result when the checkout holds no ``src/repro``.
"""

import argparse
import json
import os
import shutil
import sys

WORKLOADS = ("ensemble-small", "counting-large", "sweep-grid", "serve-mixed")

#: Span layers whose self time the traced run reports (``self.<layer>_s``).
LAYERS = ("bench", "machine", "protocols", "simulation", "sweep", "store", "serve")


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _prepare(root):
    """Point imports at the checkout's ``src``, for this process and its children.

    Nothing is built: the program is pure Python.  No bytecode is written,
    so a run leaves the source tree as it found it.
    """
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "repro", "__init__.py")):
        raise SystemExit(f"error: no src/repro under {root}; run from a checkout root")
    sys.dont_write_bytecode = True
    os.environ["PYTHONDONTWRITEBYTECODE"] = "1"
    os.environ["PYTHONPATH"] = src + (
        os.pathsep + os.environ["PYTHONPATH"] if os.environ.get("PYTHONPATH") else ""
    )
    sys.path.insert(0, src)
    return os.path.join(root, os.environ.get("CARGO_TARGET_DIR", ".bench_build"))


def main(argv=None):
    args = _parse(argv)
    root = os.getcwd()
    build = _prepare(root)
    with open(os.path.join(root, "BENCHMARK.json"), encoding="utf-8") as handle:
        declared = json.load(handle)

    from common import Tracer

    tracer = Tracer(enabled=bool(args.trace))
    workdir = os.path.join(build, "perfbench", f"work-{os.getpid()}")
    try:
        if args.workload in ("ensemble-small", "counting-large"):
            import serial

            outcome = serial.run(args.workload, args.seed, args.seconds, tracer)
        elif args.workload == "sweep-grid":
            import sweepgrid

            outcome = sweepgrid.run(args.seed, args.seconds, tracer, workdir)
        else:
            import servemixed

            outcome = servemixed.run(args.seed, args.seconds, tracer, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    if args.trace:
        totals, duration = tracer.self_times()
        for layer in LAYERS:
            outcome.layers[f"self.{layer}_s"] = totals.get(layer, 0.0)
        outcome.layers["trace.unattributed_share"] = totals.get("bench", 0.0) / duration
        tracer.write(os.path.join(
            build, "perfbench", "traces", f"{args.workload}-seed{args.seed}.json"
        ))
        # A layer the workload does not exercise reads 0.
        values = {
            entry["name"]: outcome.layers.get(entry["name"], 0.0)
            for entry in declared["per_layer"]
        }
        units = {entry["name"]: entry["unit"] for entry in declared["per_layer"]}
    else:
        values = {entry["name"]: outcome.e2e[entry["name"]] for entry in declared["end_to_end"]}
        units = {entry["name"]: entry["unit"] for entry in declared["end_to_end"]}
    metrics = {name: {"value": value, "unit": units[name]} for name, value in values.items()}
    print("# diag " + json.dumps(outcome.diag, default=str))
    print(json.dumps({
        "correct": outcome.failed == 0,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
