"""Run workloads over several seeds and report each metric's spread.

Usage, from the root of a source checkout::

    python3 perfbench/steadiness.py --seeds 1-10 [--workloads a,b] [--seconds 15]

For every workload and end-to-end metric this prints the median of the
per-seed values and their spread: the distance between the first and third
quartile (``statistics.quantiles(values, n=4)``) as a share of the median,
next to the metric's bound from ``BENCHMARK.json``.  For the probe-scaled
workloads it also prints the spread of the raw (unscaled) figures, so the
effect of the machine probe is visible.  Runs go one at a time.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time


def _seeds(text):
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(part) for part in text.split(",")]


def spread(values):
    q1, median, q3 = statistics.quantiles(values, n=4)
    return median, (q3 - q1) / median


def run_once(workload, seed, seconds):
    start = time.perf_counter()
    completed = subprocess.run(
        [sys.executable, os.path.join("perfbench", "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        capture_output=True, text=True, check=True, timeout=600,
    )
    lines = completed.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    diag = json.loads(lines[-2][len("# diag "):])
    return result, diag, time.perf_counter() - start


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--workloads", default=None)
    parser.add_argument("--seconds", type=int, default=None)
    args = parser.parse_args(argv)
    with open("BENCHMARK.json", encoding="utf-8") as handle:
        declared = json.load(handle)
    workloads = (
        args.workloads.split(",") if args.workloads
        else [entry["name"] for entry in declared["workloads"]]
    )
    seconds = args.seconds or declared["run_seconds"]
    seeds = _seeds(args.seeds)
    worst = 0.0
    for workload in workloads:
        values, raw, walls = {}, {}, []
        for seed in seeds:
            result, diag, wall = run_once(workload, seed, seconds)
            walls.append(wall)
            if not result["correct"]:
                print(f"{workload} seed {seed}: INCORRECT {result['failed']}/{result['attempted']}")
            for name, metric in result["metrics"].items():
                values.setdefault(name, []).append(metric["value"])
            for name, value in diag.get("raw", {}).items():
                raw.setdefault(name, []).append(value)
        print(f"{workload}: {len(seeds)} seeds, run wall {min(walls):.1f}-{max(walls):.1f} s")
        for entry in declared["end_to_end"]:
            name = entry["name"]
            median, share = spread(values[name])
            line = (
                f"  {name:20s} median {median:14.6g}  spread {share:6.3f}"
                f"  bound {entry['bound']:.3f}  ({share / entry['bound']:.2f} of bound)"
            )
            if name in raw:
                raw_median, raw_share = spread(raw[name])
                line += f"  | raw median {raw_median:12.6g} spread {raw_share:6.3f}"
            print(line, flush=True)
            if name != "setup_s":
                worst = max(worst, share / entry["bound"])
    print(f"largest spread as a share of its bound (setup_s excluded): {worst:.2f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
