#!/usr/bin/env python3
"""Benchmark runner for pimine.

Builds the harness (perfbench/CMakeLists.txt, Release) into .bench_build/,
runs one workload, checks every output, and prints the metrics. The last
line of standard output is one JSON object:

    {"correct": true, "attempted": N, "failed": 0, "metrics": {...}}

With --trace 0 the metrics are the end-to-end metrics of BENCHMARK.json,
with --trace 1 its per-layer metrics. Usage, from the repository root:

    python3 perfbench/run.py --workload knn-msd --seed 1 --seconds 10 --trace 0

Exit status: 0 when every check passed, 1 when a check failed, 2 when the
benchmark could not run (bad arguments, missing sources, failed build).
"""

import argparse
import json
import math
import os
import re
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
HARNESS = os.path.join(BUILD_DIR, "perfbench_harness")
NAME_RE = re.compile(r"^[A-Za-z0-9_.-]+$")


class BenchError(Exception):
    """The benchmark cannot produce a result."""


def percentile(samples, p):
    """Nearest-rank percentile p (0 < p < 1) of samples.

    Returns (value, sample_count). Refuses, with ValueError, a percentile
    that has fewer than 10 samples beyond it.
    """
    n = len(samples)
    if not 0.0 < p < 1.0:
        raise ValueError("percentile must lie in (0, 1), got %r" % p)
    rank = max(1, math.ceil(p * n))
    beyond = n - rank
    if beyond < 10:
        raise ValueError(
            "p%g of %d samples has %d samples beyond it; need at least 10"
            % (100 * p, n, beyond))
    return sorted(samples)[rank - 1], n


def spread(values):
    """Interquartile distance as a share of the median (0 for < 2 values)."""
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return (q3 - q1) / med if med else 0.0


def clock_of(name, unit):
    """The clock a metric reads: modeled, host, or count (work done)."""
    if "model" in name:
        return "modeled"
    if name.startswith("sim."):
        return "modeled"
    if name.startswith("trace.") or unit in ("s", "ms", "1/s", "rows/s",
                                             "MiB"):
        return "host"
    return "count"


def load_benchmark():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    for group in ("workloads", "end_to_end", "per_layer"):
        for entry in bench[group]:
            if not NAME_RE.match(entry["name"]):
                raise BenchError("bad metric/workload name %r" % entry["name"])
    return bench


def build():
    """Configures (once) and builds the harness; build logs go to stderr."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        raise BenchError("pimine sources (src/) not found next to perfbench/")
    steps = []
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD_DIR,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD_DIR, "-j4",
                  "--target", "perfbench_harness"])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            raise BenchError("build step failed: " + " ".join(cmd))


def harness_timeout(seconds):
    """Seconds a harness run may take: its measured time plus set-up,
    oracles and the minimum repeats each workload runs past it. At the
    benchmark's run_seconds this keeps a hung run inside the 180 s a run
    may take."""
    return seconds + 120


def run_harness(workload, seed, seconds, trace):
    """Runs the harness once and returns its JSON report."""
    cmd = [HARNESS, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    timeout = harness_timeout(seconds)
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr,
                              timeout=timeout, check=False)
    except subprocess.TimeoutExpired:
        raise BenchError("harness exceeded %d s" % timeout)
    if proc.returncode != 0:
        raise BenchError("harness exited with %d" % proc.returncode)
    return json.loads(proc.stdout.decode().strip().splitlines()[-1])


def summarize(report, bench, trace):
    """Turns a harness report into (metrics, notes, errors).

    metrics holds exactly the BENCHMARK.json metrics of the mode; notes are
    extra human-readable lines; errors are check failures.
    """
    errors = list(report["errors"])
    samples = report["samples"]
    modeled = report["modeled"]
    notes = []
    if trace:
        layers = dict(report["layers"])
        latencies = report["latencies_us"]
        if latencies:
            layers["serve.model_p50_us"] = percentile(latencies, 0.50)[0]
            layers["serve.model_p99_us"] = percentile(latencies, 0.99)[0]
        declared = [m["name"] for m in bench["per_layer"]]
        unknown = sorted(set(layers) - set(declared))
        if unknown:
            errors.append("layers missing from BENCHMARK.json: %s" % unknown)
        # A layer the workload never enters reports 0.
        values = {name: layers.get(name, 0.0) for name in declared}
        units = {m["name"]: m["unit"] for m in bench["per_layer"]}
        notes.append("traced passes: %d" % samples["trace_passes"][0])
    else:
        # Ops per host second over the timed online units (kmeans-nuswide
        # reports one: its fastest pair). A run whose every unit failed
        # reports none.
        online_s = sum(samples.get("online_s", []))
        if not online_s:
            errors.append("no online unit completed")
        values = {
            "setup_s": statistics.median(samples["setup_s"]),
            "ops_per_s": (sum(samples["online_ops"]) / online_s
                          if online_s else 0.0),
            "peak_rss_mb": report["peak_rss_mb"],
            "model_ms_per_op": modeled["model_ms_per_op"],
            "model_bytes_per_op": modeled["model_bytes_per_op"],
        }
        declared = [m["name"] for m in bench["end_to_end"]]
        if sorted(values) != sorted(declared):
            errors.append("end-to-end metrics %s disagree with BENCHMARK.json "
                          "%s" % (sorted(values), sorted(declared)))
        units = {m["name"]: m["unit"] for m in bench["end_to_end"]}
        rates = [ops / s for ops, s in zip(samples.get("online_ops", []),
                                           samples.get("online_s", []))]
        notes.append("setup_s: median of %d set-ups, IQR/median %.4f"
                     % (len(samples["setup_s"]), spread(samples["setup_s"])))
        if len(rates) > 1:
            notes.append("ops_per_s: %d timed units, %.1f s online, per-unit "
                         "IQR/median %.4f" % (len(rates),
                                              sum(samples["online_s"]),
                                              spread(rates)))
        if "kmeans.lloyd_s" in samples:
            for name in ("kmeans.lloyd_s", "kmeans.lloyd_pim_s"):
                runs = samples[name]
                if not runs:
                    continue
                notes.append("%s: fastest %.4f of %d runs, IQR/median %.4f"
                             % (name, min(runs), len(runs), spread(runs)))
        if report["latencies_us"]:
            for p in (0.50, 0.99):
                value, count = percentile(report["latencies_us"], p)
                notes.append("serve_model_p%d_us (modeled): %.3f over %d "
                             "served queries" % (round(100 * p), value, count))
            notes.append("serve_model_capacity_qps (modeled): %.1f"
                         % modeled["serve.model_capacity_qps"])
            ingest = samples["serve.ingest_rows_per_s"]
            notes.append("ingest_rows_per_s (host): median %.1f over %d "
                         "samples" % (statistics.median(ingest), len(ingest)))
    attempted = report["attempted"]
    failed = report["failed"]
    if attempted < 1:
        errors.append("no operation attempted")
    notes.append("failed_frac: %d / %d = %.6f"
                 % (failed, attempted, failed / max(1, attempted)))
    metrics = {name: {"value": values[name], "unit": units[name]}
               for name in declared}
    return metrics, notes, errors


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")
    return args


def main(argv):
    args = parse_args(argv)
    try:
        bench = load_benchmark()
        if args.workload not in [w["name"] for w in bench["workloads"]]:
            raise BenchError("unknown workload %r" % args.workload)
        build()
        report = run_harness(args.workload, args.seed, args.seconds, args.trace)
        metrics, notes, errors = summarize(report, bench, args.trace)
    except (BenchError, OSError, ValueError, KeyError) as e:
        print("perfbench: %s" % e, file=sys.stderr)
        return 2
    print("workload %s, seed %d, input %s" % (args.workload, args.seed,
                                               report["input_hash"]))
    for name, m in metrics.items():
        print("  %-32s %20.6f %-13s %s" % (name, m["value"], m["unit"],
                                          clock_of(name, m["unit"])))
    for line in notes:
        print("  " + line)
    for line in errors:
        print("CHECK FAILED: " + line)
    correct = not errors and report["failed"] == 0
    print(json.dumps({"correct": correct, "attempted": report["attempted"],
                      "failed": report["failed"], "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
