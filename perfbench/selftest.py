#!/usr/bin/env python3
"""Self-tests for the benchmark's own code.

Run from the repository root:

    python3 perfbench/selftest.py

Builds the harness as run.py does, then runs every workload, on the inputs
the benchmark measures, on two seeds, traced and untraced. Runs are one
second long; each workload's minimum repeats still run in full.
"""

import json
import os
import sys
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run  # noqa: E402


class PercentileTest(unittest.TestCase):

    def test_reports_value_and_sample_count(self):
        self.assertEqual(run.percentile(list(range(1, 101)), 0.5), (50, 100))

    def test_p99_of_1000_samples_has_ten_beyond(self):
        self.assertEqual(run.percentile(list(range(1000)), 0.99), (989, 1000))

    def test_refuses_fewer_than_ten_samples_beyond(self):
        with self.assertRaises(ValueError):
            run.percentile(list(range(999)), 0.99)
        with self.assertRaises(ValueError):
            run.percentile(list(range(100)), 0.95)

    def test_refuses_percentiles_outside_the_open_interval(self):
        for p in (0.0, 1.0, 1.5):
            with self.assertRaises(ValueError):
                run.percentile(list(range(100)), p)


class BenchmarkFileTest(unittest.TestCase):

    def setUp(self):
        with open(os.path.join(run.ROOT, "BENCHMARK.json")) as f:
            self.bench = json.load(f)

    def test_names_are_well_formed_and_unique(self):
        names = [entry["name"] for group in
                 ("workloads", "end_to_end", "per_layer")
                 for entry in self.bench[group]]
        for name in names:
            self.assertRegex(name, r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
        self.assertEqual(len(names), len(set(names)))

    def test_setup_s_is_the_loosest_bound(self):
        bounds = {m["name"]: m["bound"] for m in self.bench["end_to_end"]}
        self.assertEqual(bounds["setup_s"], max(bounds.values()))
        self.assertLessEqual(max(bounds.values()), 0.25)


class WorkloadTest(unittest.TestCase):
    """Short runs of every workload: oracles, fidelity, names, seeds."""

    @classmethod
    def setUpClass(cls):
        run.build()
        cls.bench = run.load_benchmark()

    def summarize(self, report, trace):
        metrics, _, errors = run.summarize(report, self.bench, trace)
        self.assertEqual(errors, [], report["workload"])
        self.assertEqual(report["failed"], 0)
        self.assertGreater(report["attempted"], 0)
        group = "per_layer" if trace else "end_to_end"
        self.assertEqual(sorted(metrics),
                         sorted(m["name"] for m in self.bench[group]))
        return metrics

    def check_workload(self, workload):
        first = run.run_harness(workload, 1, 1, 0)
        second = run.run_harness(workload, 2, 1, 0)
        traced = run.run_harness(workload, 2, 1, 1)
        for report, trace in ((first, 0), (second, 0), (traced, 1)):
            self.summarize(report, trace)
        # A second seed changes the inputs and still passes every oracle.
        self.assertNotEqual(first["input_hash"], second["input_hash"])
        # Modeled metrics repeat exactly between untraced and traced runs.
        self.assertEqual(second["input_hash"], traced["input_hash"])
        self.assertEqual(second["modeled"], traced["modeled"])
        self.assertEqual(second["latencies_us"], traced["latencies_us"])

    def test_knn_msd(self):
        self.check_workload("knn-msd")

    def test_kmeans_nuswide(self):
        self.check_workload("kmeans-nuswide")

    def test_serve_gist_mutate(self):
        self.check_workload("serve-gist-mutate")


if __name__ == "__main__":
    unittest.main()
