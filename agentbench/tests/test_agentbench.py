#!/usr/bin/env python3
"""The benchmark's own tests.

    python3 agentbench/tests/test_agentbench.py        # from the repository root

Runs every workload at tiny size, traced and untraced, and checks that every
metric BENCHMARK.json names is printed with its unit; that a different seed
changes the inputs but not the set of metrics; that the correctness gate trips
on a perturbed reference; that percentiles from too few samples are reported
as missing; and that the benchmark's sources pass the project linter.
"""

import json
import os
import re
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH_DIR = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH_DIR)
SPEC = json.load(open(os.path.join(ROOT, "BENCHMARK.json")))
TARGET = os.path.abspath(os.path.join(
    ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build")))
LINE = re.compile(r"^(\S+)\s+(\S+)\s+(\S+)")


def run(workload, seed, trace, *extra):
    cmd = [sys.executable, os.path.join(BENCH_DIR, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", "1", "--trace", str(trace), "--tiny"]
    proc = subprocess.run(cmd + list(extra), capture_output=True, text=True, cwd=ROOT,
                          timeout=600)
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines and lines[-1].startswith("{") else None
    printed = {}
    for line in lines[:-1]:
        m = LINE.match(line)
        if m and not line.startswith("#"):
            printed[m.group(1)] = (m.group(2), m.group(3))
    inputs = [l.split()[2] for l in lines if l.startswith("# inputs ")]
    return proc.returncode, result, printed, inputs[0] if inputs else None


def declared(trace):
    return SPEC["per_layer"] if trace else SPEC["end_to_end"]


class TinyRuns(unittest.TestCase):
    """A tiny run of every workload prints every declared name with its unit."""

    def check(self, workload, trace):
        code, result, printed, inputs = run(workload, 11, trace)
        self.assertEqual(code, 0, "%s trace=%d exited %d" % (workload, trace, code))
        self.assertIsNotNone(result)
        self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
        self.assertTrue(result["correct"])
        self.assertGreaterEqual(result["attempted"], 1)
        self.assertIsNotNone(inputs)
        for metric in declared(trace):
            name = metric["name"]
            self.assertIn(name, printed, "%s trace=%d: %s not printed" % (workload, trace, name))
            value, unit = printed[name]
            self.assertEqual(unit, metric["unit"], "%s: unit" % name)
            if value != "missing":
                self.assertEqual(result["metrics"][name]["unit"], metric["unit"])
        for name in result["metrics"]:
            self.assertIn(name, {m["name"] for m in declared(trace)})
        return result, printed

    def test_speculate(self):
        for trace in (0, 1):
            self.check("speculate", trace)

    def test_explore_paged(self):
        for trace in (0, 1):
            self.check("explore_paged", trace)

    def test_serve(self):
        for trace in (0, 1):
            self.check("serve", trace)

    def test_percentiles_from_few_samples_are_missing(self):
        # A tiny run has fewer than 1000 requests, so no percentile is computed.
        result, printed = self.check("explore_paged", 1)
        for name in ("p99_ms", "write_p50_ms", "write_p99_ms"):
            self.assertEqual(printed[name][0], "missing", name)
            self.assertNotIn(name, result["metrics"])


class Seeds(unittest.TestCase):
    def test_seed_changes_inputs_not_metric_set(self):
        for workload in ("speculate", "explore_paged", "serve"):
            _, a, _, inputs_a = run(workload, 1, 0)
            _, b, _, inputs_b = run(workload, 2, 0)
            self.assertNotEqual(inputs_a, inputs_b, workload)
            self.assertEqual(set(a["metrics"]), set(b["metrics"]), workload)

    def test_same_seed_repeats_counts(self):
        _, a, _, _ = run("speculate", 5, 1)
        _, b, _, _ = run("speculate", 5, 1)
        self.assertEqual(a["metrics"]["memory.hit_frac"]["value"],
                         b["metrics"]["memory.hit_frac"]["value"])
        _, a, _, _ = run("explore_paged", 5, 1)
        _, b, _, _ = run("explore_paged", 5, 1)
        self.assertEqual(a["metrics"]["storage.faults_per_probe"]["value"],
                         b["metrics"]["storage.faults_per_probe"]["value"])


class Gate(unittest.TestCase):
    def test_perturbed_reference_trips_the_gate(self):
        for workload in ("speculate", "explore_paged", "serve"):
            code, result, _, _ = run(workload, 3, 0, "--perturb-reference")
            self.assertEqual(code, 1, workload)
            self.assertFalse(result["correct"], workload)
            self.assertGreaterEqual(result["failed"], 1, workload)


class Lint(unittest.TestCase):
    def test_aflint_is_clean_over_the_benchmark_sources(self):
        build = os.path.join(TARGET, "agentbench")
        subprocess.run(["cmake", "--build", build, "--target", "afbench_lint"],
                       check=True, capture_output=True)
        proc = subprocess.run([os.path.join(build, "afbench_lint"), "--root", ROOT,
                               os.path.basename(BENCH_DIR)],
                              capture_output=True, text=True)
        self.assertEqual(proc.returncode, 0, proc.stdout + proc.stderr)


if __name__ == "__main__":
    unittest.main()
