#!/usr/bin/env python3
"""Self-tests of the benchmark at tiny sizes (n = 60 and below).

Run from the root of a checkout:

    python3 perfbench/selftest.py

They check that every metric named in BENCHMARK.json is printed with its
unit, that a wrong output shows up as a failure instead of raising, and that
the benchmark refuses to run where there is no source tree.
"""

import contextlib
import io
import json
import os
import subprocess
import sys
import unittest
from pathlib import Path

import run
import workloads

ROOT = Path.cwd()
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run_tiny(workload: str, trace: int) -> tuple[dict, dict]:
    """(record, result) of one tiny in-process run."""
    out = io.StringIO()
    argv = ["--workload", workload, "--seed", "7", "--seconds", "1", "--trace", str(trace)]
    with contextlib.redirect_stdout(out):
        code = run.main(argv + ["--sizes", "tiny"])
    assert code == 0, code
    record, result = (json.loads(line) for line in out.getvalue().splitlines()[-2:])
    return record, result


def units(metrics: dict) -> dict[str, str]:
    return {name: m["unit"] for name, m in metrics.items()}


class BenchmarkSelfTest(unittest.TestCase):
    def test_spec_names_the_workloads_the_benchmark_runs(self):
        self.assertEqual([w["name"] for w in SPEC["workloads"]], list(workloads.WORKLOADS))

    def test_every_end_to_end_metric_is_printed_with_its_unit(self):
        expected = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
        for workload in workloads.WORKLOADS:
            with self.subTest(workload=workload):
                record, result = run_tiny(workload, trace=0)
                self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
                self.assertTrue(result["correct"], record["problems"])
                self.assertGreaterEqual(result["attempted"], 1)
                self.assertEqual(record["error_rate"], 0)
                self.assertEqual(units(result["metrics"]), expected)
                self.assertTrue(all(m["value"] > 0 for m in result["metrics"].values()))

    def test_every_per_layer_metric_is_printed_with_its_unit(self):
        record, result = run_tiny("count", trace=1)
        self.assertTrue(result["correct"], record["problems"])
        self.assertEqual(units(result["metrics"]), {m["name"]: m["unit"] for m in SPEC["per_layer"]})
        trace = json.loads((ROOT / record["trace_file"]).read_text())
        span = trace["verify"][0]
        self.assertEqual(set(span), {"id", "name", "parent", "start", "end"})

    def test_corrupted_reference_digest_counts_as_a_failure(self):
        real = workloads.load_digests
        digests = real()
        digests["list 60"] = dict(digests["list 60"], sha256="0" * 64)
        workloads.load_digests = lambda: digests
        try:
            record, result = run_tiny("list-stream", trace=0)
        finally:
            workloads.load_digests = real
        self.assertFalse(result["correct"])
        self.assertGreaterEqual(result["failed"], 1)
        self.assertGreater(record["error_rate"], 0)
        self.assertTrue(any("sha256" in p for p in record["problems"]))

    def test_child_peak_rss_excludes_the_client(self):
        # A child forked straight from this process would report the ballast.
        ballast = b"x" * (200 * 2**20)
        child = run.spawn([sys.executable, "-S", "-c", "pass"], dict(os.environ), None)
        self.assertEqual(child.exit_code, 0)
        self.assertLess(child.peak_rss_mb, len(ballast) / 2**20 / 2)

    def test_wrong_output_is_reported_not_raised(self):
        checker = workloads.Checker(1, workloads.load_digests())
        for argv in (["list", "60"], ["graph", "12", "--analyze"], ["count", "60"], ["verify"]):
            with self.subTest(argv=argv):
                pairs, problems = checker.check(argv, 0, b"not json", "")
                self.assertEqual(pairs, 0)
                self.assertTrue(problems)

    def test_refuses_to_run_without_a_source_tree(self):
        empty = ROOT / run.OUT_DIR / "empty"
        empty.mkdir(parents=True, exist_ok=True)
        script = Path(run.__file__).resolve()
        argv = [sys.executable, str(script), "--workload", "count", "--seed", "1", "--seconds", "1"]
        proc = subprocess.run(argv, cwd=empty, capture_output=True, text=True, timeout=60)
        self.assertNotEqual(proc.returncode, 0)
        self.assertEqual(proc.stdout, "")


if __name__ == "__main__":
    unittest.main()
