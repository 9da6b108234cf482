#!/usr/bin/env python3
"""Tests of the benchmark itself.

Run from the root of a checkout (takes a few minutes; builds on first use):

    python3 perfbench/test_perfbench.py

Checks, for every workload BENCHMARK.json declares, that
  * every metric name matches [A-Za-z0-9_.-]+ and each run prints exactly
    the metrics BENCHMARK.json declares for its trace mode;
  * the simulated metrics and per-layer counts of a traced run are
    identical at 1 worker and at min(4, nproc) workers, and across two
    invocations.
"""
import json
import os
import re
import subprocess
import sys
import unittest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
NAME = re.compile(r"[A-Za-z0-9_.-]+")
# Host-time metrics vary between runs; everything else is a count or a
# simulated outcome and must repeat exactly.
TIMED = re.compile(r"(_ns|_s)$|\.ns_per_|^trace\.")


def run(workload, trace, jobs=0):
    cmd = [sys.executable, os.path.join(ROOT, "perfbench", "run.py"),
           "--workload", workload, "--seed", "3", "--seconds", "1",
           "--trace", str(trace)]
    if jobs:
        cmd += ["--jobs", str(jobs)]
    out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                         check=True)
    result = json.loads(out.stdout.strip().splitlines()[-1])
    assert result["correct"] and result["failed"] == 0, out.stderr
    return result["metrics"]


def counts(metrics):
    return {k: v["value"] for k, v in metrics.items() if not TIMED.search(k)}


class PerfbenchTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            cls.spec = json.load(f)
        cls.workloads = [w["name"] for w in cls.spec["workloads"]]

    def test_declared_names(self):
        for key in ("workloads", "end_to_end", "per_layer"):
            for entry in self.spec[key]:
                self.assertTrue(NAME.fullmatch(entry["name"]), entry["name"])

    def test_metrics_match_declaration(self):
        e2e = {m["name"] for m in self.spec["end_to_end"]}
        layer = {m["name"] for m in self.spec["per_layer"]}
        for workload in self.workloads:
            with self.subTest(workload=workload):
                for trace, want in ((0, e2e), (1, layer)):
                    got = run(workload, trace)
                    for name in got:
                        self.assertTrue(NAME.fullmatch(name), name)
                    self.assertEqual(set(got), want)

    def test_counts_repeat_across_workers_and_invocations(self):
        nproc = min(4, os.cpu_count() or 1)
        for workload in self.workloads:
            with self.subTest(workload=workload):
                first = counts(run(workload, 1, jobs=nproc))
                self.assertEqual(first, counts(run(workload, 1, jobs=nproc)))
                self.assertEqual(first, counts(run(workload, 1, jobs=1)))


if __name__ == "__main__":
    unittest.main()
