#!/usr/bin/env python3
"""The benchmark's own tests. Run from the checkout root:

  python3 perfbench/test_perfbench.py

They build the binary through run.py, then check that op schedules are a
pure function of the seed, that the reports carry every metric BENCHMARK.json
names with the same unit, and that the per-tier fetch timings of a traced
run account for every request. The workload runs are short (--seconds 2),
so the whole file takes about two minutes, including the first build.
"""

import json
import os
import subprocess
import sys
import unittest

sys.dont_write_bytecode = True
sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run  # noqa: E402

SECONDS = "2"


def schedule_digest(binary, workload, seed):
    out = subprocess.run(
        [binary, "--workload", workload, "--seed", str(seed), "--seconds",
         SECONDS, "--schedule-only"],
        stdout=subprocess.PIPE, text=True, check=True).stdout
    return out.split("digest=")[1].strip()


class PerfbenchTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.binary = run.build()
        cls.bench = run.load_benchmark()
        cls.workloads = [w["name"] for w in cls.bench["workloads"]]
        cls.reports = {}

    def report(self, workload, trace):
        key = (workload, trace)
        if key not in self.reports:
            out = subprocess.run(
                [self.binary, "--workload", workload, "--seed", "5",
                 "--seconds", SECONDS, "--trace", str(trace)],
                stdout=subprocess.PIPE, text=True, timeout=170)
            self.assertEqual(out.returncode, 0, out.stdout[-2000:])
            self.reports[key] = json.loads(out.stdout.rstrip().split("\n")[-1])
        return self.reports[key]

    def test_same_seed_same_schedule_other_seed_other_schedule(self):
        for workload in self.workloads:
            with self.subTest(workload=workload):
                first = schedule_digest(self.binary, workload, 7)
                self.assertEqual(first,
                                 schedule_digest(self.binary, workload, 7))
                self.assertNotEqual(first,
                                    schedule_digest(self.binary, workload, 8))

    def test_reports_carry_every_benchmark_metric(self):
        for trace, section in ((0, "end_to_end"), (1, "per_layer")):
            for workload in self.workloads:
                with self.subTest(workload=workload, trace=trace):
                    metrics = self.report(workload, trace)["metrics"]
                    for m in self.bench[section]:
                        self.assertIn(m["name"], metrics)
                        self.assertEqual(metrics[m["name"]]["unit"], m["unit"])

    def test_runs_pass_their_correctness_checks(self):
        for workload in self.workloads:
            with self.subTest(workload=workload):
                report = self.report(workload, 1)
                self.assertTrue(report["correct"], report["checks"])
                self.assertGreaterEqual(report["attempted"], 1)
                self.assertEqual(report["failed"], 0)

    def test_fetch_tier_samples_add_up_to_the_requests(self):
        for workload in ("browse", "write-storm"):
            with self.subTest(workload=workload):
                metrics = self.report(workload, 1)["metrics"]
                tiers = sum(metrics[f"proxy.fetch_ns.{t}.p50"]["samples"]
                            for t in ("browser", "edge", "origin"))
                tiers += metrics["proxy.fetch_ns.other_count"]["value"]
                self.assertEqual(tiers,
                                 metrics["proxy.fetch_ns.requests"]["value"])

    def test_run_py_prints_the_result_line(self):
        out = subprocess.run(
            [sys.executable, os.path.join(run.ROOT, "perfbench", "run.py"),
             "--workload", "write-storm", "--seed", "3", "--seconds", SECONDS,
             "--trace", "0"],
            stdout=subprocess.PIPE, text=True, timeout=170, cwd=run.ROOT)
        self.assertEqual(out.returncode, 0)
        result = json.loads(out.stdout.rstrip().split("\n")[-1])
        self.assertEqual(sorted(result),
                         ["attempted", "correct", "failed", "metrics"])
        self.assertEqual(sorted(result["metrics"]),
                         sorted(m["name"] for m in self.bench["end_to_end"]))


if __name__ == "__main__":
    unittest.main()
