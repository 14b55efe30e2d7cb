#!/usr/bin/env python3
"""The benchmark's own tests.

    python3 -m unittest discover -s hostbench -p 'test_*.py'

Run from the repository root. Each test drives hostbench/run.py at minimal
length (one epoch, one set-up), so the first test also builds the program.
"""
import json
import os
import subprocess
import sys
import tempfile
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
# Every workload hostbench supports; BENCHMARK.json runs the first two
# (threshold_sweep is run by hand, see README.md).
WORKLOADS = ("table1_stream", "tiny_burst", "threshold_sweep")
# Counts and simulated-clock values that must repeat exactly for one seed.
DETERMINISTIC = ("device.sim_makespan_ms", "device.sim_cpu_busy_ms",
                 "device.sim_gpu_busy_ms", "spgemm.flops", "spgemm.tuples",
                 "primitives.tuples_in", "primitives.tuples_out",
                 "sched.cpu_units", "sched.gpu_units", "runtime.retries",
                 "runtime.degraded", "runtime.wave_deduped_uploads",
                 "core.plan_calls")


def bench(workload, trace, seed=1, *extra):
    """Runs one minimal-length benchmark; returns (exit code, result)."""
    cmd = [sys.executable, os.path.join(HERE, "run.py"),
           "--workload", workload, "--seed", str(seed), "--seconds", "0",
           "--trace", str(trace), "--min-calls", "1", "--setups", "1"]
    done = subprocess.run(cmd + list(extra), cwd=ROOT, capture_output=True,
                          text=True, timeout=900)
    lines = done.stdout.strip().splitlines()
    return done.returncode, (json.loads(lines[-1]) if lines else None)


class HostbenchTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            spec = json.load(f)
        cls.expected = {
            0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
            1: {m["name"]: m["unit"] for m in spec["per_layer"]},
        }
        cls.workloads = [w["name"] for w in spec["workloads"]]

    def test_benchmark_runs_the_two_serve_workloads(self):
        self.assertEqual(sorted(self.workloads), sorted(WORKLOADS[:2]))

    def test_every_workload_emits_every_metric_with_its_unit(self):
        for workload in WORKLOADS:
            for trace in (0, 1):
                with self.subTest(workload=workload, trace=trace):
                    code, result = bench(workload, trace)
                    self.assertEqual(code, 0)
                    self.assertTrue(result["correct"])
                    self.assertGreaterEqual(result["attempted"], 1)
                    self.assertEqual(result["failed"], 0)
                    units = {k: v["unit"]
                             for k, v in result["metrics"].items()}
                    self.assertEqual(units, self.expected[trace])

    def test_corrupted_output_counts_as_failed(self):
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                code, result = bench(workload, 0, 1, "--corrupt-call", "0")
                self.assertNotEqual(code, 0)
                self.assertFalse(result["correct"])
                self.assertGreaterEqual(result["failed"], 1)
                self.assertLess(result["metrics"]["verified_frac"]["value"],
                                1.0)

    def test_traced_self_times_sum_to_traced_wall(self):
        with tempfile.TemporaryDirectory(dir=ROOT) as out:
            code, result = bench("tiny_burst", 1, 3, "--out-dir", out)
            self.assertEqual(code, 0)
            with open(os.path.join(out, "tiny_burst_seed3_rollup.json")) as f:
                rollup = json.load(f)
            with open(os.path.join(out, "tiny_burst_seed3_trace.json")) as f:
                events = json.load(f)["traceEvents"]
        self_sum = sum(l["self_s"] for l in rollup["layers"].values())
        wall = rollup["traced_wall_s"]
        # The stated tolerance: 1% of the traced wall time.
        self.assertLessEqual(abs(self_sum - wall), 0.01 * wall)
        self.assertEqual(len(events),
                         sum(l["count"] for l in rollup["layers"].values()))
        for layer in ("runtime.drain", "core.plan", "spgemm.phase2",
                      "sched.phase3", "primitives.merge",
                      "core.threshold_pick", "core.baselines"):
            self.assertGreater(rollup["layers"][layer]["busy_s"], 0)

    def test_same_seed_repeats_counts_and_device_values(self):
        _, first = bench("tiny_burst", 1, 5)
        _, again = bench("tiny_burst", 1, 5)
        _, other = bench("tiny_burst", 1, 6)
        for name in DETERMINISTIC:
            with self.subTest(metric=name):
                self.assertEqual(first["metrics"][name]["value"],
                                 again["metrics"][name]["value"])
        self.assertNotEqual(first["metrics"]["spgemm.flops"]["value"],
                            other["metrics"]["spgemm.flops"]["value"])


if __name__ == "__main__":
    unittest.main()
