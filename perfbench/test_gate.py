#!/usr/bin/env python3
"""Tests of the benchmark's correctness gate and its metric names.

Run from the root of a dprof checkout (the end-to-end case builds and runs
one whatif operation, about 10 s):

    python3 perfbench/test_gate.py
"""

import json
import subprocess
import sys
import unittest

import run as bench


def op(digest, ok=True, experiments=1):
    return {"digest": digest, "ok": ok, "experiments": experiments}


class GateTest(unittest.TestCase):
    def test_matching_digests_pass(self):
        self.assertEqual(bench.gate([op("a"), op("a", experiments=16)], "a"), (17, 0))

    def test_other_digest_fails_whole_operation(self):
        self.assertEqual(bench.gate([op("a", experiments=16), op("b", experiments=16)], "a"),
                         (32, 16))

    def test_bad_status_or_dead_process_fails(self):
        self.assertEqual(bench.gate([op("a", ok=False), None], "a"), (2, 2))

    def test_recorded_reference_wins_over_first_operation(self):
        reference = {"memcached-t1": {"1": "ref"}}
        self.assertEqual(bench.expected_digest(reference, "memcached-t1", 1, [op("x")]), "ref")
        self.assertEqual(bench.expected_digest(reference, "memcached-t1", 2, [op("x")]), "x")


class SpecTest(unittest.TestCase):
    def test_benchmark_json_names_what_run_py_reports(self):
        spec = json.loads((bench.ROOT / "BENCHMARK.json").read_text())
        self.assertEqual([w["name"] for w in spec["workloads"]], list(bench.WORKLOADS))
        self.assertEqual({m["name"]: m["unit"] for m in spec["end_to_end"]}, bench.END_TO_END)
        self.assertEqual({m["name"]: m["unit"] for m in spec["per_layer"]}, bench.PER_LAYER)

    def test_reference_covers_default_seed(self):
        reference = bench.load_reference()
        for workload in bench.WORKLOADS:
            self.assertIn("1", reference.get(workload, {}), workload)


class FlippedCounterTest(unittest.TestCase):
    def run_bench(self, *extra):
        cmd = [sys.executable, str(bench.HERE / "run.py"), "--workload", "whatif-sampled-t2",
               "--seed", "1", "--seconds", "1", "--trace", "0", *extra]
        proc = subprocess.run(cmd, capture_output=True, text=True, cwd=bench.ROOT)
        self.assertEqual(proc.returncode, 0, proc.stderr)
        return json.loads(proc.stdout.strip().splitlines()[-1])

    def test_flipped_counter_counts_run_as_failed(self):
        healthy = self.run_bench()
        self.assertTrue(healthy["correct"])
        self.assertEqual(healthy["failed"], 0)
        flipped = self.run_bench("--flip-counter")
        self.assertFalse(flipped["correct"])
        self.assertEqual(flipped["failed"], flipped["attempted"])


if __name__ == "__main__":
    unittest.main()
