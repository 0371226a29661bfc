"""Tests for the benchmark driver itself.

    python3 -m unittest discover -s perfbench/tests -v

Builds the driver through perfbench/run.py, then runs it on small
campaigns (--replications, --seconds 0: exactly one pass).
"""

import json
import os
import re
import subprocess
import sys
import tempfile
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.dirname(HERE))
import run  # noqa: E402  (perfbench/run.py: build() and BINARY)

NAME = re.compile(r"^[A-Za-z0-9_.-]+$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]+$")
# Per-layer metrics that are deterministic functions of the seed: the
# work counts, plus the ratios and thresholds computed from them.
DETERMINISTIC_UNITS = {"count", "ratio", "dBm"}


def benchmark_spec():
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


class PerfbenchTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        run.build()
        cls.scratch = tempfile.TemporaryDirectory(
            dir=os.path.join(run.ROOT, ".bench_build"))
        listed = subprocess.run([run.BINARY, "--list"], check=True,
                                capture_output=True, text=True)
        cls.workloads = listed.stdout.split()

    @classmethod
    def tearDownClass(cls):
        cls.scratch.cleanup()

    def drive(self, workload, seed, trace, replications=2):
        done = subprocess.run(
            [run.BINARY, "--workload", workload, "--seed", str(seed),
             "--seconds", "0", "--trace", str(trace),
             "--replications", str(replications),
             "--scratch", self.scratch.name],
            check=True, capture_output=True, text=True, timeout=170)
        return json.loads(done.stdout.strip().split("\n")[-1])

    def counts(self, result):
        return {k: v["value"] for k, v in result["metrics"].items()
                if v["unit"] in DETERMINISTIC_UNITS}

    def test_workloads_match_benchmark_json(self):
        spec = benchmark_spec()
        self.assertEqual([w["name"] for w in spec["workloads"]],
                         self.workloads)

    def test_emitted_names_match_benchmark_json(self):
        spec = benchmark_spec()
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            declared = {m["name"]: m["unit"] for m in spec[key]}
            for m in spec[key]:
                self.assertRegex(m["name"], NAME)
                self.assertRegex(m["unit"], UNIT)
            result = self.drive("exact_small", 1, trace)
            emitted = {k: v["unit"] for k, v in result["metrics"].items()}
            self.assertEqual(emitted, declared)

    def test_smoke_every_workload_passes_validation(self):
        for workload in self.workloads:
            with self.subTest(workload=workload):
                result = self.drive(workload, 5, 0)
                self.assertTrue(result["correct"])
                self.assertEqual(result["failed"], 0)
                self.assertEqual(result["attempted"], 3)  # 2 + re-check
                for name, m in result["metrics"].items():
                    self.assertGreater(m["value"], 0.0, name)

    def test_cs_off_run_that_delivers_nothing_is_valid(self):
        # exact_small seed 302, replication 5: with carrier sense off all
        # 20 pairs collide on every frame, a real outcome, not a failure.
        result = self.drive("exact_small", 302, 0, replications=6)
        self.assertTrue(result["correct"])
        self.assertEqual(result["failed"], 0)

    def test_deterministic_counts_repeat_at_fixed_seed(self):
        for workload in self.workloads:
            with self.subTest(workload=workload):
                first = self.drive(workload, 11, 1, replications=1)
                second = self.drive(workload, 11, 1, replications=1)
                self.assertEqual(self.counts(first), self.counts(second))
                self.assertEqual(
                    first["metrics"]["trace.probe_mismatches"]["value"], 0)
                self.assertGreater(
                    first["metrics"]["sim.events"]["value"], 0)

    def test_other_seed_changes_topologies_and_outputs(self):
        a = self.counts(self.drive("unsaturated_unicast", 1, 1, 1))
        b = self.counts(self.drive("unsaturated_unicast", 2, 1, 1))
        for name in ("mac.topology.links", "sim.events",
                     "mac.medium.transmissions", "mac.dcf.offered"):
            self.assertNotEqual(a[name], b[name], name)


if __name__ == "__main__":
    unittest.main()
