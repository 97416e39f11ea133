#!/usr/bin/env python3
"""Self-test of the paper-suite benchmark at tiny sizes.

    python3 perfbench/test_run.py

Runs every workload of BENCHMARK.json through run.py with --tiny: once
untraced and twice traced. Checks that every metric BENCHMARK.json names is
emitted with its unit, that no cell failed, and that every count and
virtual-time metric repeats exactly between the two traced runs. Also
checks that run.py refuses to run, without printing a result, where the
simulator's sources are missing.
"""

import json
import shutil
import subprocess
import sys
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
# Host measurements differ from run to run; every other metric is a count
# or a virtual time of a deterministic simulation and must repeat exactly.
HOST_UNITS = {"s", "ns"}
HOST_METRICS = {"mem.minor_faults", "trace.overhead_frac"}


def bench(workload, trace, cwd=ROOT):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", "7", "--seconds", "1", "--trace", str(trace), "--tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=900)
    return proc


class TinyWorkloads(unittest.TestCase):
    def result(self, workload, trace):
        proc = bench(workload, trace)
        self.assertEqual(proc.returncode, 0, proc.stderr[-3000:])
        return json.loads(proc.stdout.strip().splitlines()[-1])

    def check(self, result, kind):
        self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
        self.assertTrue(result["correct"])
        self.assertGreaterEqual(result["attempted"], 1)
        self.assertEqual(result["failed"], 0)  # fail_frac == 0
        self.assertEqual(list(result["metrics"]), [m["name"] for m in SPEC[kind]])
        for spec in SPEC[kind]:
            metric = result["metrics"][spec["name"]]
            self.assertEqual(metric["unit"], spec["unit"], spec["name"])
            self.assertIsInstance(metric["value"], (int, float), spec["name"])
            if kind == "end_to_end":
                self.assertGreater(metric["value"], 0, spec["name"])

    def test_workloads(self):
        for w in (w["name"] for w in SPEC["workloads"]):
            with self.subTest(workload=w):
                self.check(self.result(w, 0), "end_to_end")
                first, second = self.result(w, 1), self.result(w, 1)
                self.check(first, "per_layer")
                self.check(second, "per_layer")
                for spec in SPEC["per_layer"]:
                    if spec["unit"] in HOST_UNITS or spec["name"] in HOST_METRICS:
                        continue
                    self.assertEqual(first["metrics"][spec["name"]]["value"],
                                     second["metrics"][spec["name"]]["value"],
                                     f"{w}: {spec['name']}")

    def test_refuses_without_sources(self):
        bare = ROOT / ".bench_build" / "selftest-bare"
        shutil.rmtree(bare, ignore_errors=True)
        shutil.copytree(HERE, bare / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        proc = bench(SPEC["workloads"][0]["name"], 0, cwd=bare)
        shutil.rmtree(bare)
        self.assertNotEqual(proc.returncode, 0)
        self.assertEqual(proc.stdout, "")


if __name__ == "__main__":
    unittest.main()
