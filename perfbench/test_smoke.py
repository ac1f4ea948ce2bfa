"""Smoke test for the benchmark: every workload at tiny sizes.

    python3 perfbench/test_smoke.py      (or: python3 -m pytest perfbench/test_smoke.py)

It checks that each run prints every metric named in BENCHMARK.json with
its unit, that no operation failed (failed_ratio 0), that the per-layer
counters repeat exactly between two traced runs at one seed, and that the
benchmark refuses to run without the package source.
"""

import json
import shutil
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in BENCH["workloads"]]


def run(workload, trace, seed=0, cwd=ROOT):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed",
         str(seed), "--seconds", "1", "--trace", str(trace), "--smoke"],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )
    return proc


def result(proc):
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


class SmokeTest(unittest.TestCase):
    def check_result(self, res, spec):
        self.assertEqual(set(res), {"correct", "attempted", "failed", "metrics"})
        self.assertTrue(res["correct"])
        self.assertGreaterEqual(res["attempted"], 1)
        self.assertEqual(res["failed"] / res["attempted"], 0.0)  # failed_ratio
        self.assertEqual(
            {name: m["unit"] for name, m in res["metrics"].items()},
            {m["name"]: m["unit"] for m in spec},
        )

    def test_end_to_end(self):
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                res = result(run(workload, 0))
                self.check_result(res, BENCH["end_to_end"])
                for name, metric in res["metrics"].items():
                    self.assertGreater(metric["value"], 0, name)

    def test_per_layer_counts_repeat(self):
        counters = [m["name"] for m in BENCH["per_layer"] if m["unit"] == "count"]
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                first = result(run(workload, 1, seed=3))
                second = result(run(workload, 1, seed=3))
                self.check_result(first, BENCH["per_layer"])
                self.assertEqual(
                    {c: first["metrics"][c]["value"] for c in counters},
                    {c: second["metrics"][c]["value"] for c in counters},
                )

    def test_refuses_without_package(self):
        out = ROOT / ".perfbench_out"
        out.mkdir(exist_ok=True)
        with tempfile.TemporaryDirectory(dir=out) as bare:
            shutil.copy(ROOT / "BENCHMARK.json", bare)
            for path in BENCH["paths"]:
                shutil.copytree(ROOT / path, Path(bare) / path,
                                ignore=shutil.ignore_patterns("__pycache__"))
            proc = run(WORKLOADS[0], 0, cwd=bare)
        self.assertNotEqual(proc.returncode, 0)
        self.assertNotIn('"metrics"', proc.stdout)


if __name__ == "__main__":
    unittest.main()
