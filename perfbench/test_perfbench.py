#!/usr/bin/env python3
"""The benchmark's own tests.

    python3 perfbench/test_perfbench.py

Each test runs perfbench/run.py briefly (1 s of sweeps) from the checkout
root, so the first test also builds xr_perfbench if needed.
"""
import json
import pathlib
import shutil
import subprocess
import sys
import tempfile
import unittest

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def run_bench(workload, seed=3, trace=0, extra=(), cwd=ROOT,
              script=HERE / "run.py"):
    cmd = [sys.executable, str(script), "--workload", workload, "--seed",
           str(seed), "--seconds", "1", "--trace", str(trace), *extra]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True,
                          timeout=900)


def result_of(proc):
    return json.loads(proc.stdout.strip().splitlines()[-1])


class PerfbenchTest(unittest.TestCase):
    def test_untraced_run_reports_every_end_to_end_metric(self):
        names = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
        for w in WORKLOADS:
            with self.subTest(workload=w):
                proc = run_bench(w)
                self.assertEqual(proc.returncode, 0, proc.stderr)
                result = result_of(proc)
                self.assertTrue(result["correct"])
                self.assertEqual(result["failed"], 0)
                self.assertGreaterEqual(result["attempted"], 1)
                metrics = result["metrics"]
                self.assertEqual(
                    {k: v["unit"] for k, v in metrics.items()}, names)
                for name, m in metrics.items():
                    self.assertGreater(m["value"], 0, name)

    def test_traced_run_reports_every_per_layer_metric(self):
        names = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
        for w in WORKLOADS:
            with self.subTest(workload=w):
                proc = run_bench(w, trace=1)
                self.assertEqual(proc.returncode, 0, proc.stderr)
                metrics = result_of(proc)["metrics"]
                self.assertEqual(
                    {k: v["unit"] for k, v in metrics.items()}, names)
                self.assertLess(metrics["unattributed_share"]["value"], 1)

    def test_corrupted_reference_fails_every_sweep(self):
        for w in WORKLOADS:
            with self.subTest(workload=w):
                proc = run_bench(w, extra=["--corrupt-reference"])
                self.assertNotEqual(proc.returncode, 0)
                result = result_of(proc)
                self.assertFalse(result["correct"])
                self.assertEqual(result["failed"], result["attempted"])

    def test_seed_names_the_inputs(self):
        def fingerprint_line(seed):
            proc = run_bench("service_leases", seed=seed)
            self.assertEqual(proc.returncode, 0, proc.stderr)
            return proc.stdout.splitlines()[0]

        self.assertEqual(fingerprint_line(5), fingerprint_line(5))
        self.assertNotEqual(fingerprint_line(5), fingerprint_line(6))

    def test_refuses_to_run_without_the_library_sources(self):
        with tempfile.TemporaryDirectory() as tmp:
            shutil.copy(ROOT / "BENCHMARK.json", tmp)
            shutil.copytree(HERE, pathlib.Path(tmp) / HERE.name,
                            ignore=shutil.ignore_patterns("__pycache__"))
            proc = run_bench(WORKLOADS[0], cwd=tmp,
                             script=pathlib.Path(tmp) / HERE.name / "run.py")
        self.assertNotEqual(proc.returncode, 0)
        self.assertEqual(proc.stdout.strip(), "")


if __name__ == "__main__":
    unittest.main()
