#!/usr/bin/env python3
"""Tests of the repository benchmark. Run from anywhere:

    python3 perfbench/test_perfbench.py

They build and run the benchmark with short runs, so they take a few
minutes; they write only under the benchmark's build directory.
"""
import importlib.util
import json
import os
import shutil
import subprocess
import sys
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUN = HERE / "run.py"
SECONDS = "2"


def load_run_module():
    spec = importlib.util.spec_from_file_location("perfbench_run", RUN)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def bench(*extra, cwd=ROOT, env=None):
    """Runs the checkout's run.py from its root, as the benchmark command does;
    returns (exit code, parsed result line or None)."""
    proc = subprocess.run([sys.executable, "perfbench/run.py", *extra], cwd=str(cwd),
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
                          env=env, timeout=900)
    lines = proc.stdout.strip().splitlines()
    result = None
    if lines:
        try:
            result = json.loads(lines[-1])
        except json.JSONDecodeError:
            result = None
    return proc.returncode, result


class MetricNames(unittest.TestCase):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())

    def check(self, trace, key):
        code, result = bench("--workload", "apps", "--seed", "3", "--seconds", SECONDS,
                             "--trace", trace)
        self.assertEqual(code, 0)
        self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
        self.assertTrue(result["correct"])
        self.assertEqual(result["failed"], 0)
        self.assertGreaterEqual(result["attempted"], 1)
        want = {m["name"]: m["unit"] for m in self.spec[key]}
        got = {k: v["unit"] for k, v in result["metrics"].items()}
        self.assertEqual(got, want)

    def test_untraced_prints_every_end_to_end_metric(self):
        self.check("0", "end_to_end")

    def test_traced_prints_every_per_layer_metric(self):
        self.check("1", "per_layer")


class CorruptedOutputs(unittest.TestCase):
    def test_each_phase_counts_a_corrupted_output(self):
        for phase in ["query", "serve", "cell", "replay"]:
            with self.subTest(phase=phase):
                code, result = bench("--workload", "ycsb", "--seed", "5", "--seconds", SECONDS,
                                     "--trace", "0", "--corrupt", phase)
                self.assertEqual(code, 0)
                self.assertFalse(result["correct"])
                self.assertGreater(result["failed"], 0)


class Pins(unittest.TestCase):
    def test_changed_exact_output_is_a_mismatch(self):
        run = load_run_module()
        pins = json.loads(run.PINS.read_text())
        workload = sorted(pins)[0]
        seed = sorted(pins[workload], key=int)[0]
        exact = dict(pins[workload][seed])
        self.assertEqual(run.check_pins(workload, seed, exact), (True, []))
        key = sorted(exact)[0]
        exact[key] = "0"
        self.assertEqual(run.check_pins(workload, seed, exact), (True, [key]))

    def test_unpinned_seed_is_not_checked(self):
        run = load_run_module()
        self.assertEqual(run.check_pins("apps", 10**12, {"query.checksum": "x"}), (False, []))


class SourcelessCheckout(unittest.TestCase):
    def test_fails_without_a_result_when_only_the_benchmark_is_present(self):
        build = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
        build = build if build.is_absolute() else ROOT / build
        bare = build / "bare-checkout"
        shutil.rmtree(bare, ignore_errors=True)
        bare.mkdir(parents=True)
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(HERE, bare / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        env = {k: v for k, v in os.environ.items() if k != "CARGO_TARGET_DIR"}
        try:
            code, result = bench("--workload", "apps", "--seed", "1", "--seconds", "1",
                                 "--trace", "0", cwd=bare, env=env)
        finally:
            shutil.rmtree(bare, ignore_errors=True)
        self.assertNotEqual(code, 0)
        self.assertIsNone(result)


if __name__ == "__main__":
    unittest.main(verbosity=2)
