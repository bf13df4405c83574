#!/usr/bin/env python3
"""Self-tests for the campaign benchmark.

    python3 perfbench/selftest.py

Run from the root of a checkout; builds the measuring program like
run.py does.  Covers a small run of every workload, traced and untraced,
the digest-pin check, the replay-fidelity gate, and the command-line
errors that must exit 2.  Takes about a minute.
"""

import json
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR))
import run  # noqa: E402  (the entry point under test)

SMALL = "2000"  # campaign size with its own pins in pins.json
RUN_PY = [sys.executable, str(BENCH_DIR / "run.py")]


def bench(*args, pins=None):
    """Runs run.py; returns (exit status, parsed result or None, stderr)."""
    cmd = RUN_PY + list(args)
    if pins is not None:
        cmd += ["--pins", pins]
    proc = subprocess.run(cmd, capture_output=True, text=True, cwd=run.ROOT,
                          timeout=300)
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines else None
    return proc.returncode, result, proc.stderr


def small(workload, trace, *extra, pins=None):
    return bench("--workload", workload, "--seed", "3", "--seconds", "0.5",
                 "--trace", trace, "--injections", SMALL, *extra, pins=pins)


class Workloads(unittest.TestCase):
    def test_every_workload_reports_every_metric(self):
        spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
        for workload in run.WORKLOADS:
            for trace, key in (("0", "end_to_end"), ("1", "per_layer")):
                with self.subTest(workload=workload, trace=trace):
                    status, result, err = small(workload, trace)
                    self.assertEqual(status, 0, err)
                    self.assertTrue(result["correct"], err)
                    self.assertEqual(result["failed"], 0)
                    self.assertGreaterEqual(result["attempted"], int(SMALL))
                    names = [m["name"] for m in spec[key]]
                    self.assertEqual(sorted(result["metrics"]), sorted(names))
                    if trace == "1":
                        self.assertGreaterEqual(
                            result["metrics"]["layers.coverage"]["value"], 0.95)

    def test_uniform_stream_is_micro_campaign_headline(self):
        pins = json.loads((BENCH_DIR / "pins.json").read_text())
        pin = run.find_pin(pins, "uniform_stream", 20000)
        self.assertEqual(pin["digest"], "cd40a321b81e3a0e")
        status, result, err = bench("--workload", "uniform_stream", "--seed",
                                    "7", "--seconds", "0.1", "--trace", "0",
                                    "--injections", "20000")
        self.assertEqual(status, 0, err)
        self.assertTrue(result["correct"])


class Gates(unittest.TestCase):
    def test_pin_mismatch_fails_every_injection(self):
        pins = json.loads((BENCH_DIR / "pins.json").read_text())
        pin = run.find_pin(pins, "uniform_stream", int(SMALL))
        pin["digest"] = "0" * 16
        with tempfile.NamedTemporaryFile("w", suffix=".json") as f:
            json.dump(pins, f)
            f.flush()
            status, result, err = small("uniform_stream", "0", pins=f.name)
        self.assertEqual(status, 1)
        self.assertFalse(result["correct"])
        self.assertEqual(result["failed"], result["attempted"])
        self.assertIn("pinned digest", err)

    def test_unpinned_size_is_not_correct(self):
        status, result, err = bench("--workload", "durable_readback", "--seed",
                                    "3", "--seconds", "0.1", "--trace", "0",
                                    "--injections", "1000")
        self.assertEqual(status, 1)
        self.assertFalse(result["correct"])
        self.assertIn("no pin", err)

    def test_unfaithful_replay_publishes_nothing(self):
        for workload in run.WORKLOADS:
            with self.subTest(workload=workload):
                status, result, err = small(workload, "1", "--perturb-replay")
                self.assertEqual(status, 1)
                self.assertFalse(result["correct"])
                self.assertEqual(result["metrics"], {})
                self.assertIn("replay digest", err)


class CommandLine(unittest.TestCase):
    GOOD = ["--workload", "uniform_stream", "--seed", "1", "--seconds", "1",
            "--trace", "0"]

    def with_arg(self, flag, value):
        args = list(self.GOOD)
        args[args.index(flag) + 1] = value
        return args

    def assert_usage_error(self, cmd):
        proc = subprocess.run(cmd, capture_output=True, text=True,
                              cwd=run.ROOT, timeout=60)
        self.assertEqual(proc.returncode, 2, proc.stderr)
        self.assertIn("usage:", proc.stderr)
        self.assertEqual(proc.stdout, "")

    def bad_argument_lists(self):
        return [
            self.GOOD + ["--bogus"],
            self.GOOD[:-2],
            self.with_arg("--workload", "nope"),
            self.with_arg("--seed", "12abc"),
            self.with_arg("--seed", "-1"),
            self.with_arg("--seed", "18446744073709551616"),
            self.with_arg("--seconds", "fast"),
            self.with_arg("--seconds", "0"),
            self.with_arg("--trace", "2"),
        ]

    def test_run_py_rejects_bad_arguments(self):
        for args in self.bad_argument_lists():
            with self.subTest(args=args):
                self.assert_usage_error(RUN_PY + args)

    def test_measuring_program_rejects_bad_arguments(self):
        exe = str(run.build())
        for args in self.bad_argument_lists() + [self.GOOD]:
            with self.subTest(args=args):
                # GOOD alone lacks --workdir, which the program requires.
                self.assert_usage_error([exe] + args)
        self.assert_usage_error(
            [exe] + self.GOOD + ["--workdir", "w", "--injections", "0"])


if __name__ == "__main__":
    run.build()
    unittest.main(verbosity=2)
