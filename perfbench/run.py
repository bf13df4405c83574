#!/usr/bin/env python3
"""Campaign benchmark entry point.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  Builds the measuring program from the
checkout's sources (perfbench/CMakeLists.txt) into
$CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench), runs one
workload, checks its pinned-seed answer against perfbench/pins.json, and
prints one JSON object as the last line of stdout:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are BENCHMARK.json's end_to_end metrics, with
--trace 1 its per_layer metrics.  Build logs and diagnostics go to stderr.
Exit status: 0 when the run is correct, 1 when it is not or cannot run, 2
for a bad command line.
"""

import argparse
import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
WORKLOADS = ("uniform_stream", "ensemble_sampled", "durable_readback")
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 840
# Pinned statistics are compared to this relative tolerance; digests and
# record counts exactly.
PIN_RTOL = 1e-12


def positive_number(text):
    value = float(text)
    if not (value > 0 and math.isfinite(value)):
        raise argparse.ArgumentTypeError(f"must be a positive number: {text!r}")
    return text


def bounded_int(lo, hi):
    def parse(text):
        if not re.fullmatch(r"[0-9]+", text) or not lo <= int(text) <= hi:
            raise argparse.ArgumentTypeError(
                f"not an integer in [{lo}, {hi}]: {text!r}")
        return text
    return parse


def parse_args(argv):
    p = argparse.ArgumentParser(
        prog="perfbench/run.py",
        description="Run one workload of the campaign benchmark.")
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", required=True, type=bounded_int(0, 2**64 - 1))
    p.add_argument("--seconds", required=True, type=positive_number)
    p.add_argument("--trace", required=True, choices=("0", "1"))
    p.add_argument("--injections", type=bounded_int(1, 2**31 - 1),
                   help="campaign size (default: the workload's own)")
    p.add_argument("--pins", default=str(BENCH_DIR / "pins.json"),
                   help="pinned answers to check against")
    p.add_argument("--perturb-replay", action="store_true",
                   help="break the traced replay on purpose (self-test)")
    return p.parse_args(argv)


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def build_dir():
    return ROOT / os.environ.get("CARGO_TARGET_DIR", ".bench_build") / "perfbench"


def build():
    """Configures (once) and builds the measuring program; returns its path."""
    if not (ROOT / "src" / "fault" / "campaign.cpp").is_file():
        raise RuntimeError(f"no library sources under {ROOT / 'src'}; run from "
                           "the root of a full checkout")
    out = build_dir()
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not (out / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(BENCH_DIR), "-B", str(out),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(out), "-j", jobs])
    for cmd in steps:
        subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr, check=True,
                       timeout=BUILD_TIMEOUT_S)
    return out / "perfbench"


def find_pin(pins, workload, injections):
    for pin in pins.get(workload, []):
        if pin["injections"] == injections:
            return pin
    return None


def pin_errors(pin, answer):
    if pin is None:
        return ["no pin for this workload and campaign size"]
    if answer is None:
        return ["the pinned-seed campaign did not finish"]
    errors = []
    for key, want in pin.items():
        if key in ("injections", "note"):
            continue
        got = answer.get(key)
        if isinstance(want, float):
            ok = isinstance(got, (int, float)) and math.isclose(
                got, want, rel_tol=PIN_RTOL, abs_tol=PIN_RTOL)
        else:
            ok = got == want
        if not ok:
            errors.append(f"pinned {key}: got {got!r}, want {want!r}")
    return errors


def main(argv):
    args = parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = spec["per_layer"] if args.trace == "1" else spec["end_to_end"]
    pins = json.loads(Path(args.pins).read_text())

    try:
        exe = build()
    except (RuntimeError, OSError, subprocess.SubprocessError) as e:
        log(f"build failed: {e}")
        return 1

    cmd = [str(exe), "--workload", args.workload, "--seed", args.seed,
           "--seconds", args.seconds, "--trace", args.trace,
           "--workdir", str(build_dir() / "work" / args.workload)]
    if args.injections:
        cmd += ["--injections", args.injections]
    if args.perturb_replay:
        cmd.append("--perturb-replay")
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr,
                              text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"measuring program exceeded {RUN_TIMEOUT_S} s")
        return 1
    lines = proc.stdout.strip().splitlines()
    if proc.returncode == 2 or not lines:
        log(f"measuring program exited {proc.returncode} without a result")
        return 1
    report = json.loads(lines[-1])

    errors = list(report["errors"])
    errors += pin_errors(find_pin(pins, args.workload, report["injections"]),
                         report["pinned"])
    metrics = {}
    for m in wanted:
        value = report["metrics"].get(m["name"])
        if value is None:
            if report["ok"]:
                errors.append(f"metric {m['name']} missing")
            continue
        metrics[m["name"]] = {"value": value, "unit": m["unit"]}
    for e in errors:
        log(e)

    correct = not errors
    attempted = max(1, report["attempted"])
    failed = report["failed"] if correct else attempted
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
