#!/usr/bin/env python3
"""Builds the perfbench binary from source and runs one workload.

Run from the root of a checkout:

  python3 perfbench/run.py --workload browse --seed 1 --seconds 20 --trace 0

The binary is built with CMake into $CARGO_TARGET_DIR/perfbench (default
.bench_build/perfbench under the checkout root). Its report is passed
through; the last line printed is one JSON object holding the metrics that
BENCHMARK.json lists for the mode (end_to_end for --trace 0, per_layer for
--trace 1), plus whether every correctness check passed. The exit status is
non-zero when the build fails, a check fails or a metric is missing.
"""

import argparse
import fcntl
import json
import math
import os
import shutil
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BINARY_TIMEOUT_S = 170


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(1)


def load_benchmark():
    path = os.path.join(ROOT, "BENCHMARK.json")
    try:
        with open(path) as f:
            return json.load(f)
    except (OSError, ValueError) as e:
        fail(f"cannot read {path}: {e}")


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "perfbench")


def build():
    """Configures (once) and builds the binary; returns its path."""
    out = build_dir()
    os.makedirs(out, exist_ok=True)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    # Concurrent runs in one checkout share the build directory.
    with open(os.path.join(out, "build.lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
            configure = ["cmake", "-S", os.path.join(ROOT, "perfbench"),
                         "-B", out, "-DCMAKE_BUILD_TYPE=Release"]
            if shutil.which("ninja"):
                configure += ["-G", "Ninja"]
            if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
                shutil.rmtree(out, ignore_errors=True)
                fail("cmake configure failed")
        compile_cmd = ["cmake", "--build", out, "--target", "perfbench",
                       "-j", jobs]
        if subprocess.run(compile_cmd, stdout=sys.stderr).returncode != 0:
            fail("build failed")
    return os.path.join(out, "perfbench")


def result_line(report, names, units):
    metrics = {}
    for name in names:
        m = report["metrics"].get(name)
        if m is None or not isinstance(m.get("value"), (int, float)):
            fail(f"metric {name} missing from the report")
        if not math.isfinite(m["value"]):
            fail(f"metric {name} is not finite")
        if m["unit"] != units[name]:
            fail(f"metric {name} has unit {m['unit']}, "
                 f"BENCHMARK.json says {units[name]}")
        metrics[name] = {"value": m["value"], "unit": m["unit"]}
    if report["attempted"] < 1:
        fail("no operation was attempted")
    return {"correct": bool(report["correct"]),
            "attempted": int(report["attempted"]),
            "failed": int(report["failed"]),
            "metrics": metrics}


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args()

    if args.seed < 0 or args.seed >= 2**53 or args.seconds <= 0:
        fail("--seed must be in [0, 2^53) and --seconds positive")

    bench = load_benchmark()
    if args.workload not in [w["name"] for w in bench["workloads"]]:
        fail(f"unknown workload {args.workload}")
    section = bench["per_layer" if args.trace else "end_to_end"]
    names = [m["name"] for m in section]
    units = {m["name"]: m["unit"] for m in section}

    binary = build()
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace)]
    try:
        run = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                             timeout=BINARY_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"perfbench did not finish within {BINARY_TIMEOUT_S} s")
    lines = run.stdout.rstrip("\n").split("\n")
    try:
        report = json.loads(lines[-1])
    except ValueError:
        sys.stdout.write(run.stdout)
        fail(f"perfbench exited with {run.returncode} and no report")
    for line in lines[:-1]:
        print(line)
    print("report " + lines[-1])
    result = result_line(report, names, units)
    print(json.dumps(result))
    sys.stdout.flush()
    return 0 if result["correct"] and run.returncode == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
