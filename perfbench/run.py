#!/usr/bin/env python3
"""Builds the wsq benchmark binary and runs one workload (or all).

Usage, from the repository root:

    python3 perfbench/run.py --workload live-chatty --seed 1 --seconds 20 --trace 0

Workloads: live-chatty, live-bulk, sim-shared-server, or "all" to run the
three in turn. The binary is configured and built under .bench_build/
(CMake, Release) on first use; later runs only re-check the build.

The binary prints every metric with its unit and sample count, and as
its last line one JSON object with the keys correct, attempted, failed
and metrics. --trace 0 reports the end-to-end metrics; --trace 1 runs
untraced and traced phases alternately and reports the per-layer
metrics, writing the traced spans to .bench_out/. The exit code is 0
only when the build succeeded and every output check passed.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
OUT_DIR = os.path.join(ROOT, ".bench_out")
BINARY = os.path.join(BUILD_DIR, "wsq_perfbench")
WORKLOADS = ["live-chatty", "live-bulk", "sim-shared-server"]
BUILD_JOBS = "3"


def run_timeout_s(seconds):
    """Time one binary run may take: the measurement, twice over for the
    traced run's phases and slack, plus set-up and the content check."""
    return seconds * 2 + 120


def build():
    """Configures (once) and builds the binary; build output goes to stderr."""
    steps = []
    if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD_DIR,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD_DIR, "--target", "wsq_perfbench",
                  "-j", BUILD_JOBS])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            return False
    return os.path.exists(BINARY)


def run_workload(workload, args):
    """Runs the binary once; returns its parsed result line, or None."""
    cmd = [BINARY, "--workload", workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        os.makedirs(OUT_DIR, exist_ok=True)
        cmd += ["--spans", os.path.join(
            OUT_DIR, "spans-%s-seed%d.json" % (workload, args.seed))]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=run_timeout_s(args.seconds))
    except subprocess.TimeoutExpired:
        print("%s: timed out" % workload, file=sys.stderr)
        return None
    lines = proc.stdout.rstrip("\n").split("\n")
    body, last = lines[:-1], lines[-1]
    if body:
        print("\n".join(body), flush=True)
    try:
        result = json.loads(last)
    except ValueError:
        print("%s: no result line" % workload, file=sys.stderr)
        return None
    if proc.returncode != 0 or result.get("correct") is not True:
        print("%s: output check failed (exit %d)" % (workload, proc.returncode),
              file=sys.stderr)
        return None
    return result


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOADS + ["all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], required=True)
    args = parser.parse_args()
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")

    if not build():
        print("build failed", file=sys.stderr)
        return 2

    if args.workload != "all":
        result = run_workload(args.workload, args)
        if result is None:
            return 1
        print(json.dumps(result))
        return 0

    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in WORKLOADS:
        result = run_workload(workload, args)
        if result is None:
            return 1
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for name, metric in result["metrics"].items():
            combined["metrics"]["%s/%s" % (workload, name)] = metric
    print(json.dumps(combined))
    return 0


if __name__ == "__main__":
    sys.exit(main())
