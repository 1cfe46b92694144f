#!/usr/bin/env python3
"""Build and run the IPOP end-to-end benchmark.

Run from the root of a checkout:

    python3 perfbench/run.py --workload <name|all> --seed N --seconds S --trace <0|1>
    python3 perfbench/run.py --test        # the benchmark's own metric tests

The benchmark is compiled from the checkout's sources into the build
directory named by $CARGO_TARGET_DIR (default: .bench_build).  Build logs
go to stderr; the benchmark's stdout is passed through, and its last line
is one JSON object.  Exits nonzero, without a result line, when the build
fails or any correctness check fails.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
RUN_TIMEOUT_S = 170


def build(build_dir):
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        configure = ["cmake", "-S", HERE, "-B", build_dir,
                     "-DCMAKE_BUILD_TYPE=Release"]
        if subprocess.call(configure, stdout=sys.stderr, stderr=sys.stderr):
            return False
    return subprocess.call(["cmake", "--build", build_dir, "-j", jobs],
                           stdout=sys.stderr, stderr=sys.stderr) == 0


def run(cmd):
    """Run `cmd`, echo its stdout, and return (exit code, last line)."""
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        print(f"perfbench: run exceeded {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 1, ""
    lines = out.rstrip("\n").split("\n")
    for line in lines[:-1]:
        print(line)
    return proc.returncode, lines[-1] if lines else ""


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--test", action="store_true")
    args = ap.parse_args()
    if not args.test and not args.workload:
        ap.error("--workload is required")

    build_dir = os.path.abspath(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not build(build_dir):
        print("perfbench: build failed", file=sys.stderr)
        return 1
    if args.test:
        return subprocess.call([os.path.join(build_dir, "perfbench_metrics_test")])

    trace_dir = os.path.join(build_dir, "traces")
    os.makedirs(trace_dir, exist_ok=True)
    code, last = run([os.path.join(build_dir, "perfbench"),
                      "--workload", args.workload, "--seed", str(args.seed),
                      "--seconds", str(args.seconds), "--trace", str(args.trace),
                      "--trace-out", trace_dir])
    if code != 0:
        if last:
            print(last)
        print(f"perfbench: benchmark failed (exit {code})", file=sys.stderr)
        return 1
    try:
        result = json.loads(last)
    except ValueError:
        print("perfbench: no result line", file=sys.stderr)
        return 1
    if not result.get("correct"):
        print("perfbench: outputs were not correct", file=sys.stderr)
        return 1
    print(last)
    return 0


if __name__ == "__main__":
    sys.exit(main())
