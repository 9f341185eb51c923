#!/usr/bin/env python3
"""Build and run the csbsim host-speed benchmark.

    python3 hostbench/run.py --workload paper_figs --seed 1 --trace 0

Run from the repository root.  --seconds defaults to run_seconds in
BENCHMARK.json.  The first call configures and builds the benchmark
(the csbsim libraries from src/ plus the program in this directory)
into .bench_build/; later calls only re-check the build.
Build output goes to stderr, so the last stdout line is the program's
JSON result.  With --trace 1 the recorded spans are written to
.bench_build/spans/<workload>_seed<seed>.json.

Extra flags after the known ones are passed to the program unchanged
(see main.cc: --ops, --drop-flush, --spans-out).
Exits non-zero, without a result line, when the sources or the build
are missing or broken.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
BINARY = os.path.join(BUILD, "hostbench")


def build():
    """Configure (once) and build the program; False on any failure."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        print("hostbench: csbsim sources (src/) not found next to "
              "hostbench/", file=sys.stderr)
        return False
    steps = []
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    jobs = str(min(4, os.cpu_count() or 1))
    steps.append(["cmake", "--build", BUILD, "--target", "hostbench",
                  "-j", jobs])
    for cmd in steps:
        # Keep stdout for the result line: build chatter goes to stderr.
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            print("hostbench: build step failed: " + " ".join(cmd),
                  file=sys.stderr)
            return False
    return os.access(BINARY, os.X_OK)


def run_seconds():
    """run_seconds of BENCHMARK.json, or None when it cannot be read."""
    try:
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            return json.load(f)["run_seconds"]
    except (OSError, ValueError, KeyError):
        return None


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=run_seconds())
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args, extra = parser.parse_known_args()

    if not build():
        return 3
    cmd = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
           "--trace", str(args.trace)]
    if args.seconds is not None:
        cmd += ["--seconds", str(args.seconds)]
    if args.trace and "--spans-out" not in extra:
        spans_dir = os.path.join(BUILD, "spans")
        os.makedirs(spans_dir, exist_ok=True)
        cmd += ["--spans-out", os.path.join(
            spans_dir, "%s_seed%d.json" % (args.workload, args.seed))]
    sys.stdout.flush()
    return subprocess.run(cmd + extra).returncode


if __name__ == "__main__":
    sys.exit(main())
