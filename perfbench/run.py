#!/usr/bin/env python3
"""Build and run the bagalgd benchmark for one workload.

    python3 perfbench/run.py --workload serve_small --seed 1 --seconds 20 --trace 0

Run from the repository root. Builds bagalgd and the load generator from
the sources next to this directory (CMake, RelWithDebInfo) into
$CARGO_TARGET_DIR (default .bench_build) — a no-op when up to date — then
runs one measurement (see README.md). Build output goes to stderr; stdout
ends with the one-line JSON result. With --trace 1 the Chrome trace of the
replay is checked with tools/validate_obs.py before the result is printed.
Exits non-zero, without a result, when the build, the run or the trace
check fails.
"""

import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170


def build(build_dir):
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", build_dir, "-j", jobs,
                  "--target", "bagalgd", "perfbench"])
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr).returncode:
            return False
    return True


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    build_dir = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"),
                             "perfbench")
    if not build(build_dir):
        print("run.py: build failed", file=sys.stderr)
        return 1
    out_dir = os.path.join(build_dir, "out")
    os.makedirs(out_dir, exist_ok=True)

    command = [os.path.join(build_dir, "perfbench"),
               "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--server", os.path.join(build_dir, "bagalgd"),
               "--out-dir", out_dir]
    try:
        run = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                             timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("run.py: the run did not finish in time", file=sys.stderr)
        return 1
    if run.returncode != 0:
        sys.stderr.write(run.stdout)
        print(f"run.py: perfbench exited with {run.returncode}", file=sys.stderr)
        return 1

    if args.trace == 1:
        trace = os.path.join(out_dir, f"{args.workload}-seed{args.seed}.trace.json")
        validator = os.path.join(ROOT, "tools", "validate_obs.py")
        check = subprocess.run([sys.executable, validator, "--trace", trace],
                               stdout=sys.stderr, stderr=sys.stderr)
        if check.returncode != 0:
            print("run.py: the replay trace failed validation", file=sys.stderr)
            return 1

    sys.stdout.write(run.stdout)
    sys.stdout.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main())
