#!/usr/bin/env python3
"""Build and run the ShEF host benchmark.

Usage, from the root of the repository:

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Builds the `shef-perfbench` package (perfbench/Cargo.toml) in release
mode into $CARGO_TARGET_DIR (default: .bench_build), runs it with the
same arguments, and passes its output through. The last line of
standard output is the benchmark's JSON result; build output and
diagnostics go to standard error. Exits non-zero, printing no result,
if the build or the run fails.
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
MANIFEST = os.path.join(HERE, "Cargo.toml")
BUILD_TIMEOUT_S = 840
# Set-up, warm-up and the primitive timings run beyond --seconds.
RUN_GRACE_S = 60
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def seconds_arg(argv):
    for flag, value in zip(argv, argv[1:]):
        if flag == "--seconds":
            return float(value)
    raise ValueError("--seconds is required")


def main():
    argv = sys.argv[1:]
    try:
        timeout = seconds_arg(argv) + RUN_GRACE_S
    except ValueError as e:
        print(f"run.py: {e}", file=sys.stderr)
        return 2
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    build = [
        "cargo", "build", "--release", "--offline", "--locked", "--quiet",
        "--manifest-path", MANIFEST,
    ]
    try:
        built = subprocess.run(build, stdout=sys.stderr, env=env, timeout=BUILD_TIMEOUT_S)
    except (OSError, subprocess.TimeoutExpired) as e:
        print(f"run.py: build failed: {e}", file=sys.stderr)
        return 1
    if built.returncode != 0:
        print("run.py: build failed", file=sys.stderr)
        return 1

    exe = os.path.join(target, "release", "shef-perfbench")
    try:
        ran = subprocess.run([exe] + argv, stdout=subprocess.PIPE, text=True, timeout=timeout)
    except (OSError, subprocess.TimeoutExpired) as e:
        print(f"run.py: benchmark failed: {e}", file=sys.stderr)
        return 1
    lines = ran.stdout.strip().splitlines()
    if ran.returncode != 0 or not lines:
        print(f"run.py: benchmark exited with {ran.returncode}", file=sys.stderr)
        return ran.returncode or 1
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        result = None
    if not isinstance(result, dict) or set(result) != RESULT_KEYS:
        print("run.py: last line is not a benchmark result", file=sys.stderr)
        return 1
    sys.stdout.write(ran.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main())
