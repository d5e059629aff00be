#!/usr/bin/env python3
"""Builds and runs the PLASMA wall-clock benchmark.

Run from the repository root:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N --seconds S --trace 0|1
    python3 perfbench/run.py check

The first form runs one workload and ends its standard output with one
JSON line; `all` runs every workload in turn. `check` runs the reduced-size
instrumentation and seed checks. The script first builds the `perfbench`
binary and the `plasma-server` worker in release mode into
$CARGO_TARGET_DIR (default `.bench_build`); a failed build exits non-zero
without printing a result.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ["estore-skew-net", "estore-wide-sim", "media-churn-live"]


def build():
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    cmd = [
        "cargo", "build", "--release", "--offline", "--quiet",
        "--manifest-path", os.path.join(HERE, "Cargo.toml"),
        "-p", "perfbench", "-p", "plasma-net", "--bins",
    ]
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    # Cargo's own output goes to stderr: stdout carries only the result.
    if subprocess.run(cmd, env=env, stdout=sys.stderr).returncode != 0:
        sys.exit("perfbench: build failed")
    return os.path.join(target, "release", "perfbench")


def main(argv):
    binary = build()
    if "--workload" in argv:
        i = argv.index("--workload") + 1
        if i < len(argv) and argv[i] == "all":
            codes = [
                subprocess.run([binary] + argv[:i] + [w] + argv[i + 1:]).returncode
                for w in WORKLOADS
            ]
            return max(codes)
    return subprocess.run([binary] + argv).returncode


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
