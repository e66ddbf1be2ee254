#!/usr/bin/env python3
"""Build and run the gateway serving benchmark.

Usage (from the repository root):

    python3 gwbench/run.py --workload trace_dense --seed 1 --seconds 10 --trace 0

The first call configures and builds the saiyan library and the
`gwbench` program (Release) under the build directory: `$CARGO_TARGET_DIR`
when set, else `.bench_build`, relative to the working directory. Later
calls rebuild only what changed. Generated inputs are cached by
(workload, seed) under `<build dir>/gwbench-inputs`.

The program's standard output is passed through unchanged; its last
line is the JSON result. Build output goes to standard error. The exit
code is the program's, or 2 when the build fails (no result line is
printed).
"""
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def build_dir():
    root = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return os.path.join(os.path.abspath(root), "gwbench")


def build(out):
    jobs = str(min(4, os.cpu_count() or 1))
    steps = [
        ["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", out, "--target", "gwbench", "-j", jobs],
    ]
    for cmd in steps:
        done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
        if done.returncode != 0:
            print("gwbench: build step failed: " + " ".join(cmd),
                  file=sys.stderr)
            return False
    return True


def main():
    out = build_dir()
    if not build(out):
        return 2
    binary = os.path.join(out, "gwbench")
    cache = os.path.join(os.path.dirname(out), "gwbench-inputs")
    cmd = [binary] + sys.argv[1:] + ["--cache", cache]
    sys.stdout.flush()
    return subprocess.run(cmd).returncode


if __name__ == "__main__":
    sys.exit(main())
