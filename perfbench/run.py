#!/usr/bin/env python3
"""Build the benchmark from source and run one workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a checkout. It builds perfbench/bench.exe with
dune into .bench_build, with dune's shared cache off so nothing is
written outside the checkout, then runs it from the root with the same
arguments. The last line of standard output is the benchmark's JSON
result. If the build or a check fails, the exit code is not 0; a failed
build prints no result.
"""

import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD_DIR = ".bench_build"
EXE = os.path.join(ROOT, BUILD_DIR, "default", "perfbench", "bench.exe")


def main():
    env = dict(os.environ, DUNE_CACHE="disabled")
    try:
        build = subprocess.run(
            ["dune", "build", "--root", ROOT, "--build-dir", BUILD_DIR,
             "./perfbench/bench.exe"],
            cwd=ROOT, env=env, stdout=sys.stderr, timeout=840)
    except (OSError, subprocess.TimeoutExpired) as e:
        print("perfbench: build did not finish: %s" % e, file=sys.stderr)
        return 2
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 2
    try:
        return subprocess.run([EXE] + sys.argv[1:], cwd=ROOT, timeout=175).returncode
    except subprocess.TimeoutExpired:
        print("perfbench: run exceeded 175 s", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
