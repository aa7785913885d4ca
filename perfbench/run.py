#!/usr/bin/env python3
"""Builds and runs the hierdb benchmark.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root. The first run configures and compiles the
hierdb library and the benchmark into .bench_build/ (Release); later runs
rebuild only what changed. Build output goes to standard error, so the last
line of standard output is the benchmark's JSON result. Exits non-zero,
without a result, when the build or the run fails.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
BINARY = os.path.join(BUILD, "hierdb_perf")


def build():
    # Compiler temporaries stay inside the build directory.
    env = dict(os.environ, TMPDIR=os.path.join(BUILD, "tmp"))
    os.makedirs(env["TMPDIR"], exist_ok=True)
    steps = []
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "-j", "4"])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                          env=env).returncode != 0:
            return False
    return True


def main():
    if not build():
        print("build failed", file=sys.stderr)
        return 1
    proc = subprocess.run([BINARY] + sys.argv[1:], stdout=subprocess.PIPE,
                          stderr=sys.stderr, text=True)
    sys.stdout.write(proc.stdout)
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())
