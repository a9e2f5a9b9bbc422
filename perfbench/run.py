#!/usr/bin/env python3
"""Builds perfbench from source and runs one workload.

Usage, from the root of the repository:

  python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
  python3 perfbench/run.py --self-test

The first form builds the benchmark (CMake, RelWithDebInfo) into
.bench_build/perfbench when it is missing or stale, then runs it; the build
log goes to stderr, and the benchmark's last line of stdout is the result.
NAME is sim-underload, sim-overload, serve-backlog or serve-paced. The
second form builds and runs the tests of the benchmark's output checks.
Without the library sources next to perfbench/ it fails with exit code 2.
"""

import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SOURCE = os.path.join(ROOT, "perfbench")
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")


def build(target):
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        sys.stderr.write("perfbench: library sources (src/) not found next "
                         "to perfbench/\n")
        sys.exit(2)
    log = sys.stderr
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", SOURCE, "-B", BUILD,
                        "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
                       stdout=log, check=True)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    subprocess.run(["cmake", "--build", BUILD, "-j", jobs, "--target", target],
                   stdout=log, check=True)
    return os.path.join(BUILD, target)


def main(argv):
    try:
        if argv == ["--self-test"]:
            return subprocess.run([build("perfbench_checks_test")]).returncode
        binary = build("perfbench")
    except (OSError, subprocess.CalledProcessError) as e:
        sys.stderr.write("perfbench: build failed: %s\n" % e)
        return 2
    return subprocess.run([binary] + argv).returncode


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
