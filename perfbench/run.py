#!/usr/bin/env python3
"""Build and run libpfi's benchmark.

    python3 perfbench/run.py --workload gmp-campaign --seed 1 --seconds 12 --trace 0

Run from the root of a checkout. The first run configures and builds the
library from src/ together with the benchmark (Release) under
$CARGO_TARGET_DIR (default .bench_build), then runs the arithmetic
self-test and the perfbench binary. Build output goes to stderr; the
binary's last line on stdout is the JSON result. Exits non-zero, without a result, when
the build, the self-test or the benchmark fails.
"""
import os
import subprocess
import sys


def main():
    here = os.path.dirname(os.path.abspath(__file__))
    root = os.path.dirname(here)
    out = os.path.join(root, os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    build = os.path.join(out, "perfbench")
    jobs = str(max(1, min(3, os.cpu_count() or 1)))

    steps = []
    if not os.path.exists(os.path.join(build, "Makefile")):  # configured
        steps.append(["cmake", "-S", here, "-B", build, "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", build, "-j", jobs])
    steps.append([os.path.join(build, "perfbench_selftest")])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, cwd=root).returncode != 0:
            print("perfbench: step failed: " + " ".join(cmd), file=sys.stderr)
            return 1

    bench = [os.path.join(build, "perfbench"), *sys.argv[1:],
             "--root", root, "--artifacts", build]
    return subprocess.run(bench, cwd=root).returncode


if __name__ == "__main__":
    sys.exit(main())
