#!/usr/bin/env python3
"""Build the simulator from source and run the end-to-end benchmark.

From the repository root:

    python3 perfbench/run.py --workload paper_closed --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --selftest

The first call configures and compiles perfbench/ (which pulls in ../src)
into .bench_build/perfbench; later calls only re-check the build. Build
output goes to stderr, so the last line of stdout is the benchmark's JSON
result. With --trace 1 the kept layer spans are written as a Chrome trace
to .bench_build/perfbench/spans-<workload>.json.
"""
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
BUILD = os.path.join(os.path.dirname(HERE), ".bench_build", "perfbench")
BINARY = os.path.join(BUILD, "perfbench")


def build():
    steps = []
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=Release"])
    jobs = str(min(4, os.cpu_count() or 1))
    steps.append(["cmake", "--build", BUILD, "--target", "perfbench",
                  "-j", jobs])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            return False
    return True


def main(argv):
    if not build():
        print("perfbench: build failed", file=sys.stderr)
        return 1
    args = list(argv)
    if "--trace" in args and "--workload" in args and "--trace-out" not in args:
        trace = args[args.index("--trace") + 1:][:1]
        workload = args[args.index("--workload") + 1:][:1]
        if trace == ["1"] and workload:
            args += ["--trace-out",
                     os.path.join(BUILD, "spans-%s.json" % workload[0])]
    return subprocess.run([BINARY] + args).returncode


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
