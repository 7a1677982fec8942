#!/usr/bin/env python3
"""Builds and runs the kertbn benchmark.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload <report_scenario|ediamond_serve|fleet_1k>
                             --seed <n> --seconds <s> --trace <0|1>

The first run configures and builds perfbench/ (which pulls in the library
sources from src/) as a Release build under .bench_build/ in the checkout;
later runs only re-check the build. Build output goes to stderr, so the
benchmark's own output, ending in one JSON line, is all that reaches
stdout. See perfbench/README.md for the workloads and metrics.
"""

import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build")
BINARY = os.path.join(BUILD_DIR, "kertbn_perfbench")
WORKLOADS = ("report_scenario", "ediamond_serve", "fleet_1k")


def build():
    """Configures (once) and builds kertbn_perfbench; True on success."""
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD_DIR,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD_DIR, "--target",
                  "kertbn_perfbench", "-j", jobs])
    for cmd in steps:
        if subprocess.run(cmd, cwd=ROOT, stdout=sys.stderr).returncode != 0:
            return False
    return os.path.isfile(BINARY)


def commit():
    """The checkout's git commit, or "unknown" outside a git repository."""
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                             capture_output=True, text=True)
    except OSError:
        return "unknown"
    sha = out.stdout.strip()
    return sha if out.returncode == 0 and sha else "unknown"


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (os.path.isfile(os.path.join(ROOT, "CMakeLists.txt")) and
            os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt"))):
        print("error: kertbn sources (CMakeLists.txt, src/) not found beside "
              "perfbench/", file=sys.stderr)
        return 2
    if not build():
        print("error: building the benchmark failed", file=sys.stderr)
        return 3

    cmd = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace),
           "--build-dir", BUILD_DIR, "--commit", commit()]
    sys.stdout.flush()
    return subprocess.run(cmd, cwd=ROOT).returncode


if __name__ == "__main__":
    sys.exit(main())
