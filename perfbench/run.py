#!/usr/bin/env python3
"""Run one workload of the flashhp repository benchmark.

    python3 perfbench/run.py --workload sedov3d --seed 1 --seconds 15 --trace 0

Builds the benchmark from source on first use (CMake, Release) into
$CARGO_TARGET_DIR, or .bench_build at the repository root when that is
unset; runs the preparation step (Helm table caches, backing record)
outside any timed window; then runs the workload. The last line of
standard output is the JSON result. Build and preparation output goes to
standard error.

Exit status: that of the measuring program (0 correct, 1 failed gate or
error), 1 if the build fails, 2 on a bad command line.
"""

import argparse
import os
import pathlib
import subprocess
import sys

HERE = pathlib.Path(__file__).resolve().parent
REPO = HERE.parent
WORKLOADS = ("sedov3d", "supernova2d_traced", "svc_mixed")


def parse_args(argv):
    parser = argparse.ArgumentParser(
        prog="run.py", description="flashhp repository benchmark")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)  # exits 2 with a message on a bad flag
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    if not 1 <= args.seconds <= 600:
        parser.error("--seconds must be in [1, 600]")
    return args


def build_dir():
    target = os.environ.get("CARGO_TARGET_DIR")
    return pathlib.Path(target).resolve() if target else REPO / ".bench_build"


def step(cmd):
    """Run a build/preparation command with its output on stderr."""
    result = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                            check=False)
    if result.returncode != 0:
        print(f"run.py: '{' '.join(map(str, cmd))}' failed "
              f"({result.returncode})", file=sys.stderr)
        sys.exit(1)


def main(argv):
    args = parse_args(argv)
    if not ((REPO / "CMakeLists.txt").is_file() and (REPO / "src").is_dir()):
        print(f"run.py: no flashhp source tree at {REPO}", file=sys.stderr)
        return 1
    build = build_dir()
    if not (build / "CMakeCache.txt").is_file():
        step(["cmake", "-S", HERE, "-B", build, "-DCMAKE_BUILD_TYPE=Release"])
    step(["cmake", "--build", build, "--target", "perfbench", "-j",
          str(os.cpu_count() or 1)])
    binary = build / "perfbench"
    cache = build / "cache"
    step([binary, "prepare", "--cache", cache])
    return subprocess.run(
        [binary, "run", "--workload", args.workload, "--seed",
         str(args.seed), "--seconds", str(args.seconds), "--trace",
         str(args.trace), "--cache", cache],
        check=False).returncode


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
