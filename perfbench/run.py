#!/usr/bin/env python3
"""Builds and runs the end-to-end TPC-W benchmark.

Run from the repository root:

    python3 perfbench/run.py --workload browse --seed 1 --seconds 20 --trace 0

One run prints one workload's end-to-end metrics (--trace 0) or per-layer
metrics (--trace 1). --report runs every workload both ways and prints all
the reports:

    python3 perfbench/run.py --report --seed 1 --seconds 20

The benchmark binary is built from source under .bench_build/ (or
$CARGO_TARGET_DIR when set) on the first run and reused afterwards. Build
output goes to stderr; stdout is the benchmark's report, whose last line is
the JSON result. WAL files live under the build directory for the length of
one run and are removed by the benchmark.
"""

import argparse
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170
WORKLOADS = ["browse", "order", "longtail"]


def build(build_root):
    build_dir = os.path.join(build_root, "perfbench")
    configure = ["cmake", "-S", HERE, "-B", build_dir,
                 "-DCMAKE_BUILD_TYPE=Release"]
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        configure += ["-G", "Ninja"] if shutil.which("ninja") else []
    for cmd in (configure,
                ["cmake", "--build", build_dir, "--target", "perfbench_tpcw",
                 "-j", str(min(4, os.cpu_count() or 1))]):
        done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
        if done.returncode != 0:
            sys.exit("perfbench: build failed: " + " ".join(cmd))
    return os.path.join(build_dir, "perfbench_tpcw")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    mode = parser.add_mutually_exclusive_group(required=True)
    mode.add_argument("--workload", choices=WORKLOADS)
    mode.add_argument("--report", action="store_true",
                      help="run every workload untraced and traced")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()

    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        sys.exit("perfbench: no mtdb sources next to perfbench/ "
                 "(run from a full checkout)")
    build_root = os.path.join(
        ROOT, os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    binary = build(build_root)
    wal_dir = os.path.join(build_root, "perfbench-wal")
    runs = ([(w, t) for w in WORKLOADS for t in (0, 1)] if args.report
            else [(args.workload, args.trace)])
    status = 0
    for workload, trace in runs:
        cmd = [binary, "--workload", workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(trace),
               "--wal-dir", wal_dir]
        try:
            done = subprocess.run(cmd, cwd=ROOT, timeout=RUN_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            sys.exit("perfbench: run exceeded %d s" % RUN_TIMEOUT_S)
        status = status or done.returncode
    sys.exit(status)


if __name__ == "__main__":
    main()
