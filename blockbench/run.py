#!/usr/bin/env python3
"""Build and run the block-storage benchmark from a source checkout.

    python3 blockbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 blockbench/run.py --selftest

The benchmark is compiled (Release, no network) into
$CARGO_TARGET_DIR/blockbench, or .bench_build/blockbench when the
variable is unset, relative to the checkout root. The first run
configures and builds; later runs only rebuild what changed. The
benchmark's standard output is passed through unchanged: its last line
is the JSON result. Build output goes to standard error.
"""

import argparse
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("point_read", "range_scan", "update_churn", "stream_scan")
RUN_TIMEOUT_S = 170


def build_dir():
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return os.path.join(ROOT, target, "blockbench")


def build(target):
    """Configure (once) and build @target; return its path or None."""
    for needed in ("CMakeLists.txt", os.path.join("src", "CMakeLists.txt")):
        if not os.path.isfile(os.path.join(ROOT, needed)):
            print(f"blockbench: {needed} missing at {ROOT}; "
                  "run from a dnastore source checkout", file=sys.stderr)
            return None
    out = build_dir()
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            return None
    jobs = str(min(4, os.cpu_count() or 1))
    cmd = ["cmake", "--build", out, "--target", target, "-j", jobs]
    if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
        return None
    return os.path.join(out, target)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selftest", action="store_true",
                        help="build and run the helper tests")
    args = parser.parse_args()

    if args.selftest:
        binary = build("blockbench_helpers_test")
        return 1 if binary is None else subprocess.run([binary]).returncode
    if args.workload is None:
        parser.error("--workload is required")

    binary = build("blockbench")
    if binary is None:
        return 1
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        spans = os.path.join(build_dir(), "spans")
        os.makedirs(spans, exist_ok=True)
        cmd += ["--spans",
                os.path.join(spans, f"{args.workload}-{args.seed}.jsonl")]
    sys.stdout.flush()
    try:
        return subprocess.run(cmd, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        print(f"blockbench: run exceeded {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
