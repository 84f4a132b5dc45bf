#!/usr/bin/env python3
"""Build (if needed) and run the crl end-to-end benchmark.

    python3 e2ebench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root. The library and the benchmark are built from
source with CMake into $CARGO_TARGET_DIR/e2ebench (default
.bench_build/e2ebench); build output goes to stderr. The last line of
stdout is the result object printed by the benchmark binary.
"""
import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("opamp-train", "rfpa-train", "opamp-deploy")


def build_dir():
    return os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR") or ".bench_build", "e2ebench")


def build(env):
    cmake_dir = os.path.join(build_dir(), "cmake")
    if not os.path.isfile(os.path.join(cmake_dir, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", cmake_dir, "-DCMAKE_BUILD_TYPE=Release"],
                       stdout=sys.stderr, check=True, env=env)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    subprocess.run(["cmake", "--build", cmake_dir, "--target", "e2ebench", "-j", jobs],
                   stdout=sys.stderr, check=True, env=env)
    return os.path.join(cmake_dir, "e2ebench")


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", required=True, type=int)
    p.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = p.parse_args()

    if not (os.path.isfile(os.path.join(ROOT, "CMakeLists.txt"))
            and os.path.isdir(os.path.join(ROOT, "src"))):
        print("e2ebench: no crl sources beside the benchmark directory", file=sys.stderr)
        return 2
    # The program reads CRL_* knobs (tracing, fault injection, solver and
    # SIMD switches); the benchmark measures the defaults.
    env = {k: v for k, v in os.environ.items() if not k.startswith("CRL_")}
    try:
        exe = build(env)
    except (OSError, subprocess.CalledProcessError) as e:
        print(f"e2ebench: build failed: {e}", file=sys.stderr)
        return 2
    out_dir = os.path.join(build_dir(), "out")
    cmd = [exe, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace), "--out", out_dir]
    try:
        return subprocess.run(cmd, env=env, timeout=175).returncode
    except subprocess.TimeoutExpired:
        print("e2ebench: run timed out", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
