#!/usr/bin/env python3
"""Builds the benchmark driver from source and runs one workload.

    python3 perfbench/run.py --workload exchange --seed 1 --seconds 10 --trace 0

Run from the repository root. The first run configures and builds libmapinv,
mapinv_serve and perfbench_driver into .bench_build (or $CARGO_TARGET_DIR);
later runs only rebuild what changed. Build output goes to stderr; stdout is
the driver's report, whose last line is the JSON result.
"""

import argparse
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("exchange", "reverse", "invert", "serve")
RUN_TIMEOUT_S = 170


def fail(message, code):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(code)


def build(build_dir):
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        configure = ["cmake", "-S", HERE, "-B", build_dir,
                     "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
            fail("cmake configure failed", 3)
    jobs = str(min(4, os.cpu_count() or 1))
    step = ["cmake", "--build", build_dir, "-j", jobs]
    if subprocess.run(step, stdout=sys.stderr).returncode != 0:
        fail("build failed", 3)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, choices=("0", "1"))
    args = parser.parse_args()

    for source in ("src/CMakeLists.txt", "tools/mapinv_serve.cc"):
        if not os.path.isfile(os.path.join(ROOT, source)):
            fail(f"missing {source}: run from a full mapinv checkout", 2)

    build_dir = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    build(build_dir)
    # A relative driver path keeps the server's unix socket path short.
    driver = os.path.relpath(os.path.join(build_dir, "perfbench_driver"), ROOT)
    if os.sep not in driver:
        driver = os.path.join(".", driver)
    command = [driver, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", args.trace]
    try:
        completed = subprocess.run(command, cwd=ROOT, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"driver exceeded {RUN_TIMEOUT_S} s", 4)
    sys.exit(completed.returncode)


if __name__ == "__main__":
    main()
