#!/usr/bin/env python3
"""Build and run the hhspmm host-clock benchmark.

    python3 hostbench/run.py --workload tiny_burst --seed 1 --seconds 45 --trace 0

Run from the repository root. The first call configures and builds
hostbench/ (which compiles the library from src/) in Release mode under
$CARGO_TARGET_DIR/hostbench, or .bench_build/hostbench when that variable is
unset; later calls only rebuild what changed. The program's last line of
stdout is the result JSON. Every option is passed through to the program
(see hostbench.cc).
"""
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        sys.exit("hostbench: library sources (src/) not found next to "
                 "hostbench/; run from a full checkout")
    build_root = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.join(ROOT, build_root, "hostbench")
    jobs = str(min(4, os.cpu_count() or 1))
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", build_dir,
                        "-DCMAKE_BUILD_TYPE=Release"],
                       check=True, stdout=sys.stderr)
    subprocess.run(["cmake", "--build", build_dir, "--target", "hostbench",
                    "-j", jobs], check=True, stdout=sys.stderr)
    return os.path.join(build_dir, "hostbench")


def main():
    try:
        binary = build()
    except (OSError, subprocess.CalledProcessError) as e:
        sys.exit("hostbench: build failed: %s" % e)
    sys.stdout.flush()
    try:
        done = subprocess.run([binary] + sys.argv[1:], cwd=ROOT,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        sys.exit("hostbench: run exceeded %d s" % RUN_TIMEOUT_S)
    return done.returncode


if __name__ == "__main__":
    sys.exit(main())
