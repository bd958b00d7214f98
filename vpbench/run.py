#!/usr/bin/env python3
"""Build and run the wall-clock benchmark of the value-profiling stack.

Usage (from the root of a checkout):

    python3 vpbench/run.py --workload profile|fleet|adapt --seed N \\
        --seconds S --trace 0|1

The first run configures and builds vpbench/ (which compiles the
library under src/) into $CARGO_TARGET_DIR/vpbench, or
.bench_build/vpbench when that variable is unset; later runs only
re-check the build. Build output goes to stderr. The run itself writes
sockets, snapshots and span files under .bench_out/ and prints, as the
last line of stdout, one JSON object with the keys correct, attempted,
failed and metrics. Without the library sources the script exits 2
before printing anything.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 175


def fail(msg):
    print("vpbench: " + msg, file=sys.stderr)
    sys.exit(2)


def step(cmd, what):
    """Run a build step; show its output on stderr only if it fails."""
    proc = subprocess.run(cmd, stdout=subprocess.PIPE,
                          stderr=subprocess.STDOUT, text=True)
    if proc.returncode != 0:
        sys.stderr.write(proc.stdout)
        fail(what + " failed")


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("library sources (src/) not found next to vpbench/")
    target_root = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.join(ROOT, target_root, "vpbench")
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        step(["cmake", "-S", HERE, "-B", build_dir,
              "-DCMAKE_BUILD_TYPE=Release"], "cmake configure")
    step(["cmake", "--build", build_dir, "--target", "vpbench", "-j4"],
         "build")
    return os.path.join(build_dir, "vpbench")


def main():
    binary = build()
    # Relative: unix socket paths under it must stay short.
    cmd = [binary] + sys.argv[1:] + ["--out-dir", ".bench_out"]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("run exceeded %d s" % RUN_TIMEOUT_S)
    sys.exit(proc.returncode)


if __name__ == "__main__":
    main()
