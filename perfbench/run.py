#!/usr/bin/env python3
"""Build and run the product-synthesis benchmark.

    python3 perfbench/run.py --workload <catalog-wide|feed-stream|relearn> \
        [--seed <n>] [--seconds <s>] [--trace <0|1>]

Run from the repository root. The first call configures and builds the
system's libraries and the benchmark program (Release) into the build
directory: $CARGO_TARGET_DIR if set, else .bench_build, relative to the
repository root. Later calls only re-check the build. The benchmark
program's stdout is passed through; its last line is the JSON result.
Build output goes to stderr. The exit code is the benchmark program's
(non-zero on a failed check), or 1 when the system's sources are missing
or the build fails.

Workloads and metrics are described in perfbench/WORKLOADS.md.
"""

import argparse
import os
import shutil
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(1)


def build(build_dir):
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("program sources not found next to perfbench/")
    if shutil.which("cmake") is None:
        fail("cmake not found")
    binary = os.path.join(build_dir, "perfbench")
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        configure = ["cmake", "-S", HERE, "-B", build_dir,
                     "-DCMAKE_BUILD_TYPE=Release"]
        if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
            fail("configure failed")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    step = ["cmake", "--build", build_dir, "--target", "perfbench", "-j", jobs]
    if subprocess.run(step, stdout=sys.stderr).returncode != 0:
        fail("build failed")
    return binary


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int,
                        help="world seed (default: the workload's own)")
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.join(ROOT, target, "perfbench")
    out_dir = os.path.join(build_dir, "out")
    binary = build(build_dir)
    os.makedirs(out_dir, exist_ok=True)

    command = [binary, "--workload", args.workload,
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--out-dir", out_dir]
    if args.seed is not None:
        command += ["--seed", str(args.seed)]
    sys.stdout.flush()
    # A terminated runner takes the benchmark program down with it.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    proc = subprocess.Popen(command, cwd=ROOT)
    try:
        code = proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("run exceeded %d s" % RUN_TIMEOUT_S)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    sys.exit(code)


if __name__ == "__main__":
    main()
