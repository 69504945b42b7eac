#!/usr/bin/env python3
"""Build the zbench end-to-end benchmark from this checkout and run it.

Usage (from the root of the checkout):

    python3 zbench/run.py --workload <mc-proofheavy|sc-epochs|net-cluster> \
        --seed <n> --seconds <s> --trace <0|1> [--scale tiny] [--corrupt sig]

The first call configures and compiles the zendoo library plus the
benchmark (CMake, RelWithDebInfo) into $CARGO_TARGET_DIR/zbench, or
.bench_build/zbench when that variable is unset; later calls only rebuild
what changed. Build output goes to standard error, so the last line of
standard output is the benchmark's JSON result. A traced run (--trace 1)
writes its spans next to the build as spans-<workload>-<seed>.jsonl.
"""

import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def build_dir():
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return os.path.join(ROOT, target, "zbench")


def build(out_dir):
    """Configures (once) and builds; returns the binary path or None."""
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if not os.path.exists(os.path.join(out_dir, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", out_dir,
               "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.call(cmd, stdout=sys.stderr, stderr=sys.stderr) != 0:
            return None
    if subprocess.call(["cmake", "--build", out_dir, "-j", jobs],
                       stdout=sys.stderr, stderr=sys.stderr) != 0:
        return None
    return os.path.join(out_dir, "zbench")


def main(argv):
    out_dir = build_dir()
    binary = build(out_dir)
    if binary is None:
        print("zbench: build failed", file=sys.stderr)
        return 2
    args = list(argv)
    opts = dict(zip(args[::2], args[1::2]))
    if opts.get("--trace") == "1" and "--spans-out" not in opts:
        name = "spans-%s-%s.jsonl" % (opts.get("--workload", "none"),
                                      opts.get("--seed", "1"))
        args += ["--spans-out", os.path.join(out_dir, name)]
    return subprocess.call([binary] + args)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
