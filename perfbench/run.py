#!/usr/bin/env python3
"""Builds the benchmark program from this checkout's sources, then runs it.

    python3 perfbench/run.py --workload solve|serve|model --seed N \\
        --seconds S --trace 0|1
    python3 perfbench/run.py --workload W --smoke     tiny inputs, one round
    python3 perfbench/run.py --self-check             every check must fire
    python3 perfbench/run.py --reference              README reference figures

Run it from the root of a checkout.  The build goes to $CARGO_TARGET_DIR
when that is set, else to .bench_build/, under the directory `perfbench`;
build output goes to standard error, so the last line of standard output
is the program's JSON result.  Exits non-zero, printing no result, when the
library sources are missing or the build fails.
"""
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def build():
    base = os.environ.get("CARGO_TARGET_DIR") or os.path.join(ROOT, ".bench_build")
    out = os.path.join(base, "perfbench")
    steps = [
        ["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
        ["cmake", "--build", out, "-j", "4"],
    ]
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            return None
    return os.path.join(out, "perfbench")


def main():
    binary = build()
    if binary is None:
        print("perfbench: build failed", file=sys.stderr)
        return 1
    sys.stdout.flush()
    return subprocess.run([binary] + sys.argv[1:]).returncode


if __name__ == "__main__":
    sys.exit(main())
