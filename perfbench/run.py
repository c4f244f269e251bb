#!/usr/bin/env python3
"""Builds and runs the translation-simulator benchmark.

Usage, from the root of the repository:

    python3 perfbench/run.py --workload translate|populate|sweep \
        [--seed N] [--seconds S] [--trace 0|1] [--bless]

Builds the `perfbench` package (offline, release profile) into
$CARGO_TARGET_DIR, or perfbench/target when that is unset, then runs
`perfbench` (--trace 0) or `perfbench-traced` (--trace 1) with the same
arguments. The last line of standard output is the JSON result; the exit
code is the benchmark's own (0 ok, 1 a correctness check failed, 2 usage
or I/O error) or the build's.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def main(argv):
    target = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or os.path.join(HERE, "target"))
    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", os.path.join(HERE, "Cargo.toml"), "--target-dir", target],
        stdout=sys.stderr,
    )
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return build.returncode or 1
    traced = any(a == "--trace" and v == "1" for a, v in zip(argv, argv[1:]))
    exe = os.path.join(target, "release", "perfbench-traced" if traced else "perfbench")
    sys.stdout.flush()
    return subprocess.run([exe] + argv).returncode


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
