#!/usr/bin/env python3
"""Builds the benchmark and runs one workload of it.

Run from the repository root:

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

The benchmark is a Cargo package of its own (perfbench/Cargo.toml) with
path dependencies on the repository's crates, so it is built from source
here, into $CARGO_TARGET_DIR (default: .bench_build). Build output goes to
standard error; standard output is the benchmark's, whose last line is the
result as one JSON object. Traced runs write their spans under
<target dir>/perfbench-spans/. The exit code is the benchmark's, or 1 when
the build fails.

The benchmark runs pinned to one CPU, the highest this process may use, and
so does the reference kernel process it starts (see src/reference.rs): the
kernel then measures the speed of the CPU the simulations run on.
"""

import os
import subprocess
import sys


def main() -> int:
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    manifest = os.path.join(os.path.dirname(os.path.abspath(__file__)), "Cargo.toml")
    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet", "--manifest-path", manifest],
        env=env,
        stdout=sys.stderr,
    )
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 1
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    binary = os.path.join(target, "release", "themis-perfbench")
    spans_dir = os.path.join(target, "perfbench-spans")
    return subprocess.run([binary, *sys.argv[1:], "--spans-dir", spans_dir], env=env).returncode


if __name__ == "__main__":
    sys.exit(main())
