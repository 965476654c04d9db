#!/usr/bin/env python3
"""Builds the update-window benchmark from source and runs one workload.

Run from the root of the repository:

    python3 perfbench/run.py --workload fig4_minwork --seed 1 --seconds 25 --trace 0

The benchmark is a Cargo package of its own (perfbench/Cargo.toml) with path
dependencies on the repository's crates. It builds in release mode into
$CARGO_TARGET_DIR (default: .bench_build at the repository root), and the
ingest workload keeps its WAL and ledger files under that directory too.
The last line of standard output is the result JSON printed by the
benchmark binary; build output goes to standard error. The exit code is the
binary's, or 1 when the build fails.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def target_dir():
    target = os.environ.get("CARGO_TARGET_DIR") or os.path.join(ROOT, ".bench_build")
    return os.path.abspath(target)


def main(argv):
    target = target_dir()
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    build = subprocess.run(
        [
            "cargo",
            "build",
            "--release",
            "--offline",
            "--quiet",
            "--manifest-path",
            os.path.join(HERE, "Cargo.toml"),
        ],
        env=env,
        stdout=sys.stderr,
    )
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 1
    binary = os.path.join(target, "release", "perfbench")
    tmp = os.path.join(target, "perfbench-tmp")
    proc = subprocess.Popen([binary, *argv, "--tmp", tmp], env=env)
    try:
        return proc.wait()
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
