#!/usr/bin/env python3
"""Builds `mcpath` and the benchmark harness from source, then runs one
benchmark workload. Run from the repository root:

    python3 perfbench/run.py --workload suite-analyze --seed 0 --seconds 10 --trace 0

The last line of standard output is the result object. Build products go
to $CARGO_TARGET_DIR (default `.bench_build`); scratch files and traces
go to `.bench_work/`.
"""
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def build(target, args):
    """Builds quietly; on failure shows cargo's output and exits nonzero."""
    cmd = ["cargo", "build", "--release", "--offline", "--quiet"] + args
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
                          env=dict(os.environ, CARGO_TARGET_DIR=target))
    if proc.returncode != 0:
        sys.stderr.write(proc.stdout.decode(errors="replace"))
        sys.exit(f"build failed: {' '.join(cmd)}")


def main():
    root = os.getcwd()
    target = os.path.join(root, os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not os.path.isfile(os.path.join(root, "Cargo.toml")):
        sys.exit("run from the root of an mcpath checkout")
    build(target, ["--manifest-path", os.path.join(root, "Cargo.toml"), "--bin", "mcpath"])
    build(target, ["--manifest-path", os.path.join(HERE, "Cargo.toml")])
    harness = os.path.join(target, "release", "perfbench")
    mcpath = os.path.join(target, "release", "mcpath")
    proc = subprocess.run([harness, "--mcpath", mcpath] + sys.argv[1:])
    sys.exit(proc.returncode)


if __name__ == "__main__":
    main()
