#!/usr/bin/env python3
"""Builds the benchmark and the `imagen` CLI from source, then runs one
workload of the ImaGen benchmark and passes its exit code through.

    python3 perfbench/run.py --workload compile_corpus --seed 1 --seconds 20 --trace 0

Run it from the root of a checkout. Builds go to $CARGO_TARGET_DIR
(default `.bench_build`); build output goes to stderr, so the last line
on stdout is the benchmark's JSON result.
"""

import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def main():
    env = dict(os.environ)
    target = env.setdefault("CARGO_TARGET_DIR", ".bench_build")
    target = os.path.join(ROOT, target)
    builds = [
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", os.path.join("perfbench", "Cargo.toml")],
        ["cargo", "build", "--release", "--offline", "--quiet", "-p", "imagen-cli"],
    ]
    for cmd in builds:
        if subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr).returncode != 0:
            print("perfbench: build failed: " + " ".join(cmd), file=sys.stderr)
            return 1
    release = os.path.join(target, "release")
    cmd = [os.path.join(release, "imagen-perfbench"), *sys.argv[1:],
           "--imagen", os.path.join(release, "imagen")]
    return subprocess.run(cmd, cwd=ROOT, env=env).returncode


if __name__ == "__main__":
    sys.exit(main())
