#!/usr/bin/env python3
"""Builds and runs the repository benchmark.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root. Builds the `lll-serve` daemon with the
repository's own manifest and the `perfbench` package with its own, both
into `$CARGO_TARGET_DIR` (default `.bench_build`), then runs the
benchmark binary. Build output goes to stderr, so the last line of
stdout is the benchmark's JSON result. Exits non-zero, printing no
result, if either build fails.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def main():
    target = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    builds = [
        [os.path.join(ROOT, "Cargo.toml"), "-p", "lll-serve", "--bin", "lll-serve"],
        [os.path.join(HERE, "Cargo.toml"), "--bin", "perfbench"],
    ]
    for manifest, *what in builds:
        cmd = ["cargo", "build", "--release", "--offline", "--quiet", "--manifest-path", manifest]
        if subprocess.run(cmd + what, env=env, stdout=sys.stderr).returncode != 0:
            print(f"run.py: build failed: {' '.join(cmd + what)}", file=sys.stderr)
            return 3
    bench = os.path.join(target, "release", "perfbench")
    daemon = os.path.join(target, "release", "lll-serve")
    return subprocess.run([bench, *sys.argv[1:], "--daemon", daemon], env=env).returncode


if __name__ == "__main__":
    sys.exit(main())
