#!/usr/bin/env python3
"""Build and run the repository benchmark.

Usage (from the repository root):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --self-test

Builds `srserved` from the repository workspace and the `perfbench`
binary from `perfbench/Cargo.toml` (release, offline), into
`$CARGO_TARGET_DIR` or `.bench_build`, then runs `perfbench` with the
given arguments. Build output goes to standard error, so the last line
of standard output is the benchmark's JSON result. The exit code is the
benchmark's, or the failing build's.
"""

import os
import subprocess
import sys


def main() -> int:
    root = os.getcwd()
    for needed in ("Cargo.toml", "crates", "programs", os.path.join("perfbench", "Cargo.toml")):
        if not os.path.exists(os.path.join(root, needed)):
            print(f"run.py: {needed} not found; run from the repository root", file=sys.stderr)
            return 2
    env = dict(os.environ)
    target = os.path.abspath(env.get("CARGO_TARGET_DIR") or os.path.join(root, ".bench_build"))
    env["CARGO_TARGET_DIR"] = target
    builds = [
        ["cargo", "build", "--release", "--offline", "--quiet",
         "-p", "systolic-ring-server", "--bin", "srserved"],
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", os.path.join("perfbench", "Cargo.toml")],
    ]
    for cmd in builds:
        built = subprocess.run(cmd, env=env, stdout=sys.stderr, check=False)
        if built.returncode != 0:
            print(f"run.py: build failed: {' '.join(cmd)}", file=sys.stderr)
            return built.returncode or 2
    release = os.path.join(target, "release")
    cmd = [os.path.join(release, "perfbench"), "--srserved", os.path.join(release, "srserved")]
    return subprocess.run(cmd + sys.argv[1:], check=False).returncode


if __name__ == "__main__":
    sys.exit(main())
