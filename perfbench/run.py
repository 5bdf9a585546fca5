#!/usr/bin/env python3
"""Serve-path benchmark entry point.

Builds the repository's `sunder` binary and the benchmark package in
release mode, then runs the benchmark against that binary:

    python3 perfbench/run.py --workload <name|all> --seed <n> \
        --seconds <s> --trace <0|1>

Run it from the repository root. Cargo's output goes to stderr; stdout
carries the ledger and, last, one JSON result line. Build artifacts go
to $CARGO_TARGET_DIR (default `target`), scratch files to
`<target>/perfbench-work`. See perfbench/README.md.
"""

import os
import subprocess
import sys


def main() -> int:
    root = os.getcwd()
    target = os.environ.get("CARGO_TARGET_DIR", "target")
    if not os.path.isabs(target):
        target = os.path.join(root, target)
    builds = [
        ["cargo", "build", "--release", "--offline", "--bin", "sunder"],
        ["cargo", "build", "--release", "--offline",
         "--manifest-path", os.path.join("perfbench", "Cargo.toml")],
    ]
    # One target directory for both builds; without this the benchmark
    # package, a workspace of its own, would build under perfbench/.
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    for cmd in builds:
        # Cargo reads `.cargo/config.toml` from the working directory, so
        # both builds run from the root with the repository's settings.
        done = subprocess.run(cmd, cwd=root, env=env, stdout=sys.stderr)
        if done.returncode != 0:
            print(f"run.py: build failed: {' '.join(cmd)}", file=sys.stderr)
            return 2
    sunder = os.path.join(target, "release", "sunder")
    bench = os.path.join(target, "release", "perfbench")
    work = os.path.join(target, "perfbench-work")
    done = subprocess.run(
        [bench, "--sunder", sunder, "--work", work] + sys.argv[1:], cwd=root
    )
    return done.returncode


if __name__ == "__main__":
    sys.exit(main())
