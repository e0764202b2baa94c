#!/usr/bin/env python3
"""Builds the benchmark and runs one workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --selftest

Run from the root of a checkout. Both forms build `perfbench` (this
directory's package) and `polaris-cli` in release mode into
`$CARGO_TARGET_DIR` (default: the workspace's `target`). The first form then
runs the workload and passes its output through: the last line of standard
output is the JSON result. `--selftest` runs the benchmark's own tests
instead. Build output goes to standard error.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def build(env):
    """Builds both binaries; returns False when either build fails."""
    commands = [
        ["cargo", "build", "--release", "--offline",
         "--manifest-path", os.path.join(HERE, "Cargo.toml")],
        ["cargo", "build", "--release", "--offline", "-p", "polaris-cli"],
    ]
    for cmd in commands:
        done = subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr)
        if done.returncode != 0:
            print(f"run.py: build failed: {' '.join(cmd)}", file=sys.stderr)
            return False
    return True


def main(argv):
    target = os.path.abspath(
        os.environ.get("CARGO_TARGET_DIR", os.path.join(ROOT, "target")))
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    cli = os.path.join(target, "release", "polaris-cli")
    if not build(env):
        return 1
    if argv == ["--selftest"]:
        env["POLARIS_CLI"] = cli
        cmd = ["cargo", "test", "--release", "--offline",
               "--manifest-path", os.path.join(HERE, "Cargo.toml")]
        return subprocess.run(cmd, cwd=ROOT, env=env).returncode
    bench = os.path.join(target, "release", "perfbench")
    cmd = [bench, *argv, "--cli", cli, "--work", os.path.join(HERE, "work")]
    return subprocess.run(cmd, cwd=ROOT, env=env).returncode


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
