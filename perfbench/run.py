#!/usr/bin/env python3
"""Build the LEIME benchmark from source and run one workload.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --digest --workload <name> --seed <n>

Run from the repository root. The binary is built with cargo (offline,
release) into $CARGO_TARGET_DIR, default `.bench_build`; cargo's own
output goes to stderr, so the last line of stdout is the benchmark's
result. The exit code is the benchmark's, or 1 when the build fails.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def quiet(cmd):
    """First line of a command's stdout, or 'unknown' if it fails."""
    try:
        done = subprocess.run(cmd, capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    line = done.stdout.strip().splitlines()[:1]
    return line[0] if done.returncode == 0 and line else "unknown"


def git_rev():
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return "unknown"
    return quiet(["git", "-C", ROOT, "rev-parse", "HEAD"])


def main():
    env = dict(os.environ)
    target = env.setdefault("CARGO_TARGET_DIR", ".bench_build")
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
    exe = os.path.join(target, "release", "leime-perfbench")
    args = sys.argv[1:] + ["--rustc", quiet(["rustc", "--version"]), "--git-rev", git_rev()]
    sys.stdout.flush()
    return subprocess.run([exe] + args, env=env).returncode


if __name__ == "__main__":
    sys.exit(main())
