#!/usr/bin/env python3
"""Builds the occusense benchmark from source and runs it.

    python3 occbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a checkout. Cargo writes into $CARGO_TARGET_DIR
(default `.bench_build`); its output goes to stderr, so the last line of
stdout is the benchmark's JSON result. The exit code is the build's when
it fails, else the benchmark's.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def main() -> int:
    env = dict(os.environ)
    env.setdefault("CARGO_TARGET_DIR", ".bench_build")
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
        stdout=sys.stderr,
        env=env,
    )
    if build.returncode != 0:
        return build.returncode or 1
    exe = os.path.join(env["CARGO_TARGET_DIR"], "release", "occbench")
    return subprocess.run([exe] + sys.argv[1:], env=env).returncode


if __name__ == "__main__":
    sys.exit(main())
