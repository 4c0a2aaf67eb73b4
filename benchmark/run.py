#!/usr/bin/env python3
"""Build the program and the benchmark from source, then run the benchmark.

Run from the root of a checkout:

    python3 benchmark/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

The service binaries (`navp-serve`, `navp-pe`) come from the repository
workspace and the benchmark binary from `benchmark/Cargo.toml`, both into
`$CARGO_TARGET_DIR` (default `.bench_build`). Build output goes to standard
error, so the last line of standard output is the benchmark's JSON result.
"""

import os
import subprocess
import sys


def main() -> int:
    here = os.path.dirname(os.path.abspath(__file__))
    root = os.path.dirname(here)
    target = os.path.abspath(os.environ.get("CARGO_TARGET_DIR", os.path.join(root, ".bench_build")))
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    builds = [
        ["--manifest-path", os.path.join(root, "Cargo.toml"),
         "-p", "navp-repro", "--bin", "navp-serve", "--bin", "navp-pe"],
        ["--manifest-path", os.path.join(here, "Cargo.toml")],
    ]
    for extra in builds:
        cmd = ["cargo", "build", "--release", "--offline", "--quiet"] + extra
        if subprocess.call(cmd, env=env, stdout=sys.stderr) != 0:
            print("run.py: build failed: " + " ".join(cmd), file=sys.stderr)
            return 1
    release = os.path.join(target, "release")
    binary = os.path.join(release, "navbench")
    sys.stdout.flush()
    os.execve(binary, [binary] + sys.argv[1:] + ["--bin-dir", release], env)
    return 1


if __name__ == "__main__":
    sys.exit(main())
