#!/usr/bin/env python3
"""Build and run the CrowdER end-to-end benchmark.

Usage, from the repository root:

    python3 perfbench/run.py --workload <batch-hybrid|stream-giant|serve-open|all> \
        --seed <n> --seconds <s> --trace <0|1>

`--workload all` runs every workload BENCHMARK.json lists, one after
the other, and fails if any of them fails.

The benchmark is a Cargo package of its own (perfbench/Cargo.toml) that
depends on the repository's crates by path. This script builds it in
release mode into $CARGO_TARGET_DIR (default: .bench_build at the
repository root), then runs it with the same arguments. Build output
goes to stderr; the benchmark's own output goes to stdout, and its last
line is the JSON result. The benchmark runs with MALLOC_ARENA_MAX=1.
The exit code is the build's if the build fails, else the benchmark's
(non-zero when a check failed).
"""

import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def run(cmd, env, stdout=None):
    """Run `cmd` from the repository root; stop it if we are stopped."""
    child = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=stdout)
    try:
        return child.wait()
    finally:
        if child.poll() is None:
            child.kill()
            child.wait()


def main():
    env = dict(os.environ)
    target = os.path.join(ROOT, env.get("CARGO_TARGET_DIR") or ".bench_build")
    env["CARGO_TARGET_DIR"] = target
    build = [
        "cargo",
        "build",
        "--release",
        "--offline",
        "--quiet",
        "--manifest-path",
        os.path.join("perfbench", "Cargo.toml"),
    ]
    code = run(build, env, stdout=sys.stderr)
    if code != 0:
        print(f"perfbench: build failed with exit code {code}", file=sys.stderr)
        return code if code > 0 else 1
    exe = os.path.join(target, "release", "crowder-perfbench")
    # One malloc arena: otherwise the process's peak RSS depends on which
    # arena each service thread happens to be given.
    env["MALLOC_ARENA_MAX"] = "1"
    args = sys.argv[1:]
    if "--workload" in args and args[args.index("--workload") + 1 :][:1] == ["all"]:
        at = args.index("--workload") + 1
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            workloads = [w["name"] for w in json.load(f)["workloads"]]
        codes = [run([exe] + args[:at] + [w] + args[at + 1 :], env) for w in workloads]
        return next((c for c in codes if c != 0), 0)
    return run([exe] + args, env)


if __name__ == "__main__":
    sys.exit(main())
