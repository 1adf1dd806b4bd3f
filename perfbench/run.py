#!/usr/bin/env python3
"""Builds the benchmark from source and runs one workload.

Usage, from the root of the repository:

    python3 perfbench/run.py --workload tenant_traffic|fleet_sweep|verdict_matrix \
        --seed <n> --seconds <s> --trace <0|1>

The build goes to $CARGO_TARGET_DIR (default: .bench_build); cargo's
output goes to standard error, so the last line of standard output is
the benchmark's JSON result. A traced run (--trace 1) also writes the
spans of its last traced pass under <target dir>/perfbench-traces/.
Exits non-zero, without a result, when the build fails, and non-zero
with a result whose "correct" is false when an output check fails.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))

# The benchmark itself stops after --seconds plus set-up and warm-up;
# a run still alive after this long is hung.
RUN_TIMEOUT_S = 170


def main() -> int:
    target = os.path.abspath(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", os.path.join(HERE, "Cargo.toml")],
        env=env,
        stdout=sys.stderr,
    )
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return build.returncode or 1

    exe = os.path.join(target, "release", "perfbench")
    argv = [exe, *sys.argv[1:], "--trace-dir", os.path.join(target, "perfbench-traces")]
    with subprocess.Popen(argv, env=env) as proc:
        try:
            return proc.wait(timeout=RUN_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
            print(f"perfbench: no result after {RUN_TIMEOUT_S} s", file=sys.stderr)
            return 1


if __name__ == "__main__":
    sys.exit(main())
