#!/usr/bin/env python3
"""Builds and runs fedval's benchmark, one workload per process.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1

Run it from the repository root. It builds the benchmark package
(perfbench/Cargo.toml) and the fedval-serve daemon in release mode into
$CARGO_TARGET_DIR (default .bench_build), then runs the workload. Build
output goes to standard error; the last line of standard output is the
run's JSON result. Workloads: shares-n200, report-n7, form-n16,
serve-mixed; `--workload all` runs each in turn, in its own process.
Traced runs write their spans under <target>/perfbench/.
"""

import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
WORKLOADS = ["shares-n200", "report-n7", "form-n16", "serve-mixed"]


def main() -> int:
    target = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not target.is_absolute():
        target = Path.cwd() / target
    env = dict(os.environ, CARGO_TARGET_DIR=str(target))
    build = [
        "cargo", "build", "--release", "--offline", "--quiet",
        "--manifest-path", str(HERE / "Cargo.toml"),
        "-p", "fedval-perfbench", "--bin", "perfbench",
        "-p", "fedval-serve", "--bin", "fedval-serve",
    ]
    built = subprocess.run(build, env=env, stdout=sys.stderr, stderr=sys.stderr)
    if built.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 1
    release = target / "release"
    args = sys.argv[1:]
    extra = [
        "--serve-bin", str(release / "fedval-serve"),
        "--out-dir", str(target / "perfbench"),
    ]
    if "all" not in args:
        return subprocess.run([str(release / "perfbench"), *args, *extra], env=env).returncode
    status = 0
    for workload in WORKLOADS:
        one = [workload if a == "all" else a for a in args]
        print(f"== {workload}", flush=True)
        ran = subprocess.run([str(release / "perfbench"), *one, *extra], env=env)
        status = status or ran.returncode
    return status


if __name__ == "__main__":
    sys.exit(main())
