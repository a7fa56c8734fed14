#!/usr/bin/env python3
"""Build pelican_bench from source and run one workload.

Run from the repository root:

    python3 pelican_bench/run.py --workload serve_routed --seed 1 \
        --seconds 10 --trace 0

The build goes to $CARGO_TARGET_DIR/pelican_bench (default
.bench_build/pelican_bench); the first run compiles, later runs only check
that the build is current. The benchmark's report goes to
standard output, whose last line is the JSON result. Exits non-zero, without
a result, when the build or the run fails.
"""

import argparse
import json
import os
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("serve_routed", "update_mix", "privacy_audit")
RUN_TIMEOUT_S = 170


def build(build_dir):
    jobs = str(os.cpu_count() or 1)
    subprocess.run(
        ["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=RelAssert"],
        stdout=sys.stderr, check=True)
    subprocess.run(
        ["cmake", "--build", build_dir, "-j", jobs,
         "--target", "pelican_bench", "pelican_engined"],
        stdout=sys.stderr, check=True)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    build_root = os.path.join(
        ROOT, os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    build_dir = os.path.join(build_root, "pelican_bench")
    try:
        build(build_dir)
    except (OSError, subprocess.CalledProcessError) as error:
        print(f"run.py: build failed: {error}", file=sys.stderr)
        return 1

    command = [
        os.path.join(build_dir, "pelican_bench"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
        "--engined", os.path.join(build_dir, "pelican", "tools",
                                  "pelican_engined"),
        "--workdir", os.path.join(build_root, "runs"),
    ]
    # Own process group, so a timeout also stops the engine processes.
    process = subprocess.Popen(command, stdout=subprocess.PIPE, text=True,
                               start_new_session=True)
    try:
        output, _ = process.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(process.pid, signal.SIGKILL)
        process.communicate()
        print("run.py: benchmark timed out", file=sys.stderr)
        return 1

    lines = output.rstrip("\n").splitlines()
    try:
        result = json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        result = None
    if process.returncode != 0 or not isinstance(result, dict):
        sys.stderr.write(output)
        print(f"run.py: benchmark failed (exit {process.returncode})",
              file=sys.stderr)
        return process.returncode or 1
    sys.stdout.write(output.rstrip("\n") + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
