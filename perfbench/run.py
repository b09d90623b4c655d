#!/usr/bin/env python3
"""Builds and runs the end-to-end benchmark.

Run from the repository root:

    python3 perfbench/run.py --workload cold-topk --seed 1 --seconds 20 --trace 0

The first run configures and builds the library sources under src/
together with the benchmark program into .bench_build/ (or
$CARGO_TARGET_DIR when set); later runs reuse the build. The program's
last line of standard output -- one JSON object with correct,
attempted, failed and metrics -- is relayed as this script's last line.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("cold-topk", "hot-serving", "live-update")


def build_dir():
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    return target if os.path.isabs(target) else os.path.join(ROOT, target)


def build(out):
    """Configures (once) and builds; returns the program's path."""
    os.makedirs(out, exist_ok=True)
    log = os.path.join(out, "build.log")
    with open(log, "w") as f:
        if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
            subprocess.run(
                ["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release"],
                stdout=f, stderr=subprocess.STDOUT, check=True)
        subprocess.run(["cmake", "--build", out, "-j", "4"],
                       stdout=f, stderr=subprocess.STDOUT, check=True)
    return os.path.join(out, "perfbench")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    out = build_dir()
    try:
        binary = build(out)
    except (OSError, subprocess.CalledProcessError) as err:
        sys.stderr.write("build failed (%s); see %s\n"
                         % (err, os.path.join(out, "build.log")))
        return 1

    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--out-dir", out]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, cwd=ROOT)
    lines = proc.stdout.decode().strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write("benchmark exited with code %d\n" % proc.returncode)
        return 1
    result = json.loads(lines[-1])
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        sys.stderr.write("malformed result line\n")
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
