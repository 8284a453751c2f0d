#!/usr/bin/env python3
"""The repository benchmark: time to a recommended design.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout. The first run configures and builds the
driver (perfbench/CMakeLists.txt, Release) under .bench_build/perfbench;
later runs only re-check the build. The driver generates the workload
from --seed, sends requests for about --seconds seconds and checks every
response. This script turns its raw record into metrics (metrics.py),
prints one line per metric and note, and ends with one JSON line:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

--trace 0 reports the end-to-end metrics, --trace 1 the per-layer ones;
a traced run also writes its spans to
.bench_build/perfbench/spans-<workload>-seed<N>.json. See README.md.
"""
import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
DRIVER = os.path.join(BUILD_DIR, "capd_perfbench")
WORKLOADS = ("scale-cold", "tpch-warm", "sales-write-service")
# Kill the driver well before the 180-second limit on one run.
DRIVER_TIMEOUT_S = 170

sys.dont_write_bytecode = True  # write nothing beside the sources
sys.path.insert(0, HERE)
import metrics  # noqa: E402


def fail(message):
    sys.stderr.write("perfbench: %s\n" % message)
    sys.exit(1)


def run_quiet(cmd, timeout):
    """Runs a build step, showing its output only when it fails."""
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, timeout=timeout)
    except (OSError, subprocess.TimeoutExpired) as e:
        fail("%s: %s" % (" ".join(cmd), e))
    if proc.returncode != 0:
        sys.stderr.write(proc.stdout.decode(errors="replace"))
        fail("%s exited %d" % (" ".join(cmd), proc.returncode))


def build():
    if not (os.path.isfile(os.path.join(ROOT, "CMakeLists.txt"))
            and os.path.isdir(os.path.join(ROOT, "src"))):
        fail("run from a checkout of the repository: CMakeLists.txt and "
             "src/ must sit beside perfbench/")
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        run_quiet(["cmake", "-S", HERE, "-B", BUILD_DIR,
                   "-DCMAKE_BUILD_TYPE=Release"], timeout=300)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    run_quiet(["cmake", "--build", BUILD_DIR, "--target", "capd_perfbench",
               "-j", jobs], timeout=840)


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")

    build()
    cmd = [DRIVER, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace)]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE,
                              timeout=DRIVER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("driver did not finish within %d s" % DRIVER_TIMEOUT_S)
    if proc.returncode != 0:
        fail("driver exited %d" % proc.returncode)
    raw = json.loads(proc.stdout)

    if args.trace:
        path = os.path.join(BUILD_DIR, "spans-%s-seed%d.json"
                            % (args.workload, args.seed))
        with open(path, "w") as f:
            json.dump(raw["spans"], f)
    line, notes = metrics.result(raw, args.trace == 1)
    for name, metric in line["metrics"].items():
        print("%-40s %14.4f %s" % (name, metric["value"], metric["unit"]))
    for note in notes:
        print(note)
    print(json.dumps(line))


if __name__ == "__main__":
    main()
