#!/usr/bin/env python3
"""End-to-end serving benchmark for granmine (see perfbench/README.md).

Run from the repository root:

    python3 perfbench/run.py <settings from BENCHMARK.json "command"> \
        --workload mine-scan --seed 1 --seconds 10 --trace 0

Builds granmine_serve and the granmine_load generator from the repository's
sources into the build directory ($CARGO_TARGET_DIR, default .bench_build),
then runs one measurement. The last line of standard output is one JSON
result object. Build output goes to standard error.

    python3 perfbench/run.py <settings> --self-test

checks the harness itself: a corrupted expectation must fail the run, and an
open-loop run against a stalled responder must show the stall in latency.
"""

import argparse
import json
import os
import subprocess
import sys

WORKLOADS = ("mine-scan", "mine-screened", "stream-ingest")
TARGETS = ("granmine_serve", "granmine_load")


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(2)


def build(root, build_dir):
    """Configures (once) and builds the benchmark's two binaries."""
    for needed in ("src/CMakeLists.txt", "examples/granmine_serve.cpp",
                   "perfbench/CMakeLists.txt"):
        if not os.path.isfile(os.path.join(root, needed)):
            fail("cannot build: %s is missing (run from a granmine checkout)"
                 % needed)
    log = sys.stderr
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        configure = ["cmake", "-S", os.path.join(root, "perfbench"), "-B",
                     build_dir, "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if subprocess.call(configure, stdout=log, stderr=log) != 0:
            fail("cmake configure failed")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    make = ["cmake", "--build", build_dir, "-j", jobs, "--target"] + list(
        TARGETS)
    if subprocess.call(make, stdout=log, stderr=log) != 0:
        fail("build failed")


def generator_args(args, build_dir):
    return [
        os.path.join(build_dir, "granmine_load"),
        "--server", os.path.join(build_dir, "granmine_serve"),
        "--server-flags", args.server_flags,
        "--mine-scan", args.mine_scan,
        "--mine-screened", args.mine_screened,
        "--stream-ingest", args.stream_ingest,
    ]


def last_json(stdout):
    lines = stdout.strip().splitlines()
    return json.loads(lines[-1]) if lines else None


def self_test(args, build_dir):
    """Runs both harness self-tests; exits non-zero if either fails."""
    base = generator_args(args, build_dir)
    ok = True

    # A flipped byte in one expected reply: every reply to that request must
    # count as failed and the run must report correct=false.
    run = subprocess.run(
        base + ["--workload", "mine-screened", "--seed", "1", "--seconds",
                "2", "--trace", "0", "--self-test", "corrupt-expectation"],
        capture_output=True, text=True)
    result = last_json(run.stdout) if run.returncode == 0 else None
    passed = bool(result) and not result["correct"] and result["failed"] > 0
    print("self-test corrupt-expectation: %s (%s)" % (
        "PASS" if passed else "FAIL",
        json.dumps({k: result[k] for k in ("correct", "attempted", "failed")})
        if result else "exit %d" % run.returncode))
    ok = ok and passed

    run = subprocess.run(
        base + ["--workload", "mine-screened", "--seed", "1", "--seconds",
                "2", "--trace", "0", "--self-test", "stalled-responder"],
        capture_output=True, text=True)
    sys.stdout.write(run.stdout)
    ok = ok and run.returncode == 0
    return 0 if ok else 1


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--server-flags", required=True)
    parser.add_argument("--mine-scan", required=True)
    parser.add_argument("--mine-screened", required=True)
    parser.add_argument("--stream-ingest", required=True)
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()
    if not args.self_test and args.workload is None:
        parser.error("--workload is required")

    root = os.getcwd()
    build_dir = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.join(root, build_dir)
    build(root, build_dir)
    if args.self_test:
        return self_test(args, build_dir)

    command = generator_args(args, build_dir) + [
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        traces = os.path.join(build_dir, "traces")
        os.makedirs(traces, exist_ok=True)
        command += ["--trace-out", os.path.join(
            traces, "%s-seed%d.json" % (args.workload, args.seed))]
    return subprocess.call(command)


if __name__ == "__main__":
    sys.exit(main())
