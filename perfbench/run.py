#!/usr/bin/env python3
"""Build and run the pimsim end-to-end benchmark.

Run from the root of a checkout:

    python3 perfbench/run.py --workload fig11_mesh --seed 1 --seconds 15 --trace 0
    python3 perfbench/run.py --self-test

The first form configures and builds perfbench/ (which compiles the repo's
libpimsim from source, Release) into .bench_build/perfbench, then runs the
driver; the driver's last line of standard output is the JSON result.
Build output goes to standard error.  Extra driver flags (--sim-seeds,
--smoke) pass through.

--self-test runs every workload in smoke size, traced and untraced, and
checks that each result is correct and names exactly the metrics (and
units) BENCHMARK.json declares.
"""
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
WORK = os.path.join(ROOT, ".bench_build", "work")
BINARY = os.path.join(BUILD, "pimbench")


def fail(message):
    print("run.py: " + message, file=sys.stderr)
    sys.exit(2)


def build():
    if not os.path.isfile(os.path.join(ROOT, "CMakeLists.txt")) or not os.path.isdir(
        os.path.join(ROOT, "src")
    ):
        fail("no pimsim sources next to perfbench/ (run from a full checkout)")
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "--target", "pimbench", "-j", jobs])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            fail("build failed: " + " ".join(cmd))


def driver(args):
    return [BINARY, "--bench-dir", HERE, "--work-dir", WORK] + args


def self_test():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    expected = {
        "0": {m["name"]: m["unit"] for m in spec["end_to_end"]},
        "1": {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    problems = []
    for workload in (w["name"] for w in spec["workloads"]):
        for trace in ("0", "1"):
            run = subprocess.run(
                driver(["--workload", workload, "--seed", "7", "--seconds", "0",
                        "--trace", trace, "--smoke"]),
                stdout=subprocess.PIPE, text=True)
            label = "%s trace=%s" % (workload, trace)
            if run.returncode != 0:
                problems.append(label + ": exit code %d" % run.returncode)
                continue
            result = json.loads(run.stdout.strip().splitlines()[-1])
            if not result["correct"] or result["failed"] != 0:
                problems.append(label + ": incorrect output")
            units = {k: v["unit"] for k, v in result["metrics"].items()}
            if units != expected[trace]:
                problems.append(label + ": metrics differ from BENCHMARK.json")
            print("self-test %-28s ok=%s attempted=%d" % (
                label, not problems, result["attempted"]), file=sys.stderr)
    for p in problems:
        print("self-test FAILED: " + p, file=sys.stderr)
    return 1 if problems else 0


def main():
    args = sys.argv[1:]
    build()
    if args == ["--self-test"]:
        sys.exit(self_test())
    sys.exit(subprocess.run(driver(args)).returncode)


if __name__ == "__main__":
    main()
