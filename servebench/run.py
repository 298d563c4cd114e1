#!/usr/bin/env python3
"""The serving benchmark's one command.

    python3 servebench/run.py --workload W --seed N --seconds T --trace 0|1

Run from the root of a checkout. It builds the driver (Release, out of tree
under .bench_build/), writes the workload's inputs from the seed, replays
them through the serve path, checks every answer, and prints the result
object as the last stdout line: end-to-end metrics with --trace 0,
per-layer metrics with --trace 1. Exits non-zero when the build fails, an
input cannot be made, or any answer mismatches. See servebench/README.md.

--smoke shrinks the workload to a quick check. Two flags break a run on
purpose, so that servebench/selftest.py can check the correctness gate
fails it: --perturb corrupts one reference answer; --break-load deletes the
first tree file the timed sequence loads (cold_sweep), so that load fails
in the reference and the timed replay alike.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "servebench")
WORK = os.path.join(ROOT, ".bench_build", "work")
DRIVER = os.path.join(BUILD, "servebench_driver")
# A run, its set-up and its reference replay must end within this budget.
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 840


def fail(message, code=1):
    print("servebench: " + message, file=sys.stderr)
    sys.exit(code)


def build():
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "--target", "servebench_driver",
                  "-j", jobs])
    for step in steps:
        done = subprocess.run(step, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True,
                              timeout=BUILD_TIMEOUT_S, check=False)
        if done.returncode != 0:
            sys.stderr.write(done.stdout)
            fail("build failed: " + " ".join(step))


def commit_id():
    """The git commit of the checkout, or "unknown" outside a git repository."""
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return "unknown"
    try:
        done = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                              stdout=subprocess.PIPE,
                              stderr=subprocess.DEVNULL, text=True,
                              check=False)
    except OSError:
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def expected_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    return {m["name"]: m["unit"]
            for m in spec["per_layer" if trace else "end_to_end"]}


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--perturb", action="store_true")
    parser.add_argument("--break-load", action="store_true")
    args = parser.parse_args()
    if args.seed < 0 or args.seconds < 1:
        fail("--seed must be >= 0 and --seconds >= 1", 2)

    for needed in ("CMakeLists.txt", "src", "BENCHMARK.json"):
        if not os.path.exists(os.path.join(ROOT, needed)):
            fail("not a checkout of the repository: no " + needed, 2)
    build()

    started = time.monotonic()
    work = os.path.join(WORK, "%s-%d-%d" % (args.workload, args.seed,
                                             os.getpid()))
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    common = ["--workload", args.workload, "--seed", str(args.seed),
              "--seconds", str(args.seconds),
              "--dir", os.path.relpath(work, ROOT)]
    if args.smoke:
        common.append("--smoke")
    try:
        gen = subprocess.run([DRIVER, "gen"] + common, cwd=ROOT,
                             timeout=RUN_TIMEOUT_S, check=False)
        if gen.returncode != 0:
            fail("input generation failed")
        if args.break_load:
            fresh = os.path.join(work, "fresh_0.tree")
            if not os.path.exists(fresh):
                fail("--break-load: workload %s loads no tree files"
                     % args.workload, 2)
            os.remove(fresh)
        run = [DRIVER, "run"] + common + ["--trace", str(args.trace),
                                          "--commit", commit_id()]
        if args.perturb:
            run.append("--perturb")
        remaining = RUN_TIMEOUT_S - (time.monotonic() - started)
        done = subprocess.run(run, cwd=ROOT, stdout=subprocess.PIPE,
                              text=True, timeout=max(1, remaining),
                              check=False)
    except subprocess.TimeoutExpired:
        fail("timed out")
    finally:
        shutil.rmtree(work, ignore_errors=True)

    lines = done.stdout.splitlines()
    if not lines or not lines[-1].startswith("{"):
        sys.stdout.write(done.stdout)
        fail("driver exited %d without a result" % done.returncode)
    result = json.loads(lines[-1])
    want = expected_metrics(args.trace)
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    if got != want:
        fail("metrics %s do not match BENCHMARK.json %s" % (got, want))
    sys.stdout.write(done.stdout)
    sys.exit(0 if done.returncode == 0 and result["correct"] else 1)


if __name__ == "__main__":
    main()
