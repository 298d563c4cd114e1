#!/usr/bin/env python3
"""The serving benchmark's own tests.

    python3 servebench/selftest.py

Run from the root of a checkout. Checks, in smoke mode (tiny inputs):
  1. every workload, with --trace 0 and --trace 1, exits 0 and prints
     exactly the metric names and units BENCHMARK.json declares;
  2. a run whose reference answers are deliberately perturbed (--perturb)
     fails: non-zero exit, "correct": false and failed > 0; so does a
     cold_sweep run whose first load fails in the reference and the timed
     replay alike (--break-load);
  3. in a directory holding only BENCHMARK.json and the benchmark's own
     files, run.py exits non-zero without printing a result.
The gate's unit cases (gate.h, SelfTestGate) run inside every run.
"""

import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN = [sys.executable, os.path.join("servebench", "run.py")]


def run(args, cwd=ROOT):
    return subprocess.run(RUN + args, cwd=cwd, stdout=subprocess.PIPE,
                          text=True, timeout=900, check=False)


def last_json(stdout):
    lines = stdout.strip().splitlines()
    return json.loads(lines[-1]) if lines and lines[-1].startswith("{") else None


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    failures = []
    for workload in (w["name"] for w in spec["workloads"]):
        for trace in (0, 1):
            declared = {m["name"]: m["unit"]
                        for m in spec["per_layer" if trace else "end_to_end"]}
            done = run(["--workload", workload, "--seed", "1", "--seconds",
                        "1", "--trace", str(trace), "--smoke"])
            result = last_json(done.stdout)
            printed = ({n: m["unit"] for n, m in result["metrics"].items()}
                       if result else None)
            if done.returncode != 0 or printed != declared:
                failures.append("%s trace=%d: rc=%d metrics=%s" %
                                (workload, trace, done.returncode, printed))
        breaks = ["--perturb"] + (["--break-load"]
                                  if workload == "cold_sweep" else [])
        for flag in breaks:
            done = run(["--workload", workload, "--seed", "1", "--seconds",
                        "1", "--smoke", flag])
            result = last_json(done.stdout)
            if (done.returncode == 0 or result is None or result["correct"]
                    or result["failed"] == 0):
                failures.append("%s %s did not fail the run"
                                % (workload, flag))

    bare = os.path.join(ROOT, ".bench_build", "selftest_bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    shutil.copytree(HERE, os.path.join(bare, "servebench"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = run(["--workload", "warm_zipf", "--seed", "1", "--seconds", "1"],
               cwd=bare)
    shutil.rmtree(bare, ignore_errors=True)
    if done.returncode == 0 or last_json(done.stdout) is not None:
        failures.append("a bare directory produced a result")

    for failure in failures:
        print("FAIL " + failure)
    print("selftest: %s" % ("FAILED" if failures else "ok"))
    sys.exit(1 if failures else 0)


if __name__ == "__main__":
    main()
