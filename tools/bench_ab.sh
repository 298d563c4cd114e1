#!/bin/sh
# Same-host A/B of the serving benchmark between two commits.
#
# Exports BASE and HEAD with `git archive` into a temporary directory (no
# worktrees, nothing written to the checkout), then runs
#
#   python3 servebench/run.py --workload W --seed 1 --seconds 20 --trace 0
#
# in each export, in interleaved pairs whose order alternates (pair 1 runs
# BASE first, pair 2 HEAD first, ...), at least 4 pairs per workload. Both
# sides are built before any timed run. For every end-to-end metric of
# BENCHMARK.json it prints the two medians, the change in the bad
# direction (positive = HEAD is worse), BASE's interquartile range as a
# fraction of its median, and the metric's bound. A metric whose BASE
# spread exceeds its bound is marked "unresolved": the pairs cannot tell a
# change of that size from noise.
#
# Usage: tools/bench_ab.sh BASE HEAD [workload...]
#   BASE, HEAD  any commit-ish (to measure uncommitted changes, pass the
#               commit `git stash create` prints).
#   workload    default: every workload in HEAD's BENCHMARK.json.
# Environment: BENCH_AB_PAIRS (default 4, minimum 4).
# The exports carry no .git, so each run's servebench provenance line reads
# "commit unknown"; the "bench_ab: base/head" lines printed first name the
# two commits.
# Exit status: 0 when every run was correct with 0 failed requests and no
# metric is worse than its bound; 1 when a run failed or answered wrong;
# 3 when a metric is worse than its bound; 2 on a usage error.

set -eu

if [ $# -lt 2 ]; then
  sed -n '2,/^$/s/^# \{0,1\}//p' "$0" >&2
  exit 2
fi
pairs="${BENCH_AB_PAIRS:-4}"
if [ "$pairs" -lt 4 ]; then
  echo "bench_ab: BENCH_AB_PAIRS must be >= 4" >&2
  exit 2
fi

repo="$(git -C "$(dirname "$0")/.." rev-parse --show-toplevel)"
base="$(git -C "$repo" rev-parse --verify "$1^{commit}")"
head="$(git -C "$repo" rev-parse --verify "$2^{commit}")"
shift 2

tmp="$(mktemp -d "${TMPDIR:-/tmp}/bench_ab.XXXXXX")"
trap 'rm -rf "$tmp"' EXIT INT TERM
for side in base head; do
  eval "commit=\$$side"
  mkdir -p "$tmp/$side"
  git -C "$repo" archive "$commit" | tar -x -C "$tmp/$side"
done
mkdir -p "$tmp/results"

if [ $# -eq 0 ]; then
  set -- $(python3 -c 'import json, sys
print(" ".join(w["name"] for w in json.load(open(sys.argv[1]))["workloads"]))' \
    "$tmp/head/BENCHMARK.json")
fi

echo "bench_ab: base $base"
echo "bench_ab: head $head"
echo "bench_ab: $pairs pairs per workload, --seed 1 --seconds 20," \
  "nproc $(nproc 2>/dev/null || echo unknown)"

# One smoke run per side builds its servebench driver before any timed run.
for side in base head; do
  if ! (cd "$tmp/$side" && python3 servebench/run.py --workload "$1" \
        --seed 1 --seconds 1 --trace 0 --smoke > "$tmp/build-$side.log" 2>&1)
  then
    cat "$tmp/build-$side.log" >&2
    echo "bench_ab: $side failed its build/smoke run" >&2
    exit 1
  fi
done

status=0
run_one() {  # side workload pair
  out="$tmp/results/$2-$1-$3.txt"
  if ! (cd "$tmp/$1" && python3 servebench/run.py --workload "$2" --seed 1 \
        --seconds 20 --trace 0 > "$out" 2> "$out.err"); then
    echo "bench_ab: $1 $2 pair $3 failed:" >&2
    cat "$out.err" >&2
    status=1
  fi
}
for workload in "$@"; do
  i=1
  while [ "$i" -le "$pairs" ]; do
    if [ $((i % 2)) -eq 1 ]; then
      run_one base "$workload" "$i"
      run_one head "$workload" "$i"
    else
      run_one head "$workload" "$i"
      run_one base "$workload" "$i"
    fi
    echo "bench_ab: $workload pair $i/$pairs done"
    i=$((i + 1))
  done
done

set +e
python3 - "$tmp/results" "$tmp/head/BENCHMARK.json" "$pairs" "$@" <<'EOF'
import json
import statistics
import sys

results, spec_path, pairs = sys.argv[1], sys.argv[2], int(sys.argv[3])
workloads = sys.argv[4:]
metrics = json.load(open(spec_path))["end_to_end"]
worse = False
bad_runs = 0
for workload in workloads:
    values = {"base": {}, "head": {}}
    for side in values:
        for i in range(1, pairs + 1):
            path = "%s/%s-%s-%d.txt" % (results, workload, side, i)
            try:
                lines = open(path).read().splitlines()
                result = json.loads(lines[-1])
            except (OSError, IndexError, ValueError):
                print("%s %s pair %d: no result" % (workload, side, i))
                bad_runs += 1
                continue
            if not result["correct"] or result["failed"] != 0:
                print("%s %s pair %d: correct=%s failed=%d" %
                      (workload, side, i, result["correct"], result["failed"]))
                bad_runs += 1
            for name, metric in result["metrics"].items():
                values[side].setdefault(name, []).append(metric["value"])
    print()
    print("%s (%d pairs)" % (workload, pairs))
    print("  %-16s %12s %12s %9s %9s %7s" %
          ("metric", "base_median", "head_median", "worse_by", "base_iqr",
           "bound"))
    for metric in metrics:
        name, bound = metric["name"], metric["bound"]
        base, head = values["base"].get(name), values["head"].get(name)
        if not base or not head:
            print("  %-16s missing" % name)
            continue
        b, h = statistics.median(base), statistics.median(head)
        change = (h - b) / b if b else 0.0
        if metric["better"] == "higher":
            change = -change
        q = statistics.quantiles(base, n=4, method="inclusive")
        iqr = (q[2] - q[0]) / b if b else 0.0
        verdict = ""
        if change > bound:
            verdict = "WORSE THAN BOUND"
            worse = True
        if iqr > bound:
            verdict = (verdict + ", " if verdict else "") + "unresolved"
        print("  %-16s %12.6g %12.6g %+8.1f%% %8.1f%% %6.0f%%  %s" %
              (name, b, h, 100 * change, 100 * iqr, 100 * bound, verdict))
print()
print("bench_ab: %d bad runs; %s" %
      (bad_runs, "a metric is worse than its bound" if worse
       else "no metric worse than its bound"))
sys.exit(1 if bad_runs else (3 if worse else 0))
EOF
summary=$?
set -e
if [ "$status" -ne 0 ]; then
  exit 1
fi
exit "$summary"
