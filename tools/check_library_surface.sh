#!/bin/sh
# Library-surface lint: one implementation per computation.
#
# The library has one generating-function fold, FlatTree (src/model/
# flat_tree.h). The pointer-tree template, the Poly2 and SparsePoly value
# types, and the pointer-tree reference folds (named *Pointer, plus the
# AndXorTree overloads of the flat per-unit bodies) live in tests/support/,
# which only tests and benchmarks link. The serve op table (src/service/
# op_registry.cc) owns the aggregate, baseline-ranking and hardness
# computations; the offline CLI commands answer through it. This script
# fails when any file under src/ or tools/
#
#   * includes one of the test-support headers (generating_function,
#     poly2, sparse_poly, reference_folds, reference_heads), or
#   * names a function ending in "Pointer" followed by an argument list,
#
# or when any file under tools/ includes core/aggregates.h, core/hardness.h
# or core/ranking_baselines.h, so neither a second fold nor an offline
# re-implementation of an op can creep back in. It also fails when any file
# under src/engine/, src/service/ or tools/ includes core/monte_carlo.h or
# core/evaluation.h: the Monte-Carlo estimators and the enumerated expected
# distances are ground truth for tests, benchmarks and examples, never a
# second answer path. And it fails when src/engine/, src/service/ or a
# serving head (src/core/topk_*.cc, src/core/ranking_baselines.cc) calls a
# by-key RankDistribution accessor (PrRankEq, PrRankLe, PrTopK, PrBeyondK):
# each is a binary search per read, so the serving paths read rows
# (RankDistribution::row / RowOf), looking each key up at most once. The
# by-key heads live in tests/support/reference_heads.cc as the reference.
#
# Usage: tools/check_library_surface.sh [repo-root]

set -eu

root="${1:-$(dirname "$0")/..}"
cd "$root"

include_pattern='#[[:space:]]*include[[:space:]]*["<]([^">]*/)?(generating_function|poly2|sparse_poly|reference_folds|reference_heads)[.]h'
pointer_pattern='[A-Za-z0-9_]Pointer[[:space:]]*[(]'
op_core_pattern='#[[:space:]]*include[[:space:]]*["<]core/(aggregates|hardness|ranking_baselines)[.]h'
truth_pattern='#[[:space:]]*include[[:space:]]*["<]core/(monte_carlo|evaluation)[.]h'
by_key_pattern='(PrRankEq|PrRankLe|PrTopK|PrBeyondK)[[:space:]]*[(]'

violations=$(grep -RnE "$include_pattern|$pointer_pattern" src tools || true)

if [ -n "$violations" ]; then
  echo "library-surface lint FAILED: test-only references in src/ or tools/." >&2
  echo "Keep reference folds and their polynomial types in tests/support/:" >&2
  echo "$violations" >&2
  exit 1
fi

op_violations=$(grep -RnE "$op_core_pattern" tools || true)

if [ -n "$op_violations" ]; then
  echo "library-surface lint FAILED: tools/ computes what the op table owns." >&2
  echo "Answer through ShardedScheduler and the OpSpec hooks instead:" >&2
  echo "$op_violations" >&2
  exit 1
fi

truth_violations=$(grep -RnE "$truth_pattern" src/engine src/service tools ||
  true)

if [ -n "$truth_violations" ]; then
  echo "library-surface lint FAILED: a serving path includes a sampler or" >&2
  echo "enumerator. Keep core/monte_carlo.h and core/evaluation.h out of" >&2
  echo "src/engine/, src/service/ and tools/:" >&2
  echo "$truth_violations" >&2
  exit 1
fi

by_key_violations=$(grep -RnE "$by_key_pattern" src/engine src/service \
  src/core/topk_*.cc src/core/ranking_baselines.cc || true)

if [ -n "$by_key_violations" ]; then
  echo "library-surface lint FAILED: a serving path reads a rank" >&2
  echo "distribution by key. Read rows (RankDistribution::row / RowOf)" >&2
  echo "in src/engine/, src/service/ and the serving heads:" >&2
  echo "$by_key_violations" >&2
  exit 1
fi

echo "library surface OK: src/ and tools/ use no tests/support references;"
echo "tools/ leaves the op table's computations to the op table;"
echo "the engine, the service and tools/ include no sampler or enumerator;"
echo "the engine, the service and the serving heads read rank distributions"
echo "by row."
