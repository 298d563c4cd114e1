#!/bin/sh
# Library-surface lint: test-only references stay out of libcpdb.
#
# The library has one generating-function fold, FlatTree (src/model/
# flat_tree.h). The pointer-tree template, the Poly2 and SparsePoly value
# types, and the pointer-tree reference folds (named *Pointer, plus the
# AndXorTree overloads of the flat per-unit bodies) live in tests/support/,
# which only tests and benchmarks link. This script fails when any file
# under src/ or tools/
#
#   * includes one of the test-support headers (generating_function,
#     poly2, sparse_poly), or
#   * names a function ending in "Pointer" followed by an argument list,
#
# so a second implementation of a fold cannot creep back into the library.
#
# Usage: tools/check_library_surface.sh [repo-root]

set -eu

root="${1:-$(dirname "$0")/..}"
cd "$root"

include_pattern='#[[:space:]]*include[[:space:]]*["<]([^">]*/)?(generating_function|poly2|sparse_poly)[.]h'
pointer_pattern='[A-Za-z0-9_]Pointer[[:space:]]*[(]'

violations=$(grep -RnE "$include_pattern|$pointer_pattern" src tools || true)

if [ -n "$violations" ]; then
  echo "library-surface lint FAILED: test-only references in src/ or tools/." >&2
  echo "Keep reference folds and their polynomial types in tests/support/:" >&2
  echo "$violations" >&2
  exit 1
fi

echo "library surface OK: src/ and tools/ use no tests/support references."
