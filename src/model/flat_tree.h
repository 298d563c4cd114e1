#ifndef CPDB_MODEL_FLAT_TREE_H_
#define CPDB_MODEL_FLAT_TREE_H_

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "model/and_xor_tree.h"
#include "model/types.h"
#include "poly/poly_arena.h"

// A flattened, cache-friendly compilation of a validated AndXorTree — the
// library's one generating-function fold (Section 3.3, Theorem 1):
//
//   * leaf v:        F_v = s(v)                  (the caller's leaf_init)
//   * XOR node v:    F_v = (1 - sum_h p(v, v_h)) + sum_h p(v, v_h) F_{v_h}
//   * AND node v:    F_v = prod_h F_{v_h}
//
// A pointer-tree fold re-walks parent/child pointers and allocates a fresh
// coefficient vector per node on every evaluation. FlatTree::Compile walks
// the tree ONCE and emits:
//
//   * an instruction stream of fixed-stride FlatOp records in evaluation
//     (post-order) order — evaluating the fold becomes one linear pass over
//     a contiguous array, no pointer chasing;
//   * compile-time slot lifetimes: each op names which scratch rows it reads
//     and writes, slot ids are assigned from a LIFO free list, and a child's
//     row is recycled the moment its parent consumes it, so num_slots() is
//     the fold's live high-water mark (O(depth), not O(nodes)) and all
//     scratch lives in one reusable PolyArena buffer;
//   * a leaf table (FlatLeaf) in left-to-right DFS order — identical to
//     AndXorTree::LeafIds() order — carrying (key, score, label, node id)
//     so per-target leaf classification is a linear scan over a packed
//     array, plus each leaf's precomputed marginal probability;
//   * precomputed XOR leftover mass per node (stored on the kXorInit op).
//
// Bitwise contract: EvalGeneratingFunction performs the same arithmetic
// operations in the same order as the recursive definition above — leaves
// combine into XOR accumulators via AddScaledRow in child order, AND
// children combine left-to-right via ConvolveRowsTruncated — so for
// identical leaf polynomials its coefficients are bit-identical to the
// pointer-tree reference fold kept in the test-support library
// (tests/support; pinned by tests/flat_tree_test.cc and
// tests/reference_fold_test.cc).
//
// A compiled FlatTree is immutable and safe to share across threads; each
// evaluating thread supplies its own PolyArena (see FlatFoldScratch()).

namespace cpdb {

enum class FlatOpKind : int32_t {
  kLeaf,      // zero row out_slot, then caller's leaf_init writes the monomial
  kXorInit,   // zero row out_slot, set coefficient 0 to `weight` (leftover)
  kXorAccum,  // row out_slot += weight * row arg_slot; frees arg_slot
  kMul,       // row out_slot = conv(row lhs_slot, row arg_slot); frees both
};

/// One fixed-stride instruction of the flattened fold.
struct FlatOp {
  FlatOpKind kind;
  int32_t out_slot;  // row written (kXorAccum: accumulated into)
  int32_t lhs_slot;  // kMul: left operand row; otherwise -1
  int32_t arg_slot;  // kMul: right operand row; kXorAccum: child row; else -1
  NodeId node;       // originating AndXorTree node (debugging / dump-flat)
  double weight;     // kXorInit: XOR leftover mass; kXorAccum: edge prob
};

/// One leaf record, in left-to-right DFS order (== AndXorTree::LeafIds()).
struct FlatLeaf {
  KeyId key;
  double score;
  int32_t label;
  NodeId node;       // originating AndXorTree node id
  int32_t op_index;  // index of this leaf's kLeaf op in ops()
  double marginal;   // Pr[leaf present]; bitwise == AndXorTree::LeafMarginal
};

class FlatTree {
 public:
  /// Compiles a validated tree. The tree must have passed Validate(); an
  /// unvalidated/empty tree yields an empty FlatTree (no ops, no leaves).
  static FlatTree Compile(const AndXorTree& tree);

  int num_leaves() const { return static_cast<int>(leaves_.size()); }
  int num_slots() const { return num_slots_; }
  int32_t root_slot() const { return root_slot_; }
  const std::vector<FlatOp>& ops() const { return ops_; }
  const std::vector<FlatLeaf>& leaves() const { return leaves_; }

  /// Runs the generating-function fold over coefficient rows of logical
  /// shape (max_dx + 1) × (max_dy + 1), row-major (Poly2 layout; Poly1 is
  /// max_dy == 0). For each leaf, in leaf-table order, `leaf_init(i, row)`
  /// is called with a zeroed row to write leaf i's polynomial. The root
  /// polynomial's coefficients are copied into `out` (length
  /// (max_dx + 1) * (max_dy + 1)). `arena` provides the scratch rows and is
  /// resized to this fold's geometry; pass FlatFoldScratch() on hot paths.
  void EvalGeneratingFunction(
      int max_dx, int max_dy,
      const std::function<void(int leaf_index, double* row)>& leaf_init,
      double* out, PolyArena* arena) const;

  /// Human-readable record table (op stream + leaf table), for
  /// `cpdb_cli dump-flat` and debugging.
  std::string ToString() const;

 private:
  std::vector<FlatOp> ops_;
  std::vector<FlatLeaf> leaves_;
  int32_t num_slots_ = 0;
  int32_t root_slot_ = -1;
};

/// This thread's reusable fold scratch. Hot paths evaluate many same-shaped
/// folds back to back (one per leaf, one per pairwise cell); routing them
/// all through one thread_local arena means zero-allocation steady state,
/// including across Engine::ParallelFor task boundaries on a pool thread.
PolyArena& FlatFoldScratch();

}  // namespace cpdb

#endif  // CPDB_MODEL_FLAT_TREE_H_
