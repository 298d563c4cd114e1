// Copyright 2026 The ConsensusDB Authors
//
// cpdb::Engine — the parallel evaluation facade over the Section 4-5
// consensus algorithms. One Engine owns one ThreadPool and routes
// rank-distribution, consensus Top-k and set-consensus queries through
// it. Every parallel path is *schedule-deterministic*: the
// result is bitwise identical for any thread count (including 1), because
// work is split into fixed units whose partial results are merged in a
// fixed order on the calling thread:
//
//   * rank distributions — one unit per leaf (LeafRankContribution), merged
//     in DFS leaf order, which is exactly the accumulation order of the
//     sequential ComputeRankDistribution;
//   * the Kendall q columns — one unit per cell q(u, t) with t in the
//     footrule answer, each writing its own cell;
//   * median symdiff — one unit per Theorem 4 search stratum (score
//     threshold DPs plus the small-world DP), merged by replaying the
//     sequential first-improvement scan;
//   * footrule / intersection assignment — one cost (profit) column per
//     candidate tuple, fanned across the pool before the Hungarian solve;
//   * expected ranks — one unit per key (core ExpectedRankOfKey).
//
// Set consensus is not a parallel path: the leaf marginals come off one
// O(N) FlatTree::Compile pass (LeafMarginals), and the filter / min-cost DP
// over them (ConsensusWorldWithMarginals) is O(N) on the calling thread.
//
// EvaluateConsensusBatch fans whole queries across the same pool (queries
// nest their own ParallelFor calls; the pool is nest-safe), so callers with
// many (tree, k, metric) combinations pay one submission. Sharding and
// caching live above this facade, in src/service: each shard owns one
// Engine, and its rank-distribution cache feeds ConsensusQuery::dist.

#ifndef CPDB_ENGINE_ENGINE_H_
#define CPDB_ENGINE_ENGINE_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "common/result.h"
#include "common/thread_pool.h"
#include "core/rank_distribution.h"
#include "core/topk_metrics.h"
#include "core/topk_symdiff.h"
#include "model/and_xor_tree.h"

namespace cpdb {

/// \brief Which consensus answer a Top-k query asks for (the CLI's
/// --answer flag). Not every (metric, answer) pair is supported — see
/// Engine::ConsensusTopK.
enum class TopKAnswer {
  kMean,               ///< exact mean answer (size exactly k)
  kMedian,             ///< median answer (a realizable world's Top-k)
  kMeanUnrestricted,   ///< size-unrestricted mean (symdiff only)
  kMeanApprox,         ///< H_k-approximate mean (intersection only)
};

/// \brief The answer kind's textual name ("mean", "median", "any-size",
/// "approx") — the single vocabulary shared by the CLI's --answer flag and
/// the serve protocol's answer= field (the companion of TopKMetricName in
/// core/topk_metrics.h). "?" for unknown enum values.
const char* TopKAnswerName(TopKAnswer answer);

/// \brief The inverse of TopKAnswerName; InvalidArgument (naming the
/// accepted values) for anything else. Strict: callers must not default.
Result<TopKAnswer> ParseTopKAnswerName(const std::string& name);

/// \brief Construction-time knobs for an Engine.
struct EngineOptions {
  /// Threads used for query evaluation, counting the calling thread;
  /// values < 1 use the hardware concurrency. 1 means fully sequential.
  int num_threads = 0;
};

/// \brief Monotonic counters describing an engine's fold machinery — the
/// observability surface the serving layer's `op=metrics` scrape re-exports
/// (as cpdb_fold_compiles_total, cpdb_rank_dist_folds_total,
/// cpdb_kendall_q_cells_total and cpdb_poly_arena_highwater_bytes). Plain
/// counting, no clock reads: maintaining them costs a relaxed atomic add
/// per compile, rank-distribution fold or Kendall query and a CAS-max per
/// fold unit, so they are always on.
struct EngineObsCounters {
  /// FlatTree::Compile calls this engine has paid (each is one O(N) pass
  /// over a tree; the serving caches exist to keep this flat under
  /// repeated traffic).
  int64_t fold_compiles = 0;
  /// Rank-distribution folds this engine ran, one per
  /// ComputeRankDistribution call on the general or the BID path
  /// (including the ones ConsensusTopK runs for itself). A work counter:
  /// the serving caches and the batch plan exist to keep it at one per
  /// shape.
  int64_t rank_dist_folds = 0;
  /// Kendall q cells folded, one per PrInTopKAndBefore call: (n-1)·k per
  /// Kendall query over n keys, 0 for one the footrule answer rejects. A
  /// work counter, a pure function of the queries answered.
  int64_t kendall_q_cells = 0;
  /// The largest single fold this engine ran, in bytes of PolyArena rows
  /// (num_slots × row_len doubles) — the peak per-thread working set of
  /// the flat fold (see poly/poly_arena.h). It counts this engine's folds
  /// only, not the capacity the thread-local arena kept from earlier work.
  /// A gauge, not a counter: it only rises.
  int64_t arena_highwater_bytes = 0;
};

class FlatTree;

/// \brief Parallel evaluation engine; thread-safe for concurrent queries
/// against distinct trees (the engine itself holds no per-query state).
class Engine {
 public:
  explicit Engine(const EngineOptions& options = EngineOptions());
  ~Engine();

  Engine(const Engine&) = delete;
  Engine& operator=(const Engine&) = delete;

  /// \brief Actual thread count (options().num_threads resolved).
  int num_threads() const;

  const EngineOptions& options() const { return options_; }

  // -- Rank distributions (Section 5 sufficient statistics) ---------------

  /// \brief Parallel ComputeRankDistribution: the tree is compiled to a
  /// FlatTree once, shared read-only across the pool; per-leaf flat folds
  /// (each over its thread's arena scratch) are evaluated in parallel and
  /// merged in DFS leaf order. Bitwise identical for any thread count; on
  /// the general path this also means bitwise identity with the sequential
  /// core function and with the pointer-tree reference fold. A
  /// block-independent tree (IsBlockIndependent) takes the O(n k) fast BID
  /// path instead: the result is that of ComputeRankDistributionFast —
  /// sequential and deterministic, but a numerically different (equally
  /// correct) algorithm than the general path, agreeing only to ~1e-9.
  ///
  /// `program`, when non-null, must be FlatTree::Compile(tree) (the
  /// serving catalog holds exactly that, one per distinct shape); the call
  /// then skips its own compile. A compiled program is a pure function of
  /// the tree, so the answer is bitwise identical either way — this and
  /// the other `program` parameters below only move WHERE the one compile
  /// happens (catalog insert vs. first query). Ignored on the fast BID
  /// path, which never compiles.
  RankDistribution ComputeRankDistribution(
      const AndXorTree& tree, int k, const FlatTree* program = nullptr) const;

  // -- Consensus Top-k (Section 5) ----------------------------------------

  /// \brief Computes the consensus Top-k answer for (metric, answer). Every
  /// metric's heavy precomputation runs through the pool: the rank
  /// distribution always; additionally the Theorem 4 strata (symdiff
  /// median), the per-candidate Hungarian cost/profit columns (footrule,
  /// intersection exact), and the footrule columns plus the answer's q
  /// columns (kendall). Results are bitwise identical to the sequential core
  /// functions for any thread count. Unsupported combinations (e.g.
  /// footrule median) return NotImplemented; unknown enum values return
  /// InvalidArgument.
  Result<TopKResult> ConsensusTopK(const AndXorTree& tree, int k,
                                   TopKMetric metric,
                                   TopKAnswer answer = TopKAnswer::kMean,
                                   const FlatTree* program = nullptr) const;

  /// \brief Validates a (metric, answer) combination without running a
  /// query — the same check ConsensusTopK performs before paying the
  /// O(L^2 k) precompute (NotImplemented for unsupported pairs,
  /// InvalidArgument for unknown enum values). Exposed so batching layers
  /// (the serve scheduler) can skip cache population for requests that can
  /// only fail.
  static Status ValidateConsensusRequest(TopKMetric metric, TopKAnswer answer);

  /// \brief ConsensusTopK with the rank-distribution precompute supplied by
  /// the caller: the cache-aware entry point. `dist` must be the engine's
  /// ComputeRankDistribution(tree, dist.k()), or a Prefix(k) view of a
  /// wider fold (bitwise the same) — the serving layer's RankDistCache
  /// memoizes one such fold per shape, so repeated queries against one
  /// shape skip the O(L^2 k) fold. Because the
  /// fold is schedule-deterministic, answers are bitwise identical whether
  /// `dist` was computed fresh or served from a cache. The metric-specific
  /// tails (strata, columns, q columns) still run through the pool. The
  /// guard here is a cheap key-set compare: a `dist` whose key set does not
  /// match tree.Keys() is InvalidArgument, but a stale distribution from a
  /// *different tree over the identical key set* (say, re-built with new
  /// probabilities) passes undetected — content identity is the caller's
  /// contract, which is why the serving layer keys its RankDistCache by the
  /// catalog's structural key rather than by name or pointer.
  Result<TopKResult> ConsensusTopKWithDist(
      const AndXorTree& tree, const RankDistribution& dist, TopKMetric metric,
      TopKAnswer answer = TopKAnswer::kMean,
      const FlatTree* program = nullptr) const;

  /// \brief One query of a consensus Top-k batch; `tree` (and `dist` when
  /// set) must stay alive for the duration of the EvaluateConsensusBatch
  /// call (several queries may share one tree).
  struct ConsensusQuery {
    const AndXorTree* tree = nullptr;
    int k = 1;
    TopKMetric metric = TopKMetric::kSymDiff;
    TopKAnswer answer = TopKAnswer::kMean;
    /// Optional precomputed rank distribution for (tree, k) — see
    /// ConsensusTopKWithDist. When set, its k() must equal `k` (the slot
    /// fails with InvalidArgument otherwise) and the query skips the
    /// rank-distribution fold; the serve scheduler points every query of a
    /// shape at views of one cached fold.
    const RankDistribution* dist = nullptr;
    /// Optional precompiled fold program for `tree` — see
    /// ComputeRankDistribution. Must be FlatTree::Compile(*tree) when set;
    /// the serving catalog shares one per distinct shape.
    const FlatTree* program = nullptr;
  };

  /// \brief Evaluates many consensus Top-k queries in one submission,
  /// fanning whole queries across the pool (each query may nest its own
  /// ParallelFor; the pool is nest-safe, and idle threads inside one query
  /// steal units of another). results[i] corresponds to queries[i] and
  /// equals what ConsensusTopK(queries[i]...) returns — bitwise, for any
  /// thread count; per-query failures (null tree, bad k, unsupported
  /// combination) land in their slot without affecting other queries.
  std::vector<Result<TopKResult>> EvaluateConsensusBatch(
      const std::vector<ConsensusQuery>& queries) const;

  // -- Set consensus (Section 4.1) ----------------------------------------

  /// \brief Leaf marginals (indexed by NodeId), read off one O(N)
  /// FlatTree::Compile pass (which carries the root-to-leaf XOR edge
  /// product in the same multiplication order as the per-leaf pointer
  /// walks); bitwise identical to tree.LeafMarginals(). Callers issuing
  /// several set-consensus operations against one tree (e.g. an answer
  /// plus its expected distance) compute this once and use the core
  /// *FromMarginals functions, paying the compile a single time. With a
  /// non-null `program` (== FlatTree::Compile(tree)) no compile happens at
  /// all: the marginals are read straight off the supplied leaf table.
  std::vector<double> LeafMarginals(const AndXorTree& tree,
                                    const FlatTree* program = nullptr) const;

  /// \brief Parallel expected ranks (core/ranking_baselines.h
  /// ExpectedRanks): one task per key, each running the core
  /// ExpectedRankOfKey body into its own disjoint slot — bitwise identical
  /// to the core function for any thread count. Indexed like tree.Keys().
  /// Serves op=baseline method=erank.
  std::vector<double> ExpectedRanks(const AndXorTree& tree) const;

  /// \brief A set-consensus world answer: the chosen world's leaves and its
  /// expected symmetric-difference distance.
  struct WorldResult {
    std::vector<NodeId> leaf_ids;
    double expected_distance = 0.0;
  };

  /// \brief The mean (or median) world under symmetric difference with the
  /// per-leaf marginal fold supplied by the caller — the set-consensus
  /// sibling of ConsensusTopKWithDist, and the entry point op=world
  /// feeds with LeafMarginals over the catalog's compiled program.
  /// `marginals` must be this engine's LeafMarginals(tree) (equivalently
  /// tree.LeafMarginals(): they agree bitwise); the guard here is a cheap
  /// size compare against the tree's node count, so a stale vector from a
  /// *different tree with the same node count* passes undetected — content
  /// identity is the caller's contract. Everything downstream of the fold
  /// (filter, min-cost DP, distance sum) is sequential O(N), so the result
  /// is bitwise identical to the core MeanWorldSymDiff / MedianWorldSymDiff
  /// plus ExpectedSymDiffDistance.
  Result<WorldResult> ConsensusWorldWithMarginals(
      const AndXorTree& tree, const std::vector<double>& marginals,
      bool median) const;

  // -- Observability -------------------------------------------------------

  /// \brief Snapshot of the fold-machinery counters (see EngineObsCounters).
  /// Relaxed reads; exact when the engine is quiescent.
  EngineObsCounters obs_counters() const {
    EngineObsCounters counters;
    counters.fold_compiles = fold_compiles_.load(std::memory_order_relaxed);
    counters.rank_dist_folds =
        rank_dist_folds_.load(std::memory_order_relaxed);
    counters.kendall_q_cells =
        kendall_q_cells_.load(std::memory_order_relaxed);
    counters.arena_highwater_bytes =
        arena_highwater_bytes_.load(std::memory_order_relaxed);
    return counters;
  }

 private:
  /// One `column(dist, key)` evaluation per key of `dist`, fanned across
  /// the pool — the per-candidate unit of the assignment-based metrics.
  std::vector<std::vector<double>> PerKeyColumns(
      const RankDistribution& dist,
      const std::function<std::vector<double>(const RankDistribution&, KeyId)>&
          column) const;

  /// FlatTree::Compile, counted: the single chokepoint every engine path
  /// compiles through, so fold_compiles_ cannot undercount.
  FlatTree CompileCounted(const AndXorTree& tree) const;

  /// Folds the bytes of the fold that just ran on the calling thread's
  /// arena into the high-water gauge — called from inside parallel fold
  /// units, where the thread-local scratch the unit just used is this
  /// thread's.
  void NoteArenaHighWater() const;

  EngineOptions options_;
  // ParallelFor mutates pool bookkeeping; queries are logically const.
  mutable ThreadPool pool_;
  // Observability counters (see obs_counters()); queries are logically
  // const, so the instruments they bump are mutable atomics.
  mutable std::atomic<int64_t> fold_compiles_{0};
  mutable std::atomic<int64_t> rank_dist_folds_{0};
  mutable std::atomic<int64_t> kendall_q_cells_{0};
  mutable std::atomic<int64_t> arena_highwater_bytes_{0};
};

}  // namespace cpdb

#endif  // CPDB_ENGINE_ENGINE_H_
