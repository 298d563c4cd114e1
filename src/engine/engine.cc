// Copyright 2026 The ConsensusDB Authors

#include "engine/engine.h"

#include <optional>
#include <utility>

#include "core/jaccard.h"  // IsBlockIndependent
#include "core/rank_distribution_fast.h"
#include "core/ranking_baselines.h"
#include "core/set_consensus.h"
#include "core/topk_footrule.h"
#include "core/topk_intersection.h"
#include "core/topk_kendall.h"
#include "core/topk_metrics.h"
#include "model/flat_tree.h"

namespace cpdb {

const char* TopKAnswerName(TopKAnswer answer) {
  switch (answer) {
    case TopKAnswer::kMean:
      return "mean";
    case TopKAnswer::kMedian:
      return "median";
    case TopKAnswer::kMeanUnrestricted:
      return "any-size";
    case TopKAnswer::kMeanApprox:
      return "approx";
  }
  return "?";
}

Result<TopKAnswer> ParseTopKAnswerName(const std::string& name) {
  for (TopKAnswer answer : {TopKAnswer::kMean, TopKAnswer::kMedian,
                            TopKAnswer::kMeanUnrestricted,
                            TopKAnswer::kMeanApprox}) {
    if (name == TopKAnswerName(answer)) return answer;
  }
  return Status::InvalidArgument(
      "unknown answer '" + name +
      "' (expected mean, median, any-size or approx)");
}

Engine::Engine(const EngineOptions& options)
    : options_(options), pool_(options.num_threads) {}

Engine::~Engine() = default;

int Engine::num_threads() const { return pool_.num_threads(); }

RankDistribution Engine::ComputeRankDistribution(
    const AndXorTree& tree, int k, const FlatTree* program) const {
  rank_dist_folds_.fetch_add(1, std::memory_order_relaxed);
  if (IsBlockIndependent(tree)) {
    Result<RankDistribution> fast = ComputeRankDistributionFast(tree, k);
    if (fast.ok()) return std::move(fast).ValueOrDie();
    // Fall through to the general path on any fast-path failure.
  }

  // Compile the flat form once (or reuse the caller's shared program); the
  // immutable FlatTree is shared read-only across all parallel leaf tasks,
  // each of which folds over its own thread-local arena scratch.
  std::optional<FlatTree> owned;
  if (program == nullptr) owned.emplace(CompileCounted(tree));
  const FlatTree& flat = program != nullptr ? *program : *owned;
  const int num_leaves = flat.num_leaves();
  std::vector<std::vector<double>> contributions(
      static_cast<size_t>(num_leaves));
  pool_.ParallelFor(num_leaves, [&](int64_t i) {
    contributions[static_cast<size_t>(i)] =
        LeafRankContribution(flat, static_cast<int>(i), k);
    NoteArenaHighWater();
  });

  // The sequential form's merge, in the same leaf-table order: bitwise-
  // identical sums.
  return MergeLeafRankContributions(flat, k, contributions);
}

std::vector<std::vector<double>> Engine::PerKeyColumns(
    const RankDistribution& dist,
    const std::function<std::vector<double>(const RankDistribution&, KeyId)>&
        column) const {
  const std::vector<KeyId>& keys = dist.keys();
  std::vector<std::vector<double>> columns(keys.size());
  pool_.ParallelFor(static_cast<int64_t>(keys.size()), [&](int64_t t) {
    columns[static_cast<size_t>(t)] =
        column(dist, keys[static_cast<size_t>(t)]);
  });
  return columns;
}

std::vector<double> Engine::LeafMarginals(const AndXorTree& tree,
                                          const FlatTree* program) const {
  // FlatTree::Compile carries the root-to-leaf XOR edge product down its
  // single O(N) walk, multiplying in the exact order tree.LeafMarginal
  // does, so scattering the precomputed leaf-table marginals is bitwise
  // identical to the historical per-leaf pointer walks — and replaces L
  // O(depth) walks with one pass (or zero, with a supplied program).
  std::optional<FlatTree> owned;
  if (program == nullptr) owned.emplace(CompileCounted(tree));
  const FlatTree& flat = program != nullptr ? *program : *owned;
  std::vector<double> marginal(static_cast<size_t>(tree.NumNodes()), 0.0);
  for (const FlatLeaf& leaf : flat.leaves()) {
    marginal[static_cast<size_t>(leaf.node)] = leaf.marginal;
  }
  return marginal;
}

std::vector<double> Engine::ExpectedRanks(const AndXorTree& tree) const {
  // One task per key, each writing its own slot through the core per-key
  // body; the shared marginal fold is computed once, read-only across tasks.
  const std::vector<double> marginal = tree.LeafMarginals();
  const std::vector<KeyId> keys = tree.Keys();
  std::vector<double> expected(keys.size(), 0.0);
  pool_.ParallelFor(static_cast<int64_t>(keys.size()), [&](int64_t t) {
    expected[static_cast<size_t>(t)] =
        ExpectedRankOfKey(tree, marginal, keys[static_cast<size_t>(t)]);
  });
  return expected;
}

namespace {

// Validates a (metric, answer) combination up front, so unsupported pairs
// fail before the O(L^2 k) rank-distribution precompute is paid.
Status ValidateTopKRequest(TopKMetric metric, TopKAnswer answer) {
  switch (metric) {
    case TopKMetric::kSymDiff:
      if (answer == TopKAnswer::kMeanApprox) {
        return Status::NotImplemented(
            "approx answers exist only for the intersection metric");
      }
      return Status::OK();
    case TopKMetric::kIntersection:
      if (answer != TopKAnswer::kMean && answer != TopKAnswer::kMeanApprox) {
        return Status::NotImplemented(
            "only mean/approx answers are implemented for intersection");
      }
      return Status::OK();
    case TopKMetric::kFootrule:
      if (answer != TopKAnswer::kMean) {
        return Status::NotImplemented(
            "only the mean answer is implemented for footrule");
      }
      return Status::OK();
    case TopKMetric::kKendall:
      if (answer != TopKAnswer::kMean) {
        return Status::NotImplemented(
            "only the mean (via-footrule) answer is implemented for kendall");
      }
      return Status::OK();
  }
  return Status::InvalidArgument("unknown metric");
}

}  // namespace

Status Engine::ValidateConsensusRequest(TopKMetric metric, TopKAnswer answer) {
  return ValidateTopKRequest(metric, answer);
}

Result<TopKResult> Engine::ConsensusTopK(const AndXorTree& tree, int k,
                                         TopKMetric metric, TopKAnswer answer,
                                         const FlatTree* program) const {
  if (k < 1) return Status::InvalidArgument("k must be >= 1");
  Status valid = ValidateTopKRequest(metric, answer);
  if (!valid.ok()) return valid;
  return ConsensusTopKWithDist(tree, ComputeRankDistribution(tree, k, program),
                               metric, answer, program);
}

Result<TopKResult> Engine::ConsensusTopKWithDist(const AndXorTree& tree,
                                                 const RankDistribution& dist,
                                                 TopKMetric metric,
                                                 TopKAnswer answer,
                                                 const FlatTree* program) const {
  const int k = dist.k();
  if (k < 1) return Status::InvalidArgument("k must be >= 1");
  Status valid = ValidateTopKRequest(metric, answer);
  if (!valid.ok()) return valid;
  // A distribution computed for a different tree would make the metric
  // heads optimize over one key set while the tree-folding tails (kendall
  // q columns, median strata) use another — a silently wrong answer. The
  // O(n) key compare is noise next to the O(L^2 k) fold being skipped; it
  // cannot catch a stale dist from different *content* over the same keys,
  // which is the caller's contract (see the header).
  if (dist.keys() != tree.Keys()) {
    return Status::InvalidArgument(
        "dist was computed for a different tree (key sets differ)");
  }
  switch (metric) {
    case TopKMetric::kSymDiff:
      switch (answer) {
        case TopKAnswer::kMean:
          return MeanTopKSymDiff(dist);
        case TopKAnswer::kMedian: {
          // One unit per Theorem 4 search stratum (score-threshold DPs plus
          // the small-world DP); the merge replays the sequential scan's
          // first-improvement order, so the winner is schedule-independent.
          if (tree.NumLeaves() == 0) {
            return Status::InvalidArgument("empty tree");
          }
          const MedianSymDiffContext context =
              BuildMedianSymDiffContext(tree, dist);
          const int num_strata = NumMedianSymDiffStrata(context);
          std::vector<std::vector<SymDiffMedianCandidate>> per_stratum(
              static_cast<size_t>(num_strata));
          pool_.ParallelFor(num_strata, [&](int64_t s) {
            per_stratum[static_cast<size_t>(s)] =
                EvalMedianSymDiffStratum(tree, context, static_cast<int>(s));
          });
          return PickMedianSymDiffCandidate(tree, dist, per_stratum);
        }
        case TopKAnswer::kMeanUnrestricted:
          return MeanTopKSymDiffUnrestricted(dist);
        case TopKAnswer::kMeanApprox:
          break;  // rejected by ValidateTopKRequest
      }
      break;
    case TopKMetric::kIntersection:
      switch (answer) {
        case TopKAnswer::kMean:
          // One profit column per candidate tuple across the pool; the
          // Hungarian solve runs on the calling thread.
          return MeanTopKIntersectionExactFromColumns(
              dist, PerKeyColumns(dist, IntersectionProfitColumn));
        case TopKAnswer::kMeanApprox:
          // A single O(n k + n log n) sort: below parallelization grain.
          return MeanTopKIntersectionApprox(dist);
        case TopKAnswer::kMedian:
        case TopKAnswer::kMeanUnrestricted:
          break;  // rejected by ValidateTopKRequest
      }
      break;
    case TopKMetric::kFootrule:
      // One cost column per candidate tuple across the pool; the Hungarian
      // solve runs on the calling thread.
      return MeanTopKFootruleFromColumns(
          dist, PerKeyColumns(dist, FootruleCostColumn));
    case TopKMetric::kKendall: {
      // E[d_K] reads q(u, t) only for t in the answer (Sec. 5.5), so the
      // footrule answer comes first, from parallel cost columns — a k > n
      // rejection returns here, before any fold. Then one flat fold per
      // cell with t in the answer, (n-1)·k of the n(n-1), fans across the
      // pool (each writes its own cell, so the columns are
      // schedule-deterministic), and the answer is re-scored under d_K.
      CPDB_ASSIGN_OR_RETURN(
          TopKResult footrule,
          MeanTopKFootruleFromColumns(dist,
                                      PerKeyColumns(dist, FootruleCostColumn)));
      const std::vector<KeyId>& keys = dist.keys();
      const std::vector<KeyId>& answer = footrule.keys;
      std::optional<FlatTree> owned;
      if (program == nullptr) owned.emplace(CompileCounted(tree));
      const FlatTree& flat = program != nullptr ? *program : *owned;
      const size_t n = keys.size();
      std::vector<std::vector<double>> columns(answer.size(),
                                               std::vector<double>(n, 0.0));
      pool_.ParallelFor(
          static_cast<int64_t>(answer.size() * n), [&](int64_t cell) {
            const size_t p = static_cast<size_t>(cell) / n;
            const size_t iu = static_cast<size_t>(cell) % n;
            if (keys[iu] == answer[p]) return;
            columns[p][iu] = PrInTopKAndBefore(flat, keys[iu], answer[p], k);
            NoteArenaHighWater();
          });
      kendall_q_cells_.fetch_add(
          static_cast<int64_t>(answer.size() * (n - 1)),
          std::memory_order_relaxed);
      CPDB_ASSIGN_OR_RETURN(
          KendallEvaluator evaluator,
          KendallEvaluator::Create(tree, k, answer, std::move(columns)));
      return RescoreUnderKendall(evaluator, std::move(footrule));
    }
  }
  return Status::InvalidArgument("unknown metric or answer kind");
}

std::vector<Result<TopKResult>> Engine::EvaluateConsensusBatch(
    const std::vector<ConsensusQuery>& queries) const {
  std::vector<Result<TopKResult>> results(
      queries.size(),
      Result<TopKResult>(Status::Internal("query not evaluated")));
  // Whole queries fan across the pool; each slot is written by exactly one
  // unit and every query is itself schedule-deterministic, so the batch is
  // bitwise-equivalent to a sequential loop of ConsensusTopK calls. Nested
  // ParallelFor inside a query is safe (idle threads drain the shared
  // queue), so inner units of one query fill gaps left by another.
  pool_.ParallelFor(static_cast<int64_t>(queries.size()), [&](int64_t i) {
    const ConsensusQuery& q = queries[static_cast<size_t>(i)];
    if (q.tree == nullptr) {
      results[static_cast<size_t>(i)] =
          Status::InvalidArgument("ConsensusQuery.tree must not be null");
      return;
    }
    if (q.dist != nullptr) {
      // Cache-aware slot: the caller supplied the (tree, k) rank
      // distribution (the serving layer points every query sharing a
      // fingerprint at one cached instance). A k mismatch would silently
      // answer a different query, so it fails the slot instead.
      if (q.dist->k() != q.k) {
        results[static_cast<size_t>(i)] = Status::InvalidArgument(
            "ConsensusQuery.dist was computed for a different k");
        return;
      }
      results[static_cast<size_t>(i)] = ConsensusTopKWithDist(
          *q.tree, *q.dist, q.metric, q.answer, q.program);
      return;
    }
    results[static_cast<size_t>(i)] =
        ConsensusTopK(*q.tree, q.k, q.metric, q.answer, q.program);
  });
  return results;
}

Result<Engine::WorldResult> Engine::ConsensusWorldWithMarginals(
    const AndXorTree& tree, const std::vector<double>& marginals,
    bool median) const {
  // A marginal vector folded from another tree would silently pick a world
  // by the wrong probabilities; the size compare catches shape mismatches
  // for free (content identity stays the caller's contract, see header).
  if (marginals.size() != static_cast<size_t>(tree.NumNodes())) {
    return Status::InvalidArgument(
        "marginals were computed for a different tree (node counts differ)");
  }
  WorldResult result;
  result.leaf_ids = median ? MedianWorldSymDiffFromMarginals(tree, marginals)
                           : MeanWorldSymDiffFromMarginals(tree, marginals);
  result.expected_distance =
      ExpectedSymDiffDistanceFromMarginals(tree, marginals, result.leaf_ids);
  return result;
}

FlatTree Engine::CompileCounted(const AndXorTree& tree) const {
  fold_compiles_.fetch_add(1, std::memory_order_relaxed);
  return FlatTree::Compile(tree);
}

void Engine::NoteArenaHighWater() const {
  // Reads the geometry of the fold that just ran on the *calling thread*'s
  // scratch arena — meaningful only from inside fold units. Its capacity
  // would not do: the thread-local arena outlives engines, so capacity
  // grown by an earlier engine's larger fold would leak into this gauge.
  // The CAS-max publishes the peak across all pool threads.
  const PolyArena& arena = FlatFoldScratch();
  const int64_t bytes = static_cast<int64_t>(arena.num_slots()) *
                        arena.row_len() *
                        static_cast<int64_t>(sizeof(double));
  int64_t seen = arena_highwater_bytes_.load(std::memory_order_relaxed);
  while (bytes > seen && !arena_highwater_bytes_.compare_exchange_weak(
                             seen, bytes, std::memory_order_relaxed)) {
  }
}

}  // namespace cpdb
