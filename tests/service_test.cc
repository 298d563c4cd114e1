// Copyright 2026 The ConsensusDB Authors
//
// Tests for the serving layer: TreeCatalog fingerprint stability and
// content deduplication, RankDistCache hit/miss accounting, and — the load-
// bearing property — bitwise parity between cached and uncached consensus
// answers for all four Top-k metrics, across cold/warm caches and thread
// counts. The cache stores a value the engine computes deterministically,
// so memoization must be observable only in the CacheStats counters.

#include "service/sharded_scheduler.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/hash.h"
#include "common/rng.h"
#include "core/set_consensus.h"
#include "io/table_io.h"
#include "io/tree_text.h"
#include "model/canonical.h"
#include "model/flat_tree.h"
#include "model/possible_worlds.h"
#include "service/rank_dist_cache.h"
#include "service/tree_catalog.h"
#include "workload/generators.h"

namespace cpdb {
namespace {

constexpr char kTreeText[] =
    "(and (xor 0.6 (leaf key=1 score=8) 0.3 (leaf key=1 score=5))"
    " (xor 0.7 (leaf key=2 score=9))"
    " (xor 0.5 (leaf key=3 score=7) 0.5 (leaf key=3 score=6)))";

// The same tree with different whitespace: canonical fingerprints must
// collide on purpose.
constexpr char kTreeTextReformatted[] =
    "(and\n  (xor 0.6 (leaf key=1 score=8)\n       0.3 (leaf key=1 score=5))\n"
    "  (xor 0.7 (leaf key=2 score=9))\n"
    "  (xor 0.5 (leaf key=3 score=7) 0.5 (leaf key=3 score=6)))\n";

constexpr char kOtherTreeText[] =
    "(and (xor 0.5 (leaf key=4 score=3)) (xor 0.25 (leaf key=5 score=1)))";

AndXorTree RandomDeepTree(uint64_t seed, int num_keys = 8) {
  Rng rng(seed);
  RandomTreeOptions opts;
  opts.num_keys = num_keys;
  opts.max_depth = 3;
  opts.max_alternatives = 2;
  auto tree = RandomAndXorTree(opts, &rng);
  EXPECT_TRUE(tree.ok());
  return *std::move(tree);
}

// ---------------------------------------------------------------------------
// TreeCatalog
// ---------------------------------------------------------------------------

TEST(TreeCatalogTest, FingerprintIsStableAcrossLoadOrderAndFormatting) {
  TreeCatalog forward;
  ASSERT_TRUE(forward.InsertFromText("a", kTreeText).ok());
  ASSERT_TRUE(forward.InsertFromText("b", kOtherTreeText).ok());

  TreeCatalog backward;
  ASSERT_TRUE(backward.InsertFromText("b", kOtherTreeText).ok());
  ASSERT_TRUE(backward.InsertFromText("a", kTreeTextReformatted).ok());

  // Same content, regardless of insertion order or input formatting.
  EXPECT_EQ(forward.Lookup("a")->content_fp, backward.Lookup("a")->content_fp);
  EXPECT_EQ(forward.Lookup("b")->content_fp, backward.Lookup("b")->content_fp);
  EXPECT_NE(forward.Lookup("a")->content_fp, forward.Lookup("b")->content_fp);
}

TEST(TreeCatalogTest, IdenticalContentUnderTwoNamesSharesOneTree) {
  TreeCatalog catalog;
  auto first = catalog.InsertFromText("original", kTreeText);
  auto alias = catalog.InsertFromText("alias", kTreeTextReformatted);
  ASSERT_TRUE(first.ok());
  ASSERT_TRUE(alias.ok());
  EXPECT_EQ(first->content_fp, alias->content_fp);
  // Shared immutable handle: the same allocation, not an equal copy.
  EXPECT_EQ(first->tree.get(), alias->tree.get());
  EXPECT_EQ(catalog.size(), 2u);
}

TEST(TreeCatalogTest, ReinsertIsIdempotentButConflictErrors) {
  TreeCatalog catalog;
  ASSERT_TRUE(catalog.InsertFromText("t", kTreeText).ok());
  // Identical content again: fine (idempotent re-load).
  EXPECT_TRUE(catalog.InsertFromText("t", kTreeTextReformatted).ok());
  // Different content under a served name: rejected, not replaced.
  auto conflict = catalog.InsertFromText("t", kOtherTreeText);
  ASSERT_FALSE(conflict.ok());
  EXPECT_EQ(conflict.status().code(), StatusCode::kAlreadyExists);
  EXPECT_EQ(catalog.size(), 1u);
}

TEST(TreeCatalogTest, LookupAndValidationErrors) {
  TreeCatalog catalog;
  auto missing = catalog.Lookup("nope");
  ASSERT_FALSE(missing.ok());
  EXPECT_EQ(missing.status().code(), StatusCode::kNotFound);
  EXPECT_FALSE(catalog.InsertFromText("", kTreeText).ok());
  EXPECT_FALSE(catalog.InsertFromText("bad", "(xor 2.0 (leaf key=1))").ok());
}

// The catalog's thread-safety contract, exercised with real threads (this
// is what the TSan CI job watches): concurrent inserts racing on a shared
// name, private names with identical content, and lookups, all interleaved.
TEST(TreeCatalogTest, ConcurrentInsertsAndLookupsShareOneTree) {
  TreeCatalog catalog;
  constexpr int kThreads = 8;
  std::vector<std::thread> workers;
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&catalog, t] {
      // Everyone races to bind the shared name; first insert wins and the
      // rest are idempotent re-loads of identical content.
      auto shared = catalog.InsertFromText("shared", kTreeText);
      EXPECT_TRUE(shared.ok());
      auto mine = catalog.InsertFromText("worker" + std::to_string(t),
                                         kTreeTextReformatted);
      EXPECT_TRUE(mine.ok());
      if (shared.ok() && mine.ok()) {
        EXPECT_EQ(mine->content_fp, shared->content_fp);
      }
      EXPECT_TRUE(catalog.Lookup("shared").ok());
    });
  }
  for (std::thread& w : workers) w.join();
  EXPECT_EQ(catalog.size(), static_cast<size_t>(kThreads) + 1);
  // One content fingerprint -> one shared allocation across every name.
  const AndXorTree* tree = catalog.Lookup("shared")->tree.get();
  for (int t = 0; t < kThreads; ++t) {
    EXPECT_EQ(catalog.Lookup("worker" + std::to_string(t))->tree.get(), tree);
  }
}

TEST(TreeCatalogTest, FingerprintTreeMatchesCanonicalHash) {
  auto tree = ParseTree(kTreeText);
  ASSERT_TRUE(tree.ok());
  EXPECT_EQ(TreeCatalog::FingerprintTree(*tree),
            ContentFp(Fnv1a64(FormatTree(*tree, /*indent=*/false))));
}

// ---------------------------------------------------------------------------
// RankDistCache
// ---------------------------------------------------------------------------

TEST(RankDistCacheTest, CountsHitsAndMissesPerKey) {
  AndXorTree tree = *ParseTree(kTreeText);
  RankDistCache cache;
  int computes = 0;
  auto compute_at = [&](int k) {
    return [&computes, &tree, k] {
      ++computes;
      return ComputeRankDistribution(tree, k);
    };
  };
  auto a = cache.GetOrCompute(StructKey(1), 2, compute_at(2));
  auto b = cache.GetOrCompute(StructKey(1), 2, compute_at(2));
  EXPECT_EQ(computes, 1);
  EXPECT_EQ(a.get(), b.get());  // shared handle, not a copy
  // The key is the shape alone: a wider k misses and its fold replaces the
  // k = 2 entry; a narrower k then hits as a prefix view of it.
  auto wide = cache.GetOrCompute(StructKey(1), 3, compute_at(3));
  auto narrow = cache.GetOrCompute(StructKey(1), 2, compute_at(2));
  EXPECT_EQ(computes, 2);
  EXPECT_EQ(wide->k(), 3);
  EXPECT_EQ(narrow->k(), 2);
  EXPECT_EQ(&narrow->keys(), &wide->keys());  // one table, no copied rows
  EXPECT_EQ(a->k(), 2);  // the replaced entry's handle stays valid
  EXPECT_EQ(a->keys(), wide->keys());
  cache.GetOrCompute(StructKey(2), 2, compute_at(2));
  EXPECT_EQ(computes, 3);
  CacheStats stats = cache.stats();
  EXPECT_EQ(stats.hits, 2);
  EXPECT_EQ(stats.misses, 3);
  EXPECT_EQ(stats.coalesced, 0);
  EXPECT_EQ(stats.entries, 2);
  // A view reports its table's charge, so the retained bytes are those of
  // the widest fold per shape.
  EXPECT_EQ(narrow->ApproxBytes(), wide->ApproxBytes());
  // Wider than retained misses — unless the entry is complete: the k = 3
  // fold of this 3-key tree holds every rank, so it covers any k.
  EXPECT_EQ(cache.Peek(StructKey(2), 3), nullptr);
  ASSERT_NE(cache.Peek(StructKey(1), 4), nullptr);
  EXPECT_EQ(cache.Peek(StructKey(1), 4)->k(), 4);
  // Unbounded by default: entries are charged but never evicted.
  EXPECT_EQ(cache.byte_budget(), kUnboundedCacheBytes);
  EXPECT_EQ(stats.evictions, 0);
  EXPECT_EQ(stats.bytes, wide->ApproxBytes() +
                             cache.Peek(StructKey(2), 2)->ApproxBytes());
}

TEST(RankDistCacheTest, PeekDoesNotCountAndClearResets) {
  AndXorTree tree = *ParseTree(kTreeText);
  RankDistCache cache;
  EXPECT_EQ(cache.Peek(StructKey(1), 2), nullptr);
  auto handle =
      cache.GetOrCompute(StructKey(1), 2,
                         [&] { return ComputeRankDistribution(tree, 2); });
  EXPECT_EQ(cache.Peek(StructKey(1), 2).get(), handle.get());
  CacheStats before = cache.stats();
  EXPECT_EQ(before.hits, 0);
  EXPECT_EQ(before.misses, 1);
  cache.Clear();
  CacheStats after = cache.stats();
  EXPECT_EQ(after.misses, 0);
  EXPECT_EQ(after.entries, 0);
  EXPECT_EQ(cache.Peek(StructKey(1), 2), nullptr);
  // Handles outlive Clear (shared ownership).
  EXPECT_EQ(handle->k(), 2);
}

// The single-flight contract: several threads missing one key fold ONCE —
// the first caller computes, the rest block on the in-flight computation
// and share its allocation. Run with real threads so TSan sees the lock
// hand-offs; the compute counter is atomic so the "exactly once" claim is
// itself race-free.
TEST(RankDistCacheTest, ConcurrentGetOrComputeFoldsOncePerKey) {
  AndXorTree tree = *ParseTree(kTreeText);
  RankDistCache cache;
  constexpr int kThreads = 8;
  std::atomic<int> computes{0};
  std::vector<std::shared_ptr<const RankDistribution>> handles(kThreads);
  std::vector<std::thread> workers;
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&cache, &tree, &handles, &computes, t] {
      handles[t] = cache.GetOrCompute(StructKey(7), 2, [&] {
        ++computes;
        // Widen the race window so coalescing actually happens under TSan.
        std::this_thread::sleep_for(std::chrono::milliseconds(5));
        return ComputeRankDistribution(tree, 2);
      });
      cache.Peek(StructKey(7), 2);
      cache.stats();
    });
  }
  for (std::thread& w : workers) w.join();
  EXPECT_EQ(computes.load(), 1);  // single-flight: one fold, ever
  for (int t = 1; t < kThreads; ++t) {
    EXPECT_EQ(handles[t].get(), handles[0].get()) << "thread " << t;
  }
  CacheStats stats = cache.stats();
  EXPECT_EQ(stats.entries, 1);
  // Each call counts exactly once: one miss (the computing caller), and
  // every other caller either coalesced on the flight or hit the retained
  // entry, depending on arrival time.
  EXPECT_EQ(stats.misses, 1);
  EXPECT_EQ(stats.hits + stats.coalesced, kThreads - 1);
}

// ---------------------------------------------------------------------------
// ServiceRequestFromLine — the strict semantic mapping
// ---------------------------------------------------------------------------

Result<ServiceRequest> MapLine(const std::string& text) {
  auto line = ParseRequestLine(text);
  if (!line.ok()) return line.status();
  return ServiceRequestFromLine(*line);
}

TEST(ServiceRequestTest, MapsEveryOp) {
  auto load = MapLine("op=load name=t file=/tmp/x.sexp format=bid");
  ASSERT_TRUE(load.ok());
  EXPECT_EQ(load->op, ServiceRequest::Op::kLoad);
  EXPECT_EQ(load->load_name, "t");
  EXPECT_EQ(load->load_format, "bid");

  auto topk = MapLine("op=topk tree=t k=3 metric=kendall answer=mean");
  ASSERT_TRUE(topk.ok());
  EXPECT_EQ(topk->op, ServiceRequest::Op::kTopK);
  EXPECT_EQ(topk->k, 3);
  EXPECT_EQ(topk->metric, TopKMetric::kKendall);
  EXPECT_EQ(topk->answer, TopKAnswer::kMean);

  auto world = MapLine("op=world tree=t answer=median");
  ASSERT_TRUE(world.ok());
  EXPECT_EQ(world->op, ServiceRequest::Op::kWorld);
  EXPECT_TRUE(world->median_world);

  auto stats = MapLine("op=stats");
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats->op, ServiceRequest::Op::kStats);
}

TEST(ServiceRequestTest, GarbageNeverBecomesADefault) {
  // Strictness matches the PR 2 CLI convention: every one of these is an
  // error, not a silently defaulted request.
  for (const char* bad : {
           "tree=t k=2",                       // missing op
           "op=bogus",                         // unknown op
           "op=topk tree=t",                   // missing k
           "op=topk k=2",                      // missing tree
           "op=topk tree=t k=1o",              // garbage int
           "op=topk tree=t k=0",               // out of range
           "op=topk tree=t k=-3",              // out of range
           "op=topk tree=t k=9999999",         // out of range
           "op=topk tree=t k=2 metric=nope",   // unknown metric
           "op=topk tree=t k=2 answer=nope",   // unknown answer
           "op=topk tree=t k=2 metrc=kendall", // typo'd field name
           "op=world tree=t metric=jaccard",   // unsupported metric
           "op=world tree=t answer=approx",    // unknown answer for world
           "op=load name=t file=f format=xml", // unknown format
           "op=load name=t",                   // missing file
           "op=stats tree=t",                  // field stats does not take
       }) {
    EXPECT_FALSE(MapLine(bad).ok()) << "'" << bad << "' was accepted";
  }
}

// ---------------------------------------------------------------------------
// The serve scheduler (one shard) — parity and dedup
// ---------------------------------------------------------------------------

class SchedulerTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ASSERT_TRUE(catalog_.InsertFromText("t", kTreeText).ok());
    // The serving path folds over the canonical orientation, so the
    // fixture pre-canonicalizes its reference tree: direct engine calls on
    // deep_ are then bitwise comparable with scheduler answers.
    deep_ = *CanonicalizeTree(RandomDeepTree(101));
    ASSERT_TRUE(catalog_.Insert("deep", deep_).ok());
  }

  // A one-shard front end holding the fixture's two trees.
  std::unique_ptr<ShardedScheduler> MakeScheduler(
      const EngineOptions& engine_options = EngineOptions(),
      const SchedulerOptions& options = SchedulerOptions()) const {
    auto scheduler =
        std::make_unique<ShardedScheduler>(1, engine_options, options);
    EXPECT_TRUE(scheduler->Insert("t", *ParseTree(kTreeText)).ok());
    EXPECT_TRUE(scheduler->Insert("deep", deep_).ok());
    return scheduler;
  }

  static ServiceRequest TopKRequest(const std::string& tree, int k,
                                    TopKMetric metric,
                                    TopKAnswer answer = TopKAnswer::kMean) {
    ServiceRequest request;
    request.op = ServiceRequest::Op::kTopK;
    request.tree_name = tree;
    request.k = k;
    request.metric = metric;
    request.answer = answer;
    return request;
  }

  // The reference catalog: direct engine calls read their trees here.
  TreeCatalog catalog_;
  AndXorTree deep_;
};

// The acceptance-criteria test: for all four metrics on one catalog tree,
// answers must be bitwise identical with the cache cold, warm, and
// disabled — and equal to direct one-at-a-time engine calls.
TEST_F(SchedulerTest, CachedAndUncachedAnswersAreBitwiseIdentical) {
  const int k = 3;
  const TopKMetric kMetrics[] = {TopKMetric::kSymDiff,
                                 TopKMetric::kIntersection,
                                 TopKMetric::kFootrule, TopKMetric::kKendall};
  std::vector<ServiceRequest> batch;
  for (TopKMetric metric : kMetrics) {
    batch.push_back(TopKRequest("deep", k, metric));
  }

  EngineOptions engine_options;
  engine_options.num_threads = 4;
  Engine engine(engine_options);

  auto cached = MakeScheduler(engine_options);
  SchedulerOptions no_cache;
  no_cache.use_cache = false;
  auto uncached = MakeScheduler(engine_options, no_cache);

  auto cold = cached->ExecuteBatch(batch);   // cache cold: all misses
  auto warm = cached->ExecuteBatch(batch);   // cache warm: all hits
  auto direct = uncached->ExecuteBatch(batch);
  ASSERT_EQ(cold.size(), batch.size());

  for (size_t i = 0; i < batch.size(); ++i) {
    ASSERT_TRUE(cold[i].ok()) << "slot " << i << ": "
                              << cold[i].status().ToString();
    ASSERT_TRUE(warm[i].ok());
    ASSERT_TRUE(direct[i].ok());
    auto engine_answer =
        engine.ConsensusTopK(deep_, k, batch[i].metric, batch[i].answer);
    ASSERT_TRUE(engine_answer.ok());
    // Bitwise: same keys, and EXPECT_EQ (not NEAR) on the distance.
    EXPECT_EQ(cold[i]->keys, engine_answer->keys) << "slot " << i;
    EXPECT_EQ(cold[i]->expected_distance, engine_answer->expected_distance);
    EXPECT_EQ(warm[i]->keys, cold[i]->keys);
    EXPECT_EQ(warm[i]->expected_distance, cold[i]->expected_distance);
    EXPECT_EQ(direct[i]->keys, cold[i]->keys);
    EXPECT_EQ(direct[i]->expected_distance, cold[i]->expected_distance);
  }

  // The counters tell the sharing story: 4 queries on one (tree, k) cost
  // one fold cold (1 miss + 3 hits), zero folds warm (4 more hits).
  CacheStats stats = cached->cache_stats();
  EXPECT_EQ(stats.misses, 1);
  EXPECT_EQ(stats.hits, 7);
  EXPECT_EQ(stats.entries, 1);
  CacheStats untouched = uncached->cache_stats();
  EXPECT_EQ(untouched.hits + untouched.misses, 0);
}

// A heterogeneous batch (two trees, mixed k / metric / answer, an unknown
// tree, a bad k) must return per-slot exactly what one-at-a-time engine
// calls return, failures isolated to their slot.
TEST_F(SchedulerTest, BatchMatchesOneAtATimeEngineAnswers) {
  std::vector<ServiceRequest> batch = {
      TopKRequest("t", 2, TopKMetric::kSymDiff),
      TopKRequest("deep", 3, TopKMetric::kSymDiff, TopKAnswer::kMedian),
      TopKRequest("deep", 2, TopKMetric::kIntersection,
                  TopKAnswer::kMeanApprox),
      TopKRequest("missing", 2, TopKMetric::kSymDiff),  // unknown tree
      TopKRequest("t", 1, TopKMetric::kKendall),
      TopKRequest("deep", 2, TopKMetric::kFootrule, TopKAnswer::kMedian),
      TopKRequest("deep", 4, TopKMetric::kFootrule),
  };
  EngineOptions engine_options;
  engine_options.num_threads = 4;
  Engine engine(engine_options);
  auto scheduler = MakeScheduler(engine_options);
  auto results = scheduler->ExecuteBatch(batch);
  ASSERT_EQ(results.size(), batch.size());

  for (size_t i = 0; i < batch.size(); ++i) {
    auto entry = catalog_.Lookup(batch[i].tree_name);
    if (!entry.ok()) {
      EXPECT_FALSE(results[i].ok()) << "slot " << i;
      continue;
    }
    auto expected = engine.ConsensusTopK(*entry->tree, batch[i].k,
                                         batch[i].metric, batch[i].answer);
    if (!expected.ok()) {
      EXPECT_FALSE(results[i].ok()) << "slot " << i;
      continue;
    }
    ASSERT_TRUE(results[i].ok())
        << "slot " << i << ": " << results[i].status().ToString();
    EXPECT_EQ(results[i]->keys, expected->keys) << "slot " << i;
    EXPECT_EQ(results[i]->expected_distance, expected->expected_distance);
  }
}

TEST_F(SchedulerTest, WorldRequestsMatchEngineSetConsensus) {
  ServiceRequest mean;
  mean.op = ServiceRequest::Op::kWorld;
  mean.tree_name = "deep";
  ServiceRequest median = mean;
  median.median_world = true;
  Engine engine;
  auto scheduler = MakeScheduler();
  auto results = scheduler->ExecuteBatch({mean, median});
  ASSERT_TRUE(results[0].ok());
  ASSERT_TRUE(results[1].ok());

  std::vector<double> marginal = engine.LeafMarginals(deep_);
  std::vector<NodeId> mean_world =
      engine.ConsensusWorldWithMarginals(deep_, marginal, false)->leaf_ids;
  std::vector<KeyId> mean_keys;
  for (const TupleAlternative& t : WorldTuples(deep_, mean_world)) {
    mean_keys.push_back(t.key);
  }
  EXPECT_EQ(results[0]->keys, mean_keys);
  EXPECT_EQ(results[0]->expected_distance,
            ExpectedSymDiffDistanceFromMarginals(deep_, marginal, mean_world));
  std::vector<NodeId> median_world =
      engine.ConsensusWorldWithMarginals(deep_, marginal, true)->leaf_ids;
  std::vector<KeyId> median_keys;
  for (const TupleAlternative& t : WorldTuples(deep_, median_world)) {
    median_keys.push_back(t.key);
  }
  EXPECT_EQ(results[1]->keys, median_keys);
}

// Scheduler answers must be bitwise identical for any engine thread count —
// the serving layer adds no scheduling dependence of its own.
TEST_F(SchedulerTest, AnswersBitwiseIdenticalAcrossThreadCounts) {
  std::vector<ServiceRequest> batch = {
      TopKRequest("deep", 3, TopKMetric::kSymDiff),
      TopKRequest("deep", 3, TopKMetric::kKendall),
      TopKRequest("deep", 3, TopKMetric::kFootrule),
      TopKRequest("deep", 3, TopKMetric::kIntersection),
      TopKRequest("deep", 3, TopKMetric::kSymDiff, TopKAnswer::kMedian),
  };
  std::vector<Result<ServiceResponse>> reference;
  for (int threads : {1, 2, 4, 8}) {
    EngineOptions engine_options;
    engine_options.num_threads = threads;
    auto results = MakeScheduler(engine_options)->ExecuteBatch(batch);
    if (threads == 1) {
      reference = std::move(results);
      continue;
    }
    ASSERT_EQ(results.size(), reference.size());
    for (size_t i = 0; i < results.size(); ++i) {
      ASSERT_TRUE(results[i].ok());
      ASSERT_EQ(results[i]->keys, reference[i]->keys)
          << "slot " << i << " threads " << threads;
      ASSERT_EQ(results[i]->expected_distance,
                reference[i]->expected_distance);
    }
  }
}

// The scheduler's own concurrency claim — "concurrent ExecuteBatch calls
// are safe" — run for real: several threads fire batches through one
// one-shard scheduler (one shared engine, catalog, and cache) interleaved
// with idempotent catalog re-inserts and stats probes. Every answer must equal
// the single-threaded reference; TSan watches the lock discipline.
TEST_F(SchedulerTest, ConcurrentExecuteBatchCallsAgreeWithReference) {
  EngineOptions engine_options;
  engine_options.num_threads = 2;
  auto scheduler = MakeScheduler(engine_options);
  const std::vector<ServiceRequest> batch = {
      TopKRequest("deep", 3, TopKMetric::kSymDiff),
      TopKRequest("deep", 3, TopKMetric::kKendall),
      TopKRequest("t", 2, TopKMetric::kFootrule),
  };
  auto reference = scheduler->ExecuteBatch(batch);
  for (const auto& slot : reference) ASSERT_TRUE(slot.ok());

  constexpr int kThreads = 4;
  constexpr int kRounds = 3;
  std::vector<std::vector<Result<ServiceResponse>>> observed(
      kThreads * kRounds,
      std::vector<Result<ServiceResponse>>());
  std::vector<std::thread> workers;
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&scheduler, &batch, &observed, t] {
      for (int round = 0; round < kRounds; ++round) {
        EXPECT_TRUE(scheduler->Insert("t", *ParseTree(kTreeText)).ok());
        scheduler->cache_stats();
        observed[t * kRounds + round] = scheduler->ExecuteBatch(batch);
      }
    });
  }
  for (std::thread& w : workers) w.join();
  for (const auto& results : observed) {
    ASSERT_EQ(results.size(), reference.size());
    for (size_t i = 0; i < results.size(); ++i) {
      ASSERT_TRUE(results[i].ok()) << results[i].status().ToString();
      EXPECT_EQ(results[i]->keys, reference[i]->keys) << "slot " << i;
      EXPECT_EQ(results[i]->expected_distance,
                reference[i]->expected_distance);
    }
  }
  // All traffic shared the two (tree, k) folds: exactly 2 misses (single-
  // flight makes that deterministic even under the race), every other call
  // a hit or a coalesced wait, total accounted.
  CacheStats stats = scheduler->cache_stats();
  EXPECT_EQ(stats.entries, 2);
  EXPECT_EQ(stats.misses, 2);
  EXPECT_EQ(stats.hits + stats.misses + stats.coalesced,
            3 * (kThreads * kRounds + 1));
}

// Loads apply before queries in the same batch, both input formats work,
// and a load failure stays in its slot.
TEST_F(SchedulerTest, LoadsApplyBeforeQueriesInTheSameBatch) {
  std::string tree_path = ::testing::TempDir() + "/service_load.sexp";
  std::string bid_path = ::testing::TempDir() + "/service_load.bid";
  ASSERT_TRUE(WriteStringToFile(tree_path, kOtherTreeText).ok());
  ASSERT_TRUE(WriteStringToFile(bid_path,
                                "1 0.6 8\n1 0.3 5\n2 0.7 9\n")
                  .ok());
  ServiceRequest query = TopKRequest("late", 1, TopKMetric::kSymDiff);
  ServiceRequest load;
  load.op = ServiceRequest::Op::kLoad;
  load.load_name = "late";
  load.load_file = tree_path;
  ServiceRequest load_bid = load;
  load_bid.load_name = "late_bid";
  load_bid.load_file = bid_path;
  load_bid.load_format = "bid";
  ServiceRequest load_missing = load;
  load_missing.load_name = "missing_file";
  load_missing.load_file = ::testing::TempDir() + "/does_not_exist.sexp";

  auto scheduler = MakeScheduler();
  // The query references a tree loaded *later* in the batch.
  auto results =
      scheduler->ExecuteBatch({query, load, load_bid, load_missing});
  ASSERT_TRUE(results[0].ok()) << results[0].status().ToString();
  ASSERT_TRUE(results[1].ok());
  EXPECT_NE(results[1]->fingerprint.value(), 0u);
  ASSERT_TRUE(results[2].ok());
  EXPECT_FALSE(results[3].ok());
  ServiceRequest stats;
  stats.op = ServiceRequest::Op::kStats;
  EXPECT_EQ(scheduler->ExecuteOne(stats)->catalog.names,
            4);  // t, deep, late, late_bid
}

TEST_F(SchedulerTest, StatsRequestReportsCacheCounters) {
  auto scheduler = MakeScheduler();
  ServiceRequest stats;
  stats.op = ServiceRequest::Op::kStats;
  ServiceRequest world;
  world.op = ServiceRequest::Op::kWorld;
  world.tree_name = "t";
  // Stats report the post-batch state even when the line precedes queries.
  auto results = scheduler->ExecuteBatch(
      {stats, TopKRequest("t", 2, TopKMetric::kSymDiff),
       TopKRequest("t", 2, TopKMetric::kFootrule), world, world});
  ASSERT_TRUE(results[0].ok());
  // The world queries read their marginals off the catalog's program, so
  // the counters see only the two topk slots: one fold, one hit.
  EXPECT_EQ(results[0]->stats.misses, 1);
  EXPECT_EQ(results[0]->stats.hits, 1);
  EXPECT_EQ(results[0]->stats.entries, 1);
}

// World answers are bitwise the same across batches, across mean/median
// slot orders, and with caches on or off.
TEST_F(SchedulerTest, WorldAnswersAgreeAcrossBatchesOrdersAndCacheModes) {
  ServiceRequest mean;
  mean.op = ServiceRequest::Op::kWorld;
  mean.tree_name = "deep";
  ServiceRequest median = mean;
  median.median_world = true;

  EngineOptions engine_options;
  engine_options.num_threads = 2;
  auto cached = MakeScheduler(engine_options);
  SchedulerOptions no_cache;
  no_cache.use_cache = false;
  auto uncached = MakeScheduler(engine_options, no_cache);

  auto first = cached->ExecuteBatch({mean, median});
  auto second = cached->ExecuteBatch({median, mean});
  auto direct = uncached->ExecuteBatch({mean, median});
  for (auto* results : {&first, &second, &direct}) {
    for (auto& slot : *results) ASSERT_TRUE(slot.ok());
  }
  // Bitwise parity cached/warm/uncached, mean and median alike.
  EXPECT_EQ(first[0]->keys, direct[0]->keys);
  EXPECT_EQ(first[0]->expected_distance, direct[0]->expected_distance);
  EXPECT_EQ(first[1]->keys, direct[1]->keys);
  EXPECT_EQ(first[1]->expected_distance, direct[1]->expected_distance);
  EXPECT_EQ(second[1]->keys, first[0]->keys);
  EXPECT_EQ(second[1]->expected_distance, first[0]->expected_distance);
}

// ---------------------------------------------------------------------------
// Streaming execution
// ---------------------------------------------------------------------------

// The streaming contract itself: response N is emitted before request N+1
// is pulled — the property that lets a client on a pipe see answers while
// composing the next request ("the first response before the last request
// is read").
TEST_F(SchedulerTest, StreamingEmitsEachResponseBeforeReadingNext) {
  auto scheduler = MakeScheduler();
  std::vector<ServiceRequest> requests = {
      TopKRequest("t", 2, TopKMetric::kSymDiff),
      TopKRequest("t", 2, TopKMetric::kFootrule),
      TopKRequest("t", 3, TopKMetric::kSymDiff),
  };
  std::vector<std::string> events;
  size_t cursor = 0;
  scheduler->ExecuteStreaming(
      [&](ServiceRequest* out) {
        if (cursor == requests.size()) return false;
        events.push_back("read" + std::to_string(cursor));
        *out = requests[cursor++];
        return true;
      },
      [&](const Result<ServiceResponse>& response) {
        ASSERT_TRUE(response.ok());
        events.push_back("emit" + std::to_string(cursor - 1));
      });
  EXPECT_EQ(events, (std::vector<std::string>{"read0", "emit0", "read1",
                                              "emit1", "read2", "emit2"}));
}

// Streamed answers are bitwise the batch answers, and the folds still share
// the cache (the second symdiff k=3 request hits the entry the first one
// computed).
TEST_F(SchedulerTest, StreamingAnswersMatchBatchBitwise) {
  EngineOptions engine_options;
  engine_options.num_threads = 2;
  ServiceRequest world;
  world.op = ServiceRequest::Op::kWorld;
  world.tree_name = "deep";
  std::vector<ServiceRequest> requests = {
      TopKRequest("deep", 3, TopKMetric::kSymDiff),
      TopKRequest("deep", 3, TopKMetric::kKendall),
      TopKRequest("deep", 3, TopKMetric::kSymDiff),
      world,
      world,
  };
  auto batch = MakeScheduler(engine_options)->ExecuteBatch(requests);

  auto stream_scheduler = MakeScheduler(engine_options);
  std::vector<Result<ServiceResponse>> streamed;
  size_t cursor = 0;
  stream_scheduler->ExecuteStreaming(
      [&](ServiceRequest* out) {
        if (cursor == requests.size()) return false;
        *out = requests[cursor++];
        return true;
      },
      [&](const Result<ServiceResponse>& response) {
        streamed.push_back(response);
      });
  ASSERT_EQ(streamed.size(), batch.size());
  for (size_t i = 0; i < batch.size(); ++i) {
    ASSERT_TRUE(batch[i].ok());
    ASSERT_TRUE(streamed[i].ok()) << streamed[i].status().ToString();
    EXPECT_EQ(streamed[i]->keys, batch[i]->keys) << "slot " << i;
    EXPECT_EQ(streamed[i]->expected_distance, batch[i]->expected_distance);
  }
  // Fold sharing carried over: one rank-distribution fold (two k=3 symdiff
  // queries share it; kendall reuses the same shape's entry).
  CacheStats stats = stream_scheduler->cache_stats();
  EXPECT_EQ(stats.misses, 1);
  EXPECT_EQ(stats.hits, 2);
}

// Streaming executes strictly in input order: unlike a batch, a query may
// not reference a tree loaded later in the stream, and stats report their
// point in the stream, not the post-input state.
TEST_F(SchedulerTest, StreamingIsOrderSensitiveWhereBatchIsNot) {
  std::string tree_path = ::testing::TempDir() + "/stream_late.sexp";
  ASSERT_TRUE(WriteStringToFile(tree_path, kOtherTreeText).ok());
  ServiceRequest query = TopKRequest("stream_late", 1, TopKMetric::kSymDiff);
  ServiceRequest load;
  load.op = ServiceRequest::Op::kLoad;
  load.load_name = "stream_late";
  load.load_file = tree_path;
  ServiceRequest stats;
  stats.op = ServiceRequest::Op::kStats;
  std::vector<ServiceRequest> requests = {stats, query, load, query};

  // Separate empty schedulers: the point is what each mode does with a
  // name bound mid-input, so the name must not leak from one to the other.
  // The same input as a batch: the load applies first, both queries answer,
  // and the leading stats line reports the post-batch counters.
  ShardedScheduler batch_scheduler(1, EngineOptions());
  auto batch = batch_scheduler.ExecuteBatch(requests);
  EXPECT_TRUE(batch[1].ok());
  EXPECT_TRUE(batch[3].ok());
  EXPECT_EQ(batch[0]->stats.misses, 1);

  ShardedScheduler stream_scheduler(1, EngineOptions());
  std::vector<Result<ServiceResponse>> streamed;
  size_t cursor = 0;
  stream_scheduler.ExecuteStreaming(
      [&](ServiceRequest* out) {
        if (cursor == requests.size()) return false;
        *out = requests[cursor++];
        return true;
      },
      [&](const Result<ServiceResponse>& response) {
        streamed.push_back(response);
      });
  ASSERT_EQ(streamed.size(), 4u);
  // Point-in-time stats: nothing had executed yet.
  ASSERT_TRUE(streamed[0].ok());
  EXPECT_EQ(streamed[0]->stats.misses, 0);
  // The query preceding its load fails; the one after it succeeds, with
  // answers equal to the batch's.
  EXPECT_FALSE(streamed[1].ok());
  EXPECT_EQ(streamed[1].status().code(), StatusCode::kNotFound);
  ASSERT_TRUE(streamed[3].ok());
  EXPECT_EQ(streamed[3]->keys, batch[3]->keys);
  EXPECT_EQ(streamed[3]->expected_distance, batch[3]->expected_distance);
}

// ResponseToFields renders every op into protocol fields.
TEST_F(SchedulerTest, ResponsesRenderToProtocolFields) {
  auto results = MakeScheduler()->ExecuteBatch(
      {TopKRequest("t", 2, TopKMetric::kSymDiff)});
  ASSERT_TRUE(results[0].ok());
  std::string line = FormatResponseLine(ResponseToFields(*results[0]));
  EXPECT_EQ(line.find("ok\top=topk\ttree=t\tmetric=symdiff"), 0u);
  EXPECT_NE(line.find("keys="), std::string::npos);
  EXPECT_NE(line.find("expected="), std::string::npos);
}

// ---------------------------------------------------------------------------
// Metrics registry surfaces
// ---------------------------------------------------------------------------

// The golden-name test: the cache-counter re-export names are wire
// contract (dashboards and scrape configs key on them), so the exact set
// is pinned here. A rename must show up as a deliberate edit to this list.
TEST(CacheStatsMetricsTest, ExportedNamesAreGolden) {
  const std::string prefix = "cpdb_rankdist_cache_";
  CacheStats stats;
  stats.hits = 1;
  stats.misses = 2;
  stats.coalesced = 3;
  stats.entries = 4;
  stats.evictions = 5;
  stats.bytes = 6;

  MetricsSnapshot snapshot;
  AppendCacheStatsMetrics(stats, prefix, &snapshot);
  std::vector<std::pair<std::string, MetricSample::Kind>> got;
  for (const MetricSample& sample : snapshot.samples) {
    got.emplace_back(sample.name, sample.kind);
  }
  const std::vector<std::pair<std::string, MetricSample::Kind>> want = {
      {prefix + "hits_total", MetricSample::Kind::kCounter},
      {prefix + "misses_total", MetricSample::Kind::kCounter},
      {prefix + "coalesced_total", MetricSample::Kind::kCounter},
      {prefix + "evictions_total", MetricSample::Kind::kCounter},
      {prefix + "entries", MetricSample::Kind::kGauge},
      {prefix + "bytes", MetricSample::Kind::kGauge},
  };
  EXPECT_EQ(got, want);
}

// op=stats and op=metrics read the same CacheStats structs; the values
// they report must agree exactly.
TEST_F(SchedulerTest, MetricsScrapeAgreesWithStatsOp) {
  auto scheduler = MakeScheduler();
  std::vector<ServiceRequest> batch = {
      TopKRequest("deep", 3, TopKMetric::kSymDiff),
      TopKRequest("deep", 3, TopKMetric::kSymDiff),  // warm hit
      TopKRequest("t", 2, TopKMetric::kKendall),
  };
  ServiceRequest world;
  world.op = ServiceRequest::Op::kWorld;
  world.tree_name = "deep";
  batch.push_back(world);
  ServiceRequest stats;
  stats.op = ServiceRequest::Op::kStats;
  batch.push_back(stats);
  ServiceRequest metrics;
  metrics.op = ServiceRequest::Op::kMetrics;
  batch.push_back(metrics);

  auto results = scheduler->ExecuteBatch(batch);
  ASSERT_EQ(results.size(), batch.size());
  for (const auto& result : results) ASSERT_TRUE(result.ok());

  const ServiceResponse& stats_response = *results[4];
  const MetricsSnapshot& scrape = results[5]->metrics;
  EXPECT_EQ(scrape.Find("cpdb_rankdist_cache_hits_total")->value,
            stats_response.stats.hits);
  EXPECT_EQ(scrape.Find("cpdb_rankdist_cache_misses_total")->value,
            stats_response.stats.misses);
  EXPECT_EQ(scrape.Find("cpdb_rankdist_cache_entries")->value,
            stats_response.stats.entries);
  EXPECT_EQ(scrape.Find("cpdb_rankdist_cache_bytes")->value,
            stats_response.stats.bytes);
  // The rank-distribution cache is the only one the scrape re-exports.
  for (const MetricSample& sample : scrape.samples) {
    EXPECT_EQ(sample.name.find("cpdb_marginals_cache_"), std::string::npos)
        << sample.name;
  }

  // The request counters describe this batch, metrics op included.
  EXPECT_EQ(scrape.Find("cpdb_requests_total")->value, 6);
  EXPECT_EQ(scrape.Find("cpdb_topk_requests_total")->value, 3);
  EXPECT_EQ(scrape.Find("cpdb_world_requests_total")->value, 1);
  EXPECT_EQ(scrape.Find("cpdb_stats_requests_total")->value, 1);
  EXPECT_EQ(scrape.Find("cpdb_metrics_requests_total")->value, 1);
  EXPECT_EQ(scrape.Find("cpdb_request_errors_total")->value, 0);
  // The engine compiled at least one flat fold to answer the queries.
  EXPECT_GT(scrape.Find("cpdb_fold_compiles_total")->value, 0);
  // The one Kendall query (3 keys, k = 2) folded its answer's (3-1)·2 q
  // cells.
  EXPECT_EQ(scrape.Find("cpdb_kendall_q_cells_total")->value, 4);
  // One rank-distribution fold per shape: "deep" once for both of its
  // queries, "t" once.
  EXPECT_EQ(scrape.Find("cpdb_rank_dist_folds_total")->value, 2);
}

// The batch plan: a batch shaped like one cold_sweep sweep (the symdiff
// mean at k = 4, 8, 12, 16, a footrule tail at 8 and a prf baseline at 16,
// all on one shape) folds that shape once, at k = 16, and every other slot
// reads a prefix view; a later, narrower request is a hit that folds
// nothing. With caching off the engine still folds once per query. The
// answers are the same bytes either way.
TEST_F(SchedulerTest, SweepBatchFoldsEachShapeOnceAtItsWidestK) {
  std::vector<ServiceRequest> sweep;
  for (int k : {4, 8, 12, 16}) {
    sweep.push_back(TopKRequest("sweep", k, TopKMetric::kSymDiff));
  }
  sweep.push_back(TopKRequest("sweep", 8, TopKMetric::kFootrule));
  ServiceRequest prf;
  prf.op = ServiceRequest::Op::kBaseline;
  prf.tree_name = "sweep";
  prf.k = 16;
  prf.baseline_method = "prf";
  sweep.push_back(prf);
  const auto folds = [](const ShardedScheduler& scheduler) {
    return scheduler.MetricsSnapshotNow()
        .Find("cpdb_rank_dist_folds_total")
        ->value;
  };
  const AndXorTree tree = RandomDeepTree(55, 20);

  ShardedScheduler cached(1, EngineOptions());
  ASSERT_TRUE(cached.Insert("sweep", tree).ok());
  auto answers = cached.ExecuteBatch(sweep);
  EXPECT_EQ(folds(cached), 1);
  EXPECT_EQ(cached.cache_stats().misses, 1);
  EXPECT_EQ(cached.cache_stats().hits, 5);
  auto later =
      cached.ExecuteBatch({TopKRequest("sweep", 8, TopKMetric::kSymDiff)});
  EXPECT_EQ(folds(cached), 1);
  EXPECT_EQ(cached.cache_stats().hits, 6);

  SchedulerOptions no_cache;
  no_cache.use_cache = false;
  ShardedScheduler uncached(1, EngineOptions(), no_cache);
  ASSERT_TRUE(uncached.Insert("sweep", tree).ok());
  auto reference = uncached.ExecuteBatch(sweep);
  EXPECT_EQ(folds(uncached), 6);

  ASSERT_EQ(answers.size(), reference.size());
  for (size_t i = 0; i < sweep.size(); ++i) {
    ASSERT_TRUE(answers[i].ok()) << answers[i].status().ToString();
    ASSERT_TRUE(reference[i].ok());
    EXPECT_EQ(FormatResponseLine(ResponseToFields(*answers[i])),
              FormatResponseLine(ResponseToFields(*reference[i])))
        << "slot " << i;
  }
  ASSERT_TRUE(later[0].ok());
  EXPECT_EQ(FormatResponseLine(ResponseToFields(*later[0])),
            FormatResponseLine(ResponseToFields(*reference[1])));
}

// The arena gauge reports this front end's folds only. The thread-local
// fold arena keeps the capacity an earlier, larger fold grew; a fresh
// scheduler on the same thread must report the bytes of its own folds.
TEST(SchedulerArenaGaugeTest, FreshSchedulerReportsOnlyItsOwnFolds) {
  EngineOptions one_thread;  // every fold runs on this test's thread
  one_thread.num_threads = 1;
  const auto fold_and_scrape = [&](const AndXorTree& tree, int k) {
    ShardedScheduler scheduler(1, one_thread);
    EXPECT_TRUE(scheduler.Insert("t", tree).ok());
    ServiceRequest topk;
    topk.op = ServiceRequest::Op::kTopK;
    topk.tree_name = "t";
    topk.k = k;
    EXPECT_TRUE(scheduler.ExecuteBatch({topk})[0].ok());
    return scheduler.MetricsSnapshotNow()
        .Find("cpdb_poly_arena_highwater_bytes")
        ->value;
  };
  const int64_t big = fold_and_scrape(RandomDeepTree(7, 200), 8);
  const AndXorTree small = RandomDeepTree(7, 6);
  const int k = 3;
  // The rank-distribution fold's rows hold (k+1) x 2 coefficients.
  const int64_t small_fold_bytes =
      int64_t{FlatTree::Compile(*CanonicalizeTree(small)).num_slots()} *
      (k + 1) * 2 * static_cast<int64_t>(sizeof(double));
  ASSERT_GT(small_fold_bytes, 0);
  ASSERT_LT(small_fold_bytes, big);
  EXPECT_EQ(fold_and_scrape(small, k), small_fold_bytes);
}

// trace_* fields appear exactly when the request said trace=on — never
// on a plain request, even with metrics recording enabled.
TEST_F(SchedulerTest, TraceFieldsGatedByRequest) {
  auto scheduler = MakeScheduler();
  ServiceRequest plain = TopKRequest("deep", 3, TopKMetric::kSymDiff);
  ServiceRequest traced = plain;
  traced.trace = true;

  auto results = scheduler->ExecuteBatch({plain, traced});
  ASSERT_TRUE(results[0].ok());
  ASSERT_TRUE(results[1].ok());
  const std::string plain_line =
      FormatResponseLine(ResponseToFields(*results[0]));
  const std::string traced_line =
      FormatResponseLine(ResponseToFields(*results[1]));
  EXPECT_EQ(plain_line.find("trace_"), std::string::npos);
  EXPECT_NE(traced_line.find("\ttrace_total_ns="), std::string::npos);
  // The answer prefix is byte-identical; trace fields are a pure suffix.
  EXPECT_EQ(traced_line.substr(0, traced_line.find("\ttrace_")),
            plain_line.substr(0, plain_line.size() - 1));
}

}  // namespace
}  // namespace cpdb
