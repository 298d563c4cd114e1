// Copyright 2026 The ConsensusDB Authors
//
// Warm-restart differential tests: a serving process restored from a
// catalog snapshot must be indistinguishable on the wire from one that
// loaded the same trees line-by-line. The load-bearing comparisons are
// byte-level — responses are rendered through the actual protocol
// formatter and compared as strings — across every op (all four Top-k
// metrics, both worlds, stats, error lines) and shard counts {1, 2, 4}.
//
// Stats parity splits by snapshot flavor, by design:
//   * trees-only snapshot: full byte parity *including* stats lines — both
//     services start with cold caches;
//   * snapshot with precomputed distributions: all answers byte-identical,
//     and the warm service's first batch hits the rank-distribution cache
//     it was seeded with (zero misses), which is the entire point — the
//     hit/miss counters legitimately differ from a cold start and the test
//     asserts exactly that.
//
// This suite runs in the TSan CI job: the concurrent case exercises
// queries racing InstallSnapshot on a live sharded front-end.

#include <gtest/gtest.h>

#include <memory>
#include <set>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "engine/engine.h"
#include "io/request_protocol.h"
#include "io/table_io.h"
#include "io/tree_text.h"
#include "service/catalog_snapshot.h"
#include "service/sharded_scheduler.h"
#include "workload/generators.h"

namespace cpdb {
namespace {

constexpr char kTreeText[] =
    "(and (xor 0.6 (leaf key=1 score=8) 0.3 (leaf key=1 score=5))"
    " (xor 0.7 (leaf key=2 score=9))"
    " (xor 0.5 (leaf key=3 score=7) 0.5 (leaf key=3 score=6)))";

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

ServiceRequest TopKRequest(const std::string& tree, int k, TopKMetric metric,
                           TopKAnswer answer = TopKAnswer::kMean) {
  ServiceRequest request;
  request.op = ServiceRequest::Op::kTopK;
  request.tree_name = tree;
  request.k = k;
  request.metric = metric;
  request.answer = answer;
  return request;
}

ServiceRequest WorldRequest(const std::string& tree, bool median = false) {
  ServiceRequest request;
  request.op = ServiceRequest::Op::kWorld;
  request.tree_name = tree;
  request.median_world = median;
  return request;
}

ServiceRequest StatsRequest() {
  ServiceRequest request;
  request.op = ServiceRequest::Op::kStats;
  return request;
}

// The heterogeneous differential workload over `names`: every metric, all
// answer flavors, both worlds, an unknown tree, an unsupported
// (metric, answer) pair, bracketed by stats probes.
std::vector<ServiceRequest> DifferentialBatch(
    const std::vector<std::string>& names) {
  std::vector<ServiceRequest> batch;
  batch.push_back(StatsRequest());
  for (const std::string& name : names) {
    batch.push_back(TopKRequest(name, 3, TopKMetric::kSymDiff));
    batch.push_back(TopKRequest(name, 3, TopKMetric::kIntersection));
    batch.push_back(TopKRequest(name, 2, TopKMetric::kFootrule));
    batch.push_back(TopKRequest(name, 2, TopKMetric::kKendall));
    batch.push_back(TopKRequest(name, 3, TopKMetric::kSymDiff,
                                TopKAnswer::kMedian));
    batch.push_back(TopKRequest(name, 3, TopKMetric::kSymDiff,
                                TopKAnswer::kMeanUnrestricted));
    batch.push_back(TopKRequest(name, 3, TopKMetric::kIntersection,
                                TopKAnswer::kMeanApprox));
    batch.push_back(WorldRequest(name));
    batch.push_back(WorldRequest(name, /*median=*/true));
  }
  batch.push_back(TopKRequest("no_such_tree", 2, TopKMetric::kSymDiff));
  batch.push_back(TopKRequest(names[0], 2, TopKMetric::kFootrule,
                              TopKAnswer::kMedian));  // NotImplemented
  batch.push_back(StatsRequest());
  return batch;
}

// Renders a result vector exactly as the serve command would write it —
// response lines through the protocol formatter, failures as in-band error
// lines — so "identical responses" means identical *bytes on the wire*,
// stats and error text included.
std::vector<std::string> WireLines(
    const std::vector<Result<ServiceResponse>>& results) {
  std::vector<std::string> lines;
  lines.reserve(results.size());
  for (size_t i = 0; i < results.size(); ++i) {
    lines.push_back(results[i].ok()
                        ? FormatResponseLine(ResponseToFields(*results[i]))
                        : FormatErrorLine(i + 1, results[i].status()));
  }
  return lines;
}

// Wire-level comparison with stats lines included or skipped (skipped for
// the warmed-cache flavor, whose counters differ by design).
void ExpectSameWire(const std::vector<Result<ServiceResponse>>& got,
                    const std::vector<Result<ServiceResponse>>& want,
                    bool compare_stats, const std::string& label) {
  const std::vector<std::string> got_lines = WireLines(got);
  const std::vector<std::string> want_lines = WireLines(want);
  ASSERT_EQ(got_lines.size(), want_lines.size()) << label;
  for (size_t i = 0; i < got_lines.size(); ++i) {
    if (!compare_stats && got[i].ok() &&
        got[i]->op == ServiceRequest::Op::kStats) {
      continue;
    }
    EXPECT_EQ(got_lines[i], want_lines[i])
        << label << " slot " << i;
  }
}

EngineOptions ReferenceEngineOptions(int threads = 2) {
  EngineOptions options;
  options.num_threads = threads;
  return options;
}

class CatalogWarmRestartTest : public ::testing::Test {
 protected:
  void SetUp() override {
    trees_.push_back(*ParseTree(kTreeText));
    trees_.push_back(*ParseTree(kOtherTreeText));
    for (uint64_t seed : {11u, 23u, 47u, 91u, 130u, 177u}) {
      trees_.push_back(RandomDeepTree(seed));
    }
    for (size_t i = 0; i < trees_.size(); ++i) {
      names_.push_back("t" + std::to_string(i));
    }
    snapshot_path_ = ::testing::TempDir() + "/warm_restart.snap";
  }

  // The cold path: feed every tree line-by-line (Insert, the seam op=load
  // ends in).
  void SeedCold(ShardedScheduler* scheduler) const {
    for (size_t i = 0; i < trees_.size(); ++i) {
      ASSERT_TRUE(scheduler->Insert(names_[i], trees_[i]).ok());
    }
  }

  // Saves a trees-only snapshot (cold caches) of the full tree set.
  void SaveTreesOnlySnapshot() const {
    ShardedScheduler scheduler(1, ReferenceEngineOptions());
    SeedCold(&scheduler);
    ASSERT_TRUE(WriteCatalogSnapshotFile(
                    snapshot_path_,
                    scheduler.BuildSnapshot(/*include_distributions=*/false))
                    .ok());
  }

  // Saves a snapshot with the rank distributions `scheduler` retains.
  void SaveSnapshotWithDistributions(const ShardedScheduler& scheduler) const {
    ASSERT_TRUE(WriteCatalogSnapshotFile(
                    snapshot_path_,
                    scheduler.BuildSnapshot(/*include_distributions=*/true))
                    .ok());
  }

  // Loads the snapshot as serve --catalog does.
  Result<CatalogSnapshot> LoadSnapshot() const {
    return ReadCatalogSnapshotFile(snapshot_path_);
  }

  std::vector<AndXorTree> trees_;
  std::vector<std::string> names_;
  std::string snapshot_path_;
};

// ---------------------------------------------------------------------------
// Trees-only snapshots: warm vs cold, full byte parity (stats included)
// ---------------------------------------------------------------------------

// A trees-only snapshot restores a service whose *entire wire transcript* —
// answers, error lines, and stats lines — is byte-identical to a cold
// service of the same shard count fed the same trees line-by-line, cold
// and re-run warm; and answers match the one-shard
// reference at every shard count.
TEST_F(CatalogWarmRestartTest, ShardedWarmStartMatchesColdAcrossShardCounts) {
  SaveTreesOnlySnapshot();
  const std::vector<ServiceRequest> batch = DifferentialBatch(names_);

  // The one-shard cold service anchors answer parity across every
  // configuration. Its stats lines are excluded from that comparison —
  // stats at N >= 2 carry the per-shard breakdown fields by design — so
  // the stats bytes are pinned by the like-for-like comparison below.
  ShardedScheduler reference(1, ReferenceEngineOptions());
  SeedCold(&reference);
  auto want_first = reference.ExecuteBatch(batch);
  auto want_second = reference.ExecuteBatch(batch);

  for (int shards : {1, 2, 4}) {
    // Like-for-like cold service: same shard count, trees fed line-by-line.
    // Against this reference the warm transcript must be byte-identical in
    // full, per-shard stats fields included.
    ShardedScheduler cold(shards, ReferenceEngineOptions());
    SeedCold(&cold);
    auto cold_first = cold.ExecuteBatch(batch);
    auto cold_second = cold.ExecuteBatch(batch);
    ExpectSameWire(cold_first, want_first, /*compare_stats=*/false,
                   "cold shards=" + std::to_string(shards));

    const std::string label = "shards=" + std::to_string(shards);
    Result<CatalogSnapshot> snapshot = LoadSnapshot();
    ASSERT_TRUE(snapshot.ok()) << snapshot.status().ToString();
    ShardedScheduler warm(shards, ReferenceEngineOptions());
    ASSERT_TRUE(warm.InstallSnapshot(*snapshot).ok());
    EXPECT_EQ(warm.ExecuteOne(StatsRequest())->catalog.names,
              static_cast<int64_t>(trees_.size()))
        << label;
    // No distribution sections => the restored caches are exactly as
    // cold as fresh ones, so even hit/miss counters match byte-for-byte.
    ExpectSameWire(warm.ExecuteBatch(batch), cold_first,
                   /*compare_stats=*/true, label + " first");
    ExpectSameWire(warm.ExecuteBatch(batch), cold_second,
                   /*compare_stats=*/true, label + " second");
  }
}

TEST_F(CatalogWarmRestartTest, StreamingTranscriptMatchesColdStart) {
  SaveTreesOnlySnapshot();
  const std::vector<ServiceRequest> requests = DifferentialBatch(names_);
  auto stream_through = [&requests](ShardedScheduler* scheduler) {
    std::vector<Result<ServiceResponse>> responses;
    size_t cursor = 0;
    scheduler->ExecuteStreaming(
        [&](ServiceRequest* out) {
          if (cursor == requests.size()) return false;
          *out = requests[cursor++];
          return true;
        },
        [&](const Result<ServiceResponse>& response) {
          responses.push_back(response);
        });
    return responses;
  };

  ShardedScheduler cold(1, ReferenceEngineOptions());
  SeedCold(&cold);
  auto want = stream_through(&cold);

  Result<CatalogSnapshot> snapshot = LoadSnapshot();
  ASSERT_TRUE(snapshot.ok());
  ShardedScheduler warm(1, ReferenceEngineOptions());
  ASSERT_TRUE(warm.InstallSnapshot(*snapshot).ok());
  ExpectSameWire(stream_through(&warm), want, /*compare_stats=*/true,
                 "streaming");
}

// A snapshot saved at any shard count equals the one-shard snapshot, byte
// for byte — the file is a pure function of the logical serving state.
TEST_F(CatalogWarmRestartTest, SavedBytesAreIndependentOfShardCount) {
  const std::vector<ServiceRequest> batch = DifferentialBatch(names_);

  ShardedScheduler single(1, ReferenceEngineOptions());
  SeedCold(&single);
  for (const auto& result : single.ExecuteBatch(batch)) {
    (void)result;  // warm the caches; per-slot failures are part of the mix
  }
  const std::string want_bytes = EncodeCatalogSnapshot(
      single.BuildSnapshot(/*include_distributions=*/true));

  for (int shards : {1, 2, 4}) {
    ShardedScheduler sharded(shards, ReferenceEngineOptions());
    SeedCold(&sharded);
    sharded.ExecuteBatch(batch);
    EXPECT_EQ(EncodeCatalogSnapshot(
                  sharded.BuildSnapshot(/*include_distributions=*/true)),
              want_bytes)
        << "shards=" << shards;
  }
}

// ---------------------------------------------------------------------------
// Precomputed distributions: warm answers, warm counters
// ---------------------------------------------------------------------------

// A snapshot with distribution sections restores a service whose answers
// are byte-identical to cold AND whose first batch never misses the
// rank-distribution cache — the restart is warm where it matters.
TEST_F(CatalogWarmRestartTest, PrecomputedDistributionsMakeFirstBatchWarm) {
  const std::vector<ServiceRequest> batch = DifferentialBatch(names_);

  // Cold run, twice: the second pass is what a warmed cache should mimic.
  ShardedScheduler cold(1, ReferenceEngineOptions());
  SeedCold(&cold);
  auto want_cold = cold.ExecuteBatch(batch);
  SaveSnapshotWithDistributions(cold);
  const CacheStats after_cold = cold.cache_stats();
  ASSERT_GT(after_cold.misses, 0);

  for (int shards : {1, 2, 4}) {
    const std::string label = "shards=" + std::to_string(shards);
    Result<CatalogSnapshot> snapshot = LoadSnapshot();
    ASSERT_TRUE(snapshot.ok()) << snapshot.status().ToString();
    ASSERT_EQ(snapshot->distributions.size(),
              static_cast<size_t>(after_cold.entries));

    ShardedScheduler warm(shards, ReferenceEngineOptions());
    ASSERT_TRUE(warm.InstallSnapshot(*snapshot).ok());
    // Seeding provisions the cache without pretending to be traffic:
    // entries and bytes are charged, counters stay zero.
    EXPECT_EQ(warm.cache_stats().entries, after_cold.entries) << label;
    EXPECT_EQ(warm.cache_stats().bytes, after_cold.bytes) << label;
    EXPECT_EQ(warm.cache_stats().hits, 0) << label;
    EXPECT_EQ(warm.cache_stats().misses, 0) << label;
    std::vector<Result<ServiceResponse>> got = warm.ExecuteBatch(batch);
    const CacheStats warm_stats = warm.cache_stats();

    // Answers (and error lines) byte-identical; stats lines excluded —
    // their difference is the feature under test, asserted directly:
    ExpectSameWire(got, want_cold, /*compare_stats=*/false, label);
    // ...the warm service's first batch re-folded nothing.
    EXPECT_EQ(warm_stats.misses, 0) << label;
    EXPECT_GT(warm_stats.hits, 0) << label;
    EXPECT_EQ(warm_stats.entries, after_cold.entries) << label;
    EXPECT_EQ(warm_stats.bytes, after_cold.bytes) << label;
  }
}

// The cache keeps one entry per shape, so a file holding several ks of one
// shape — as files saved before entries were per shape do — seeds only the
// widest, which answers every narrower k as a prefix without folding.
TEST_F(CatalogWarmRestartTest, SeveralKsOfOneShapeSeedTheWidest) {
  ShardedScheduler cold(1, ReferenceEngineOptions());
  SeedCold(&cold);
  CatalogSnapshot older = cold.BuildSnapshot(/*include_distributions=*/false);
  Engine engine;
  std::set<StructKey> shapes;
  for (const SnapshotTree& record : older.trees) {
    if (!shapes.insert(record.struct_key).second) continue;
    for (int k : {2, 5, 3}) {
      older.distributions.push_back(SnapshotDistribution{
          record.struct_key, k,
          std::make_shared<const RankDistribution>(
              engine.ComputeRankDistribution(*record.tree, k))});
    }
  }
  const std::string bytes = EncodeCatalogSnapshot(older);
  Result<CatalogSnapshot> snapshot =
      DecodeCatalogSnapshot(bytes.data(), bytes.size());
  ASSERT_TRUE(snapshot.ok()) << snapshot.status().ToString();
  ASSERT_EQ(snapshot->distributions.size(), 3 * shapes.size());

  std::vector<ServiceRequest> batch;
  for (const std::string& name : names_) {
    for (int k = 1; k <= 5; ++k) {
      batch.push_back(TopKRequest(name, k, TopKMetric::kSymDiff));
    }
  }
  SchedulerOptions no_cache;
  no_cache.use_cache = false;
  ShardedScheduler reference(1, ReferenceEngineOptions(), no_cache);
  SeedCold(&reference);
  auto want = reference.ExecuteBatch(batch);
  for (const auto& slot : want) ASSERT_TRUE(slot.ok());
  for (int shards : {1, 3}) {
    const std::string label = "shards=" + std::to_string(shards);
    ShardedScheduler warm(shards, ReferenceEngineOptions());
    ASSERT_TRUE(warm.InstallSnapshot(*snapshot).ok());
    EXPECT_EQ(warm.cache_stats().entries,
              static_cast<int64_t>(shapes.size()))
        << label;
    for (const SnapshotDistribution& record :
         warm.BuildSnapshot(/*include_distributions=*/true).distributions) {
      EXPECT_EQ(record.k, 5) << label;
    }
    ExpectSameWire(warm.ExecuteBatch(batch), want, /*compare_stats=*/false,
                   label);
    EXPECT_EQ(warm.cache_stats().misses, 0) << label;
    EXPECT_EQ(warm.MetricsSnapshotNow()
                  .Find("cpdb_rank_dist_folds_total")
                  ->value,
              0)
        << label;
  }
}

// Seeding respects the byte budget like any other cache write: a budget too
// small to hold a distribution refuses it (and answers stay correct, just
// cold), and a zero budget retains nothing.
TEST_F(CatalogWarmRestartTest, SeedingRespectsTheCacheBudget) {
  const std::vector<ServiceRequest> batch = DifferentialBatch(names_);
  ShardedScheduler cold(1, ReferenceEngineOptions());
  SeedCold(&cold);
  auto want = cold.ExecuteBatch(batch);
  SaveSnapshotWithDistributions(cold);

  Result<CatalogSnapshot> snapshot = LoadSnapshot();
  ASSERT_TRUE(snapshot.ok());
  for (int64_t budget : {int64_t{0}, int64_t{700}}) {
    SchedulerOptions options;
    options.cache_budget_bytes = budget;
    ShardedScheduler warm(1, ReferenceEngineOptions(), options);
    ASSERT_TRUE(warm.InstallSnapshot(*snapshot).ok());
    EXPECT_LE(warm.cache_stats().bytes, budget);
    ExpectSameWire(warm.ExecuteBatch(batch), want, /*compare_stats=*/false,
                   "budget=" + std::to_string(budget));
  }
}

// ---------------------------------------------------------------------------
// Concurrency (the TSan target): queries racing the snapshot install
// ---------------------------------------------------------------------------

// Queries hammer a sharded front-end while InstallSnapshot populates it.
// Every response must be either the catalog's NotFound (tree not installed
// yet) or the bitwise-correct answer — never a torn or wrong one. TSan
// watches the directory mutex, shard catalogs, and cache seeding.
TEST_F(CatalogWarmRestartTest, QueriesDuringInstallSeeNotFoundOrExactAnswer) {
  // Snapshot with distributions, so the install also races cache seeding.
  ShardedScheduler cold(1, ReferenceEngineOptions());
  SeedCold(&cold);
  const std::vector<ServiceRequest> probe = {
      TopKRequest(names_[0], 3, TopKMetric::kSymDiff),
      TopKRequest(names_[3], 2, TopKMetric::kKendall),
      WorldRequest(names_[5]),
  };
  auto want = cold.ExecuteBatch(probe);
  for (const auto& slot : want) ASSERT_TRUE(slot.ok());
  const std::vector<std::string> want_lines = WireLines(want);
  SaveSnapshotWithDistributions(cold);
  Result<CatalogSnapshot> snapshot = LoadSnapshot();
  ASSERT_TRUE(snapshot.ok());

  ShardedScheduler warm(3, ReferenceEngineOptions());
  std::thread installer(
      [&] { ASSERT_TRUE(warm.InstallSnapshot(*snapshot).ok()); });
  constexpr int kThreads = 3;
  constexpr int kRounds = 8;
  std::vector<std::thread> workers;
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&] {
      for (int round = 0; round < kRounds; ++round) {
        auto got = warm.ExecuteBatch(probe);
        const std::vector<std::string> got_lines = WireLines(got);
        for (size_t i = 0; i < got.size(); ++i) {
          if (got[i].ok()) {
            EXPECT_EQ(got_lines[i], want_lines[i]) << "slot " << i;
          } else {
            EXPECT_EQ(got[i].status().code(), StatusCode::kNotFound)
                << got[i].status().ToString();
          }
        }
      }
    });
  }
  installer.join();
  for (std::thread& w : workers) w.join();

  // After the install settles, the service is fully warm and exact.
  ExpectSameWire(warm.ExecuteBatch(probe), want, /*compare_stats=*/false,
                 "post-install");
}

}  // namespace
}  // namespace cpdb
