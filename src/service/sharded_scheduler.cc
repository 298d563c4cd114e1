// Copyright 2026 The ConsensusDB Authors

#include "service/sharded_scheduler.h"

#include <algorithm>
#include <map>
#include <set>
#include <thread>
#include <utility>

#include "common/hash.h"
#include "io/table_io.h"
#include "service/catalog_snapshot.h"
#include "service/op_registry.h"

namespace cpdb {

namespace {

void AccumulateCacheStats(CacheStats* total, const CacheStats& part) {
  total->hits += part.hits;
  total->misses += part.misses;
  total->coalesced += part.coalesced;
  total->entries += part.entries;
  total->bytes += part.bytes;
  total->evictions += part.evictions;
}

// The timing source for a unit of work — a front-end batch or one shard's
// sub-batch: `clock` when the unit must be timed (metrics on, or any of its
// requests asked for trace=on), nullptr otherwise, which makes every
// Stopwatch inert (zero clock reads). Instrumentation never touches answer
// bytes either way.
const Clock* TimingClock(const Clock* clock, bool metrics_on, bool traced) {
  return metrics_on || traced ? clock : nullptr;
}

// Counts one request as received; no-op when metrics are off. A shard's
// sub-batch and the admin ops count before executing (so a metrics scrape
// counts itself); a load counts when it finishes, because only then is its
// owning shard known.
void CountRequest(ServeInstruments* instruments,
                  const ServiceRequest& request) {
  if (instruments == nullptr) return;
  instruments->requests_total->Increment();
  instruments->op_counter(request.op)->Increment();
}

// Closes one finished request — the last step of every execution path.
// Sums the spans into total_ns (on top of the whole-op measurement an
// admin op brings, which has no spans), records the op latency, the stage
// histograms and any error into `instruments` (null when metrics are off;
// on means the unit was timed), and attaches the timing to an ok response.
// Attaching is wire-neutral: the transport's slow-query log reads total_ns
// off the response, while ResponseToFields renders trace_* fields only
// when the request said trace=on.
void FinishRequest(ServeInstruments* instruments, const ServiceRequest& request,
                   ResponseTiming timing, Result<ServiceResponse>* response) {
  for (const auto& [stage, nanos] : timing.spans) timing.total_ns += nanos;
  if (instruments != nullptr) {
    instruments->op_latency(request.op)->Record(timing.total_ns);
    for (const auto& [stage, nanos] : timing.spans) {
      if (LatencyHistogram* hist = instruments->stage(stage)) {
        hist->Record(nanos);
      }
    }
    if (!response->ok()) instruments->request_errors_total->Increment();
  }
  if (response->ok()) {
    timing.trace = request.trace;
    (*response)->timing = std::move(timing);
  }
}

// The kTopK ok response for a finished consensus result.
ServiceResponse ConsensusTopKResponse(const ServiceRequest& request,
                                      const TopKResult& result) {
  ServiceResponse response;
  response.op = ServiceRequest::Op::kTopK;
  response.tree_name = request.tree_name;
  response.k = request.k;
  response.metric = TopKMetricName(request.metric);
  response.answer = TopKAnswerName(request.answer);
  response.keys = result.keys;
  response.expected_distance = result.expected_distance;
  return response;
}

// QueryScheduler — one shard's executor. It runs the tree-addressed
// requests the front end routes to its shard against the shard's engine
// and catalog, owning the shard's RankDistCache and its instruments. Each
// batch's hooks execute against a BatchHost over it.
//
// Thread-compatible: concurrent ExecuteBatch calls are safe — catalog and
// cache are internally locked; the engine is stateless per query; a
// batch's fold plan lives in its own BatchHost.
class QueryScheduler {
 public:
  // Neither pointer is owned; both must outlive the scheduler.
  QueryScheduler(const Engine* engine, TreeCatalog* catalog,
                 const SchedulerOptions& options)
      : engine_(engine),
        catalog_(catalog),
        options_(options),
        clock_(options.clock != nullptr ? options.clock
                                        : SteadyClock::Instance()),
        instruments_(options.enable_metrics
                         ? std::make_unique<ServeInstruments>()
                         : nullptr),
        cache_(options.cache_budget_bytes) {}

  // Executes the tree-addressed requests requests[slots[j]] — the shard's
  // only execution path — and writes each answer straight into
  // responses[slots[j]], per-request failures landing in their slot. The
  // caller's requests are read in place, never copied.
  void ExecuteBatch(const ServiceRequest* requests,
                    const std::vector<size_t>& slots,
                    Result<ServiceResponse>* responses);

  // Seeds the rank-distribution cache with a precomputed entry — the
  // warm-restart seam. No-op when caching is disabled or the entry is not
  // retained; never changes answers.
  void SeedRankDistribution(StructKey struct_key,
                            std::shared_ptr<const RankDistribution> dist) {
    if (options_.use_cache) cache_.Seed(struct_key, std::move(dist));
  }

  std::vector<RankDistCache::RetainedEntry> RetainedRankDistributions() const {
    return cache_.RetainedEntries();
  }

  CacheStats cache_stats() const { return cache_.stats(); }

  // The owned instruments, or nullptr when metrics are disabled.
  ServeInstruments* instruments() const { return instruments_.get(); }

  // The shard's full metrics scrape: the registry's instruments plus the
  // fold/arena counters (cpdb_fold_compiles_total counts the catalog's
  // per-shape compiles together with the engine's on-demand ones;
  // cpdb_rank_dist_folds_total the engine's rank-distribution folds;
  // cpdb_kendall_q_cells_total its Kendall q folds), the catalog's
  // identity gauges (cpdb_catalog_entries = bound names,
  // cpdb_catalog_shapes = distinct structures), and the rank-distribution
  // cache's counters re-exported under cpdb_rankdist_cache_*.
  // Must not be called when metrics are disabled.
  MetricsSnapshot MetricsSnapshotNow() const;

 private:
  class BatchHost;

  // The rank distribution at cutoff k: through the cache, a miss folding
  // at `fold_k` (>= k) so one fold serves every k of the batch; fresh at k
  // with caching off.
  std::shared_ptr<const RankDistribution> RankDistFor(const CatalogEntry& entry,
                                                      int k, int fold_k);

  const Engine* engine_;
  TreeCatalog* catalog_;
  SchedulerOptions options_;
  const Clock* clock_;
  std::unique_ptr<ServeInstruments> instruments_;
  RankDistCache cache_;
};

// The OpHost one batch's hooks execute against: the shard's engine and
// cache plus the batch's fold plan — the widest k the batch reads of each
// shape — so the first slot touching a shape folds it once for all.
class QueryScheduler::BatchHost : public OpHost {
 public:
  BatchHost(QueryScheduler* shard, std::map<StructKey, int> fold_widths)
      : shard_(shard), fold_widths_(std::move(fold_widths)) {}

  const Engine* engine() const override { return shard_->engine_; }

  std::shared_ptr<const RankDistribution> RankDistFor(const CatalogEntry& entry,
                                                      int k) override {
    auto it = fold_widths_.find(entry.struct_key);
    const int fold_k = it == fold_widths_.end() ? k : std::max(k, it->second);
    return shard_->RankDistFor(entry, k, fold_k);
  }

 private:
  QueryScheduler* shard_;
  std::map<StructKey, int> fold_widths_;
};

std::shared_ptr<const RankDistribution> QueryScheduler::RankDistFor(
    const CatalogEntry& entry, int k, int fold_k) {
  // Keyed by struct_key: permuted duplicates resolve to one entry, and a
  // baseline probe and a Top-k query against the same content share one
  // fold — in either order. The fold runs over the catalog's canonical
  // tree with its precompiled per-shape program, so a miss pays the
  // O(L^2 k) fold but never a compile.
  const AndXorTree& tree = *entry.tree;
  if (!options_.use_cache) {
    return std::make_shared<const RankDistribution>(
        engine_->ComputeRankDistribution(tree, k, entry.program.get()));
  }
  return cache_.GetOrCompute(
      entry.struct_key, k, [this, &tree, fold_k, &entry] {
        return engine_->ComputeRankDistribution(tree, fold_k,
                                                entry.program.get());
      });
}

MetricsSnapshot QueryScheduler::MetricsSnapshotNow() const {
  MetricsSnapshot snapshot = instruments_->registry.Snapshot();
  // The registry holds the serve-path instruments; the engine counters and
  // the cache counters live in their own structs and are re-exported into
  // the same scrape, so one op=metrics answer covers the whole shard.
  MetricsSnapshot extra;
  const EngineObsCounters engine_counters = engine_->obs_counters();
  const CatalogCounts catalog_counts = catalog_->Counts();
  MetricSample fold_compiles;
  fold_compiles.name = "cpdb_fold_compiles_total";
  fold_compiles.help =
      "FlatTree compilations performed: the catalog's one-per-shape compiles "
      "plus the engine's on-demand ones.";
  fold_compiles.kind = MetricSample::Kind::kCounter;
  fold_compiles.value =
      engine_counters.fold_compiles + catalog_->fold_compiles();
  extra.samples.push_back(std::move(fold_compiles));
  MetricSample rank_dist_folds;
  rank_dist_folds.name = "cpdb_rank_dist_folds_total";
  rank_dist_folds.help =
      "Rank-distribution folds run by the engine (general or BID path).";
  rank_dist_folds.kind = MetricSample::Kind::kCounter;
  rank_dist_folds.value = engine_counters.rank_dist_folds;
  extra.samples.push_back(std::move(rank_dist_folds));
  MetricSample kendall_q_cells;
  kendall_q_cells.name = "cpdb_kendall_q_cells_total";
  kendall_q_cells.help =
      "Kendall q cells folded: (n-1)*k per Kendall query over n keys.";
  kendall_q_cells.kind = MetricSample::Kind::kCounter;
  kendall_q_cells.value = engine_counters.kendall_q_cells;
  extra.samples.push_back(std::move(kendall_q_cells));
  MetricSample catalog_entries;
  catalog_entries.name = "cpdb_catalog_entries";
  catalog_entries.help = "Names bound in the tree catalog.";
  catalog_entries.kind = MetricSample::Kind::kGauge;
  catalog_entries.value = catalog_counts.names;
  extra.samples.push_back(std::move(catalog_entries));
  MetricSample catalog_shapes;
  catalog_shapes.name = "cpdb_catalog_shapes";
  catalog_shapes.help =
      "Distinct tree structures (canonical orientations) in the catalog.";
  catalog_shapes.kind = MetricSample::Kind::kGauge;
  catalog_shapes.value = catalog_counts.shapes;
  extra.samples.push_back(std::move(catalog_shapes));
  MetricSample arena_highwater;
  arena_highwater.name = "cpdb_poly_arena_highwater_bytes";
  arena_highwater.help =
      "Bytes of the largest single fold (arena slots x row length) this "
      "shard's engine ran.";
  arena_highwater.kind = MetricSample::Kind::kGauge;
  arena_highwater.value = engine_counters.arena_highwater_bytes;
  extra.samples.push_back(std::move(arena_highwater));
  AppendCacheStatsMetrics(cache_.stats(), "cpdb_rankdist_cache_", &extra);
  std::sort(extra.samples.begin(), extra.samples.end(),
            [](const MetricSample& a, const MetricSample& b) {
              return a.name < b.name;
            });
  snapshot.MergeFrom(extra);
  return snapshot;
}

void QueryScheduler::ExecuteBatch(const ServiceRequest* requests,
                                  const std::vector<size_t>& slots,
                                  Result<ServiceResponse>* responses) {
  const OpRegistry& ops = OpRegistry::Get();
  ServeInstruments* instruments = instruments_.get();
  bool traced = false;
  for (size_t slot : slots) {
    CountRequest(instruments, requests[slot]);
    traced = traced || requests[slot].trace;
  }
  const Clock* clk = TimingClock(clock_, instruments != nullptr, traced);
  std::vector<ResponseTiming> timings(slots.size());

  // Resolve every slot's tree; a name unbound here (the shard catalog can
  // only lag the front end's directory, never lead it) fails its slot
  // only, and its entry stays empty. The same pass plans the folds: the
  // widest k any slot reads of each shape, so the first slot touching a
  // shape folds it once, at that k, and every other slot reads a prefix
  // view of the one entry.
  std::vector<CatalogEntry> entries(slots.size());
  std::vector<size_t> fused;  // positions j into slots
  std::map<StructKey, int> fold_widths;
  for (size_t j = 0; j < slots.size(); ++j) {
    const ServiceRequest& request = requests[slots[j]];
    Stopwatch catalog_watch(clk);
    Result<CatalogEntry> entry = catalog_->Lookup(request.tree_name);
    AddSpan(&timings[j], "catalog", catalog_watch);
    if (!entry.ok()) {
      responses[slots[j]] = entry.status();
      continue;
    }
    entries[j] = *std::move(entry);
    const OpSpec& spec = ops.spec(request.op);
    if (spec.fuse_consensus_batch) fused.push_back(j);
    const int k = spec.rank_dist_k != nullptr ? spec.rank_dist_k(request) : 0;
    if (k > 0) {
      int& width = fold_widths[entries[j].struct_key];
      width = std::max(width, k);
    }
  }
  BatchHost host(this, std::move(fold_widths));

  // The fused consensus pass — topk's only execution form, skipped when
  // no slot takes it.
  if (!fused.empty()) {
    // The deduplication step: route every Top-k query's rank-distribution
    // precompute through the per-shape cache, in slot order, so the first
    // query of each shape folds (at the planned width) and the rest hit —
    // within this batch and across batches alike. The handles keep cached
    // entries alive for the duration of the engine call even if entries
    // are evicted concurrently. A request that can only fail (bad k,
    // unsupported metric/answer pair) gets no distribution and populates
    // nothing: the engine rejects such queries *before* paying the fold,
    // and reports the error. With caching off no slot gets one, so the
    // engine folds.
    std::vector<std::shared_ptr<const RankDistribution>> dists(fused.size());
    std::vector<Engine::ConsensusQuery> queries(fused.size());
    for (size_t f = 0; f < fused.size(); ++f) {
      const size_t j = fused[f];
      const ServiceRequest& request = requests[slots[j]];
      Stopwatch cache_watch(clk);
      if (options_.use_cache && ops.spec(request.op).rank_dist_k(request) > 0) {
        dists[f] = host.RankDistFor(entries[j], request.k);
      }
      AddSpan(&timings[j], "cache", cache_watch);
      queries[f] = {entries[j].tree.get(), request.k, request.metric,
                    request.answer, dists[f].get(), entries[j].program.get()};
    }

    // One engine submission for all fused slots: whole queries fan across
    // the pool, cached distributions are shared read-only.
    Stopwatch fold_watch(clk);
    std::vector<Result<TopKResult>> results =
        engine_->EvaluateConsensusBatch(queries);
    // The whole submission is one engine call, so every fused slot
    // records the same fold duration — per-slot attribution inside a
    // fused batch would be fiction. The count (one fold span per slot) is
    // what the sharded-parity tests rely on; values are side-band by
    // contract.
    const int64_t batch_fold_nanos = fold_watch.ElapsedNanos();
    for (size_t f = 0; f < fused.size(); ++f) {
      const size_t j = fused[f];
      if (fold_watch.enabled()) {
        timings[j].spans.emplace_back("fold", batch_fold_nanos);
      }
      if (!results[f].ok()) {
        responses[slots[j]] = results[f].status();
        continue;
      }
      responses[slots[j]] =
          ConsensusTopKResponse(requests[slots[j]], *results[f]);
    }
  }

  // The other resolved slots (worlds, the analytics ops) run their own
  // execute hooks after the fused finalize, in slot order — a hook that
  // reads a rank distribution routes it through the cache inside the hook.
  for (size_t j = 0; j < slots.size(); ++j) {
    const ServiceRequest& request = requests[slots[j]];
    const OpSpec& spec = ops.spec(request.op);
    if (entries[j].tree == nullptr || spec.fuse_consensus_batch) continue;
    responses[slots[j]] =
        spec.execute_tree(host, entries[j], request, clk, &timings[j]);
  }

  for (size_t j = 0; j < slots.size(); ++j) {
    FinishRequest(instruments, requests[slots[j]], std::move(timings[j]),
                  &responses[slots[j]]);
  }
}

}  // namespace

struct ShardedScheduler::Shard {
  Shard(const EngineOptions& engine_options, const SchedulerOptions& options)
      : engine(engine_options), scheduler(&engine, &catalog, options) {}

  Engine engine;
  TreeCatalog catalog;
  QueryScheduler scheduler;
};

ShardedScheduler::ShardedScheduler(int num_shards,
                                   const EngineOptions& engine_options,
                                   SchedulerOptions options)
    : clock_(options.clock != nullptr ? options.clock
                                      : SteadyClock::Instance()) {
  const int n = std::max(num_shards, 1);
  shards_.reserve(static_cast<size_t>(n));
  for (int s = 0; s < n; ++s) {
    shards_.push_back(std::make_unique<Shard>(engine_options, options));
  }
}

ShardedScheduler::~ShardedScheduler() = default;

int ShardedScheduler::ShardOfKey(StructKey key, int num_shards) {
  // SplitMix64 finalizer: a bijective remix, so the partition stays a pure
  // deterministic function of the structural key while spreading any
  // residual structure in the FNV-1a value across all 64 bits before the
  // modulo.
  uint64_t x = key.value();
  x ^= x >> 33;
  x *= 0xff51afd7ed558ccdULL;
  x ^= x >> 33;
  x *= 0xc4ceb9fe1a85ec53ULL;
  x ^= x >> 33;
  return static_cast<int>(x % static_cast<uint64_t>(std::max(num_shards, 1)));
}

int ShardedScheduler::ThreadsPerShard(int total_threads, int num_shards) {
  int total = total_threads;
  if (total < 1) {
    // The ThreadPool convention: values < 1 mean the hardware concurrency.
    // Resolve it here so the split divides the real budget instead of
    // handing every shard its own full-machine pool.
    total = static_cast<int>(std::max(1u, std::thread::hardware_concurrency()));
  }
  return std::max(1, total / std::max(num_shards, 1));
}

ServeInstruments* ShardedScheduler::ShardInstruments(size_t s) const {
  return shards_[s]->scheduler.instruments();
}

Result<CatalogEntry> ShardedScheduler::Insert(const std::string& name,
                                              AndXorTree tree) {
  return InsertRouted(name, std::move(tree));
}

Result<CatalogEntry> ShardedScheduler::InsertRouted(const std::string& name,
                                                    AndXorTree tree,
                                                    int* out_shard) {
  // Same error (and same cheap-first ordering) as TreeCatalog::Insert.
  if (name.empty()) {
    return Status::InvalidArgument("catalog name must not be empty");
  }
  // Serialize, hash, and canonicalize once, outside the directory lock;
  // the catalog reuses the identity via InsertWithIdentity instead of
  // recomputing it.
  CPDB_ASSIGN_OR_RETURN(TreeIdentity identity,
                        TreeCatalog::ComputeIdentity(std::move(tree)));
  return InsertIdentityRouted(name, identity, out_shard);
}

Result<CatalogEntry> ShardedScheduler::InsertIdentityRouted(
    const std::string& name, const TreeIdentity& identity, int* out_shard) {
  std::lock_guard<std::mutex> lock(mu_);
  // A bound name stays on its shard: re-inserting identical content lands
  // there anyway (same structural key, same shard), and different content
  // must reach the catalog that holds the name so the rebind is rejected
  // with the catalog's own AlreadyExists. The catalog insert runs under
  // mu_ so two racing loads of one unbound name cannot route to different
  // shards; loads are the cold path (queries take mu_ only for a map
  // lookup), so the wider section is cheap.
  auto it = directory_.find(name);
  const int shard = it != directory_.end()
                        ? it->second
                        : ShardOfKey(identity.struct_key, num_shards());
  if (out_shard != nullptr) *out_shard = shard;
  Result<CatalogEntry> entry =
      shards_[static_cast<size_t>(shard)]->catalog.InsertWithIdentity(
          name, identity);
  if (entry.ok()) directory_.emplace(name, shard);
  return entry;
}

Status ShardedScheduler::InstallSnapshot(const CatalogSnapshot& snapshot) {
  for (const SnapshotTree& record : snapshot.trees) {
    // Same cheap-first name check as Insert (the decoder already rejects
    // empty names; installing a hand-built snapshot gets the same error a
    // load would).
    if (record.name.empty()) {
      return Status::InvalidArgument("catalog name must not be empty");
    }
    // The record's content bytes and ContentFp are the binding's wire
    // identity — what the original kLoad carried, verified by the decoder
    // (or read off a live catalog by BuildSnapshot). Its tree is the
    // canonical orientation, so only the structural level is derived from
    // it; re-deriving the wire level from that tree would bind a
    // non-canonical load under its canonical twin's fingerprint.
    CPDB_ASSIGN_OR_RETURN(
        TreeIdentity identity,
        TreeCatalog::IdentityWithContent(AndXorTree(*record.tree),
                                         record.content, record.content_fp));
    // Through the same routed insert kLoad takes — the directory learns
    // every binding, so queries route; dedup and AlreadyExists/rebind
    // semantics are the catalog's own.
    Result<CatalogEntry> entry = InsertIdentityRouted(record.name, identity);
    if (!entry.ok()) return entry.status();
  }
  // The cache keeps one entry per shape, the widest: a file that holds
  // several ks of one shape (written before entries were per shape) seeds
  // its widest, which serves every narrower k as a prefix.
  std::map<StructKey, const SnapshotDistribution*> widest;
  for (const SnapshotDistribution& record : snapshot.distributions) {
    const SnapshotDistribution*& kept = widest[record.struct_key];
    if (kept == nullptr || kept->k < record.k) kept = &record;
  }
  for (const auto& [struct_key, record] : widest) {
    // Each shape's cache key lives on exactly one shard — seed it there,
    // the shard every query for that shape reaches.
    const int shard = ShardOfKey(struct_key, num_shards());
    shards_[static_cast<size_t>(shard)]->scheduler.SeedRankDistribution(
        struct_key, record->dist);
  }
  return Status::OK();
}

CatalogSnapshot ShardedScheduler::BuildSnapshot(
    bool include_distributions) const {
  CatalogSnapshot snapshot;
  std::set<StructKey> struct_keys;
  for (const std::unique_ptr<Shard>& shard : shards_) {
    for (CatalogEntry& entry : shard->catalog.SnapshotEntries()) {
      SnapshotTree record;
      record.name = std::move(entry.name);
      record.content_fp = entry.content_fp;
      record.struct_key = entry.struct_key;
      // The stored bytes are the binding's wire identity — what kLoad
      // carried, which ContentFp hashes — not the canonical orientation
      // the entry's shared tree holds; the catalog retains them for
      // exactly this round trip.
      Result<std::string> content =
          shard->catalog.ContentBytes(entry.content_fp);
      if (!content.ok()) continue;  // unreachable for a live entry
      record.content = std::move(content).ValueOrDie();
      record.tree = std::move(entry.tree);
      struct_keys.insert(record.struct_key);
      snapshot.trees.push_back(std::move(record));
    }
  }
  if (include_distributions) {
    for (const std::unique_ptr<Shard>& shard : shards_) {
      for (RankDistCache::RetainedEntry& entry :
           shard->scheduler.RetainedRankDistributions()) {
        // The cache can only hold keys of catalog content, but be
        // defensive: the decoder rejects a distribution with no tree
        // record, so never write one.
        if (struct_keys.count(entry.struct_key) == 0) continue;
        const int k = entry.dist->k();
        snapshot.distributions.push_back(
            SnapshotDistribution{entry.struct_key, k, std::move(entry.dist)});
      }
    }
  }
  // Merge order must not leak the shard count: names are disjoint across
  // shards and each shape's entry lives on exactly one shard, so sorting
  // yields one canonical order whatever N was (the encoder would re-sort
  // anyway; sorting here makes the in-memory snapshot deterministic too).
  std::sort(snapshot.trees.begin(), snapshot.trees.end(),
            [](const SnapshotTree& a, const SnapshotTree& b) {
              return a.name < b.name;
            });
  std::sort(snapshot.distributions.begin(), snapshot.distributions.end(),
            [](const SnapshotDistribution& a, const SnapshotDistribution& b) {
              if (a.struct_key != b.struct_key) {
                return a.struct_key < b.struct_key;
              }
              return a.k < b.k;
            });
  return snapshot;
}

Result<int> ShardedScheduler::RouteTree(const std::string& tree_name) const {
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = directory_.find(tree_name);
    if (it != directory_.end()) return it->second;
  }
  // The shared formatter keeps the error line byte-identical to a catalog
  // Lookup's.
  return TreeCatalog::UnknownTreeError(tree_name);
}

Result<ServiceResponse> ShardedScheduler::ExecuteLoad(
    const ServiceRequest& request, const Clock* clk) {
  // The read + parse runs on the front end because routing needs the
  // content before any shard catalog is chosen. Spans: parse (read +
  // parse), catalog (identity computation and the routed insert).
  ResponseTiming timing;
  int shard = 0;
  Result<ServiceResponse> response = [&]() -> Result<ServiceResponse> {
    Stopwatch parse_watch(clk);
    Result<AndXorTree> tree =
        LoadTreeFile(request.load_file, request.load_format);
    AddSpan(&timing, "parse", parse_watch);
    if (!tree.ok()) return tree.status();
    Stopwatch catalog_watch(clk);
    Result<CatalogEntry> entry =
        InsertRouted(request.load_name, std::move(*tree), &shard);
    AddSpan(&timing, "catalog", catalog_watch);
    if (!entry.ok()) return entry.status();
    ServiceResponse loaded;
    loaded.op = ServiceRequest::Op::kLoad;
    loaded.tree_name = entry->name;
    loaded.fingerprint = entry->content_fp;
    return loaded;
  }();
  ServeInstruments* instruments = ShardInstruments(static_cast<size_t>(shard));
  CountRequest(instruments, request);
  FinishRequest(instruments, request, std::move(timing), &response);
  return response;
}

ServiceResponse ShardedScheduler::StatsResponse() const {
  ServiceResponse response;
  response.op = ServiceRequest::Op::kStats;
  std::vector<ShardCacheStats> per_shard = PerShardStats();
  for (const ShardCacheStats& shard : per_shard) {
    AccumulateCacheStats(&response.stats, shard.rank_dist);
    // Exact sums: StructKey routing makes names, contents, and shapes all
    // disjoint across shards, so the fleet-wide dedup ratio is the ratio
    // of the sums.
    response.catalog.names += shard.catalog.names;
    response.catalog.contents += shard.catalog.contents;
    response.catalog.shapes += shard.catalog.shapes;
  }
  // One shard's breakdown would only repeat the totals.
  if (per_shard.size() >= 2) response.shard_stats = std::move(per_shard);
  return response;
}

std::vector<Result<ServiceResponse>> ShardedScheduler::ExecuteBatch(
    const std::vector<ServiceRequest>& requests) {
  return Execute(requests.data(), requests.size());
}

std::vector<Result<ServiceResponse>> ShardedScheduler::Execute(
    const ServiceRequest* requests, size_t count) {
  std::vector<Result<ServiceResponse>> responses(
      count, Result<ServiceResponse>(Status::Internal("request not executed")));

  const OpRegistry& ops = OpRegistry::Get();

  // The front end gates its own timing by the same rule as the per-shard
  // executors: live when metrics are on or the batch asked for a trace.
  // Admin probes count at batch entry, like every executor sub-batch, so
  // a metrics scrape counts every probe of its batch — itself included.
  ServeInstruments* frontend = ShardInstruments(0);
  bool traced = false;
  for (size_t i = 0; i < count; ++i) {
    traced = traced || requests[i].trace;
    if (ops.spec(requests[i].op).routing == OpRouting::kAdmin) {
      CountRequest(frontend, requests[i]);
    }
  }
  const Clock* clk = TimingClock(clock_, frontend != nullptr, traced);

  // Loads first, in request order — the batch contract. Loads stay on the
  // front-end thread: they are rare, order-sensitive on names, and each
  // one decides the routing for every query that follows.
  for (size_t i = 0; i < count; ++i) {
    if (ops.spec(requests[i].op).batch_phase == kLoadPhase) {
      responses[i] = ExecuteLoad(requests[i], clk);
    }
  }

  // Partition queries by owning shard, as slot indices in slot order
  // within each sub-batch — per-key request order is what keeps each
  // shard's cache counters independent of the shard count. Unknown names
  // fail their slot here. The owning shard's executor does its own
  // counting and timing, so a routed request records nothing here — one
  // request, one set of records; a miss never reaches a shard, so its
  // trail (a catalog span, an op latency, an error count) lands on
  // shard 0.
  std::vector<std::vector<size_t>> sub_slots(shards_.size());
  for (size_t i = 0; i < count; ++i) {
    const ServiceRequest& request = requests[i];
    if (ops.spec(request.op).routing != OpRouting::kTreeAddressed) continue;
    Stopwatch catalog_watch(clk);
    Result<int> shard = RouteTree(request.tree_name);
    if (!shard.ok()) {
      ResponseTiming timing;
      AddSpan(&timing, "catalog", catalog_watch);
      responses[i] = shard.status();
      CountRequest(frontend, request);
      FinishRequest(frontend, request, std::move(timing), &responses[i]);
      continue;
    }
    sub_slots[static_cast<size_t>(*shard)].push_back(i);
  }

  // Fan the sub-batches concurrently: one helper thread per non-empty
  // shard beyond the first, which runs on the calling thread (a 1-shard
  // front-end spawns nothing). Each sub-batch executes on its shard's own
  // engine/cache, reads the caller's requests in place and writes its
  // answers straight into their slots — disjoint per shard, so the helpers
  // share no mutable state. The helpers are created per batch on purpose:
  // the steady-state threads live in the shard engines' pools, and one
  // short-lived dispatcher thread per busy shard is noise next to the
  // folds it dispatches.
  //
  // A throw anywhere in the fan-out must fail slots, not the process: an
  // exception escaping a helper's thread entry — or unwinding past
  // joinable threads — is std::terminate, unacceptable in a long-lived
  // server. The library reports errors via Status, but allocation can
  // throw from any of it.
  auto run_shard = [this, requests, &sub_slots, &responses](size_t s) {
    auto fail_slots = [&](const std::string& message) {
      for (size_t slot : sub_slots[s]) {
        responses[slot] = Status::Internal(message);
      }
    };
    try {
      shards_[s]->scheduler.ExecuteBatch(requests, sub_slots[s],
                                         responses.data());
    } catch (const std::exception& e) {
      fail_slots(std::string("shard execution failed: ") + e.what());
    } catch (...) {
      fail_slots("shard execution failed");
    }
  };
  std::vector<std::thread> helpers;
  // Joins whatever was spawned on every exit path (spawning helper K can
  // throw bad_alloc while helpers 0..K-1 run); the joinable() check makes
  // the normal-path explicit join below idempotent.
  struct JoinHelpers {
    std::vector<std::thread>* threads;
    ~JoinHelpers() {
      for (std::thread& helper : *threads) {
        if (helper.joinable()) helper.join();
      }
    }
  } join_guard{&helpers};
  int first_busy = -1;
  for (size_t s = 0; s < shards_.size(); ++s) {
    if (sub_slots[s].empty()) continue;
    if (first_busy < 0) {
      first_busy = static_cast<int>(s);
      continue;
    }
    try {
      helpers.emplace_back(run_shard, s);
    } catch (...) {
      // Thread exhaustion degrades this shard to the calling thread —
      // slower, never fatal (run_shard itself cannot throw).
      run_shard(s);
    }
  }
  if (first_busy >= 0) run_shard(static_cast<size_t>(first_busy));
  for (std::thread& helper : helpers) helper.join();

  // Admin phases in declared order — stats next-to-last (the aggregate
  // describes the batch that just ran), metrics last of all (a scrape
  // answers for everything the batch did, its stats probes included),
  // regardless of slot order. By the time either runs every helper has
  // joined, so the shard registries are quiescent. The probes record
  // against shard 0, like every front-end op no shard owns.
  for (int phase : {kStatsPhase, kMetricsPhase}) {
    for (size_t i = 0; i < count; ++i) {
      if (ops.spec(requests[i].op).batch_phase != phase) continue;
      responses[i] = ExecuteAdminOne(requests[i], clk);
    }
  }
  return responses;
}

// The AdminHost the registry's admin hooks execute against: stats and
// metrics merge per-shard state. Lives in namespace cpdb so the header's
// friend declaration names exactly this class.
class ShardedAdminHost : public AdminHost {
 public:
  explicit ShardedAdminHost(ShardedScheduler* sharded) : sharded_(sharded) {}

  ServiceResponse StatsNow() override { return sharded_->StatsResponse(); }

  Result<MetricsSnapshot> MetricsNow() override {
    if (sharded_->ShardInstruments(0) == nullptr) return MetricsDisabledError();
    return sharded_->MetricsSnapshotNow();
  }

 private:
  ShardedScheduler* sharded_;
};

Result<ServiceResponse> ShardedScheduler::ExecuteAdminOne(
    const ServiceRequest& request, const Clock* clk) {
  ShardedAdminHost host(this);
  // The caller has counted the request; the latency is recorded after the
  // hook — a scrape describes the work before it, never itself. The one
  // refusal (metrics while disabled) has no instruments to record into.
  ResponseTiming timing;
  Stopwatch watch(clk);
  Result<ServiceResponse> response =
      OpRegistry::Get().spec(request.op).execute_admin(host, request);
  if (watch.enabled()) timing.total_ns = watch.ElapsedNanos();
  FinishRequest(ShardInstruments(0), request, std::move(timing), &response);
  return response;
}

MetricsSnapshot ShardedScheduler::MetricsSnapshotNow() const {
  MetricsSnapshot merged = shards_[0]->scheduler.MetricsSnapshotNow();
  for (size_t s = 1; s < shards_.size(); ++s) {
    merged.MergeFrom(shards_[s]->scheduler.MetricsSnapshotNow());
  }
  return merged;
}

std::vector<MetricsSnapshot> ShardedScheduler::PerShardMetricsSnapshots()
    const {
  std::vector<MetricsSnapshot> snapshots;
  snapshots.reserve(shards_.size());
  for (const std::unique_ptr<Shard>& shard : shards_) {
    snapshots.push_back(shard->scheduler.MetricsSnapshotNow());
  }
  return snapshots;
}

Result<ServiceResponse> ShardedScheduler::ExecuteOne(
    const ServiceRequest& request) {
  return std::move(Execute(&request, 1).front());
}

void ShardedScheduler::ExecuteStreaming(
    const std::function<bool(ServiceRequest*)>& next,
    const std::function<void(const Result<ServiceResponse>&)>& emit) {
  ServiceRequest request;
  // The contract is the loop shape itself: each response is emitted before
  // the next request is pulled, so a client driving `next` from a pipe has
  // answer N in hand while composing request N+1.
  while (next(&request)) {
    emit(ExecuteOne(request));
  }
}

CacheStats ShardedScheduler::cache_stats() const {
  CacheStats total;
  for (const std::unique_ptr<Shard>& shard : shards_) {
    AccumulateCacheStats(&total, shard->scheduler.cache_stats());
  }
  return total;
}

std::vector<ShardCacheStats> ShardedScheduler::PerShardStats() const {
  std::vector<ShardCacheStats> stats;
  stats.reserve(shards_.size());
  for (const std::unique_ptr<Shard>& shard : shards_) {
    stats.push_back(ShardCacheStats{shard->scheduler.cache_stats(),
                                    shard->catalog.Counts()});
  }
  return stats;
}

}  // namespace cpdb
