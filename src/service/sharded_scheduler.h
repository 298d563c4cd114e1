// Copyright 2026 The ConsensusDB Authors
//
// ShardedScheduler — the serving front end: every serve request, at any
// shard count, executes through it (N = 1 by default). The observation it
// exploits is that consensus answers are embarrassingly partitionable by
// tree shape: every expensive precompute (the compiled fold program, the
// rank-distribution fold) is keyed by *structural key* — the canonical-
// orientation hash — so requests against disjoint shapes never share
// state, and permuted duplicates of one shape always land on the same
// shard, where they share one fold program and one cache entry. The
// front end therefore owns N shard contexts — each a private Engine (with
// its own thread pool), TreeCatalog, and per-shard executor (with its own
// RankDistCache and instruments) — and:
//
//   * routes every kLoad to the shard owning the loaded content's
//     structural key (deterministic key-hash partitioning; a name
//     already bound stays on its shard so rebind conflicts surface exactly
//     as the shard catalog reports them);
//   * routes every tree-addressed op (kTopK, kWorld, and the analytics
//     ops — the OpRegistry's kTreeAddressed rows) to the shard owning its
//     tree, fanning the per-shard sub-batches across threads — sub-batches
//     execute concurrently, each on its shard's engine — and reassembles
//     the per-slot Results in input order;
//   * answers the admin ops (the registry's kAdmin rows) on the front end:
//     kStats with the *sum* of the shards' cache counters (plus, at
//     N >= 2, the per-shard breakdown ServiceResponse::shard_stats),
//     kMetrics with the shards' registries merged.
//
// The per-shard executor routes each query's rank distribution through the
// shard's cache, so queries sharing a structural key — within a batch or
// across batches — pay the fold once, over the catalog's precompiled
// per-shape program; leaf marginals are read straight off that program.
// The remaining per-query work (strata, Hungarian columns, q matrices)
// fans through Engine::EvaluateConsensusBatch. The cache is single-flight
// and LRU-evicting under the configured byte budget
// (SchedulerOptions::cache_budget_bytes, applied per shard).
//
// The dispatch is a generic walk of the OpRegistry (service/op_registry.h):
// the fan-out keys on each op's routing trait and batch phase, never on the
// op itself, so a new tree-addressed op shards correctly with no change
// here.
//
// Determinism: because the partitioning is a pure function of structural
// keys, every shape's cache entries live on exactly one shard, and
// requests for it arrive there in input slot order. Combined with the
// engine's schedule determinism, answers are bitwise identical to
// one-at-a-time Engine calls for every op, metric, thread count, shard
// count, and cache state — sharding is observable only in throughput and
// in the kStats shard breakdown (tests/sharded_service_test.cc pins N
// shards against N = 1, including aggregate counter totals for unbounded
// budgets; a *finite* budget applies per shard cache, so eviction-driven
// counters may legitimately differ across shard counts while answers
// never do).
//
// Scope: shards are in-process today (contexts, not processes). The
// interface — ExecuteBatch / ExecuteOne / ExecuteStreaming with per-slot
// Results — is shard-count agnostic, so replacing a shard context with a
// remote replica changes the transport, not the partitioning or the
// callers.

#ifndef CPDB_SERVICE_SHARDED_SCHEDULER_H_
#define CPDB_SERVICE_SHARDED_SCHEDULER_H_

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common/result.h"
#include "engine/engine.h"
#include "service/query_scheduler.h"
#include "service/tree_catalog.h"

namespace cpdb {

struct CatalogSnapshot;

/// \brief Executes request batches partitioned across N private
/// (Engine, TreeCatalog, executor) shard contexts.
///
/// Thread-compatible: concurrent ExecuteBatch / ExecuteOne calls are safe
/// (the name directory has its own mutex; shard catalogs and caches are
/// internally locked; the engines are stateless per query), though batches
/// racing on `load` of conflicting content may observe AlreadyExists.
class ShardedScheduler {
 public:
  /// \brief Builds `num_shards` contexts (clamped to >= 1), each with its
  /// own Engine(engine_options) — callers wanting a fixed total thread
  /// count split it with ThreadsPerShard — and an executor configured with
  /// `options` (so a cache budget applies to each shard's cache).
  ShardedScheduler(int num_shards, const EngineOptions& engine_options,
                   SchedulerOptions options = SchedulerOptions());
  ~ShardedScheduler();

  /// \brief The shard owning structural key `key`: a deterministic pure
  /// function of (key, num_shards), identical across processes and runs.
  /// The key — already a canonical-orientation hash — is remixed through a
  /// finalizer before the modulo so shard balance never leans on FNV-1a's
  /// low-bit behavior. Routing by StructKey (not ContentFp) pins every
  /// permuted duplicate of one shape to one shard, so the whole fleet
  /// compiles each shape once and shares its cache entries.
  static int ShardOfKey(StructKey key, int num_shards);

  /// \brief The per-shard engine-thread count for a total budget:
  /// max(1, total / num_shards), with total < 1 first resolved to the
  /// hardware concurrency (the ThreadPool convention). The floor division
  /// drops any remainder, and the floor of 1 means more shards than
  /// threads raises the effective total to num_shards — every shard
  /// engine needs at least one thread to exist. The CLI's
  /// `serve --shards=N --threads=T` sizes each shard engine with this.
  static int ThreadsPerShard(int total_threads, int num_shards);

  /// \brief Registers `tree` under `name` in the owning shard's catalog —
  /// the direct seam tests and benchmarks use to seed shards without going
  /// through kLoad files. Same semantics as TreeCatalog::Insert
  /// (idempotent for identical content, AlreadyExists on a rebind).
  Result<CatalogEntry> Insert(const std::string& name, AndXorTree tree);

  /// \brief Installs a decoded catalog snapshot (service/catalog_snapshot.h)
  /// across the shards: every tree routes to the shard owning its
  /// structural key through the same directory-updating path kLoad takes —
  /// so query routing, dedup, and AlreadyExists/rebind semantics are
  /// identical to loading the same trees line-by-line — and each shape's
  /// widest persisted rank distribution seeds the cache of the shard that
  /// owns its key (narrower records of the same shape, which files written
  /// before entries were per shape can hold, are prefixes of it).
  /// Each binding keeps the record's wire identity (content bytes and
  /// ContentFp); only the structural level is derived from the record's
  /// tree, whose orientation therefore does not matter. Into a fresh front
  /// end this cannot fail (decode already validated everything); a name
  /// already bound to different content fails with the catalog's own
  /// AlreadyExists, leaving earlier records installed. The per-shard
  /// placement is a pure function of content, so a snapshot saved at
  /// --shards=M restores correctly at --shards=N for any M, N.
  Status InstallSnapshot(const CatalogSnapshot& snapshot);

  /// \brief Captures the merged serving state of all shards as one
  /// snapshot: every binding of the shard catalogs (disjoint by
  /// construction — each name lives on exactly one shard) with its stored
  /// wire-visible content bytes, plus, when `include_distributions` is set,
  /// the shards' retained rank-distribution cache entries (disjoint too:
  /// each shape's one entry, at its widest k, lives on one shard). The
  /// result is independent of shard count: entries are merged and sorted,
  /// so saving at --shards=M and at --shards=N produces byte-identical
  /// files for the same logical state.
  CatalogSnapshot BuildSnapshot(bool include_distributions) const;

  /// \brief Executes a batch; results[i] answers requests[i] regardless of
  /// which shard served it. A batch is a unit of work, not a transcript:
  /// loads apply first in request order (queries may reference trees
  /// loaded later in the same batch), per-request failures (unknown tree,
  /// unreadable file, unsupported metric/answer combination) land in their
  /// slot only, kStats reports the post-batch counters, and kMetrics
  /// describes everything the batch did. Shard sub-batches run
  /// concurrently; a throw inside one fails that shard's slots with an
  /// in-band Internal error instead of ending the process.
  std::vector<Result<ServiceResponse>> ExecuteBatch(
      const std::vector<ServiceRequest>& requests);

  /// \brief Executes one request immediately — the unit of the streaming
  /// path, and exactly a batch of one: ExecuteBatch is the only executor.
  /// A one-request batch has the order-sensitive semantics streaming
  /// implies — a query sees only trees loaded by earlier calls, and kStats
  /// reports the counters as of now.
  Result<ServiceResponse> ExecuteOne(const ServiceRequest& request);

  /// \brief The incremental serve loop (serve --stream): repeatedly pulls
  /// a request from `next` (false when the input is exhausted) and passes
  /// its response to `emit` — always emitting request N's response
  /// *before* pulling request N+1, no matter which shards serve them, so a
  /// client on a pipe observes answers as it writes.
  void ExecuteStreaming(
      const std::function<bool(ServiceRequest*)>& next,
      const std::function<void(const Result<ServiceResponse>&)>& emit);

  int num_shards() const { return static_cast<int>(shards_.size()); }

  /// \brief Aggregate rank-distribution cache counters: the sum over
  /// shards (each shard's snapshot is consistent; the sum is taken shard
  /// by shard, like any fleet-wide metric roll-up).
  CacheStats cache_stats() const;

  /// \brief Per-shard counter snapshots, in shard order.
  std::vector<ShardCacheStats> PerShardStats() const;

  /// \brief The fleet metrics scrape: the shards' snapshots merged
  /// (counters and gauges sum, histograms merge bucket-wise) — a pure
  /// function of the per-shard snapshots, independent of shard count or
  /// merge order. This is what op=metrics answers. Must not be called
  /// with metrics disabled.
  MetricsSnapshot MetricsSnapshotNow() const;

  /// \brief Each shard's own scrape, in shard order — the seam the parity
  /// test uses to pin merged == bucket-wise sum of per-shard.
  std::vector<MetricsSnapshot> PerShardMetricsSnapshots() const;

  /// \brief The instruments front-end work records into (shard 0's — the
  /// shard that fields every ownerless request), or nullptr when metrics
  /// are off. The transport records its parse/format stages here.
  ServeInstruments* frontend_instruments() const { return ShardInstruments(0); }

  /// \brief The injected clock (never null; defaults to SteadyClock).
  const Clock* clock() const { return clock_; }

 private:
  /// The registry's admin hooks execute against the front end through a
  /// private AdminHost adapter (service/op_registry.h) defined in the .cc.
  friend class ShardedAdminHost;

  /// One shard context: Engine, TreeCatalog, and the executor owning the
  /// shard's cache and instruments. Defined in the .cc.
  struct Shard;

  /// The one executor behind ExecuteBatch and ExecuteOne: answers
  /// requests[0, count), reading them in place — shard sub-batches are
  /// slot indices into this array, and every answer is written straight
  /// into its slot of the returned vector.
  std::vector<Result<ServiceResponse>> Execute(const ServiceRequest* requests,
                                               size_t count);

  /// The load op: reads and parses the file, then the routed insert, with
  /// stage spans (parse, catalog). The request's metrics attribute to the
  /// shard owning the loaded content (shard 0 when the load fails before
  /// routing), so summing the shards' registries counts every load once.
  Result<ServiceResponse> ExecuteLoad(const ServiceRequest& request,
                                      const Clock* clk);

  /// The routed load shared by Insert and ExecuteLoad: the name check,
  /// the identity computation (outside mu_), then InsertIdentityRouted.
  Result<CatalogEntry> InsertRouted(const std::string& name, AndXorTree tree,
                                    int* out_shard = nullptr);

  /// The routed insert behind InsertRouted and InstallSnapshot: routes by
  /// the directory (bound names stay on their shard) or the StructKey
  /// partition, inserts via the shard catalog's InsertWithIdentity, and
  /// records the binding — all under mu_, so racing loads of one unbound
  /// name cannot route to different shards. The identity is computed by
  /// the caller, outside mu_, so the locked section does only map work
  /// plus the catalog's own insert.
  /// `out_shard` (optional) receives the shard the name routed to.
  Result<CatalogEntry> InsertIdentityRouted(const std::string& name,
                                            const TreeIdentity& identity,
                                            int* out_shard = nullptr);

  /// The shard bound to `tree_name`, or NotFound with the message
  /// TreeCatalog::Lookup reports — routing must not change error lines.
  Result<int> RouteTree(const std::string& tree_name) const;

  ServiceResponse StatsResponse() const;

  /// Executes one kAdmin registry row (stats, metrics), counted by the
  /// caller before any hook ran, against the merged front-end state; its
  /// latency is recorded after the hook — a scrape describes the work
  /// before it, never itself.
  Result<ServiceResponse> ExecuteAdminOne(const ServiceRequest& request,
                                          const Clock* clk);

  /// Shard `s`'s instruments (nullptr when metrics are off). Front-end
  /// work — loads, routing failures, stats/metrics ops — is recorded here
  /// against its owning shard (shard 0 when no shard owns it).
  ServeInstruments* ShardInstruments(size_t s) const;

  std::vector<std::unique_ptr<Shard>> shards_;
  const Clock* clock_;
  // Guards directory_: name -> owning shard. Names route to the shard
  // owning their content's structural key; the directory exists because
  // queries address trees by name and the key is only known to the shard
  // that loaded it.
  mutable std::mutex mu_;
  std::map<std::string, int> directory_;
};

}  // namespace cpdb

#endif  // CPDB_SERVICE_SHARDED_SCHEDULER_H_
