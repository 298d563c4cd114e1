// Copyright 2026 The ConsensusDB Authors
//
// The serve protocol's typed surface: ServiceRequest / ServiceResponse and
// their wire mappings (ServiceRequestFromLine, ResponseToFields), the
// scheduler knobs (SchedulerOptions), and the serve-path instruments
// (ServeInstruments). service/sharded_scheduler.h is the one front end that
// executes these requests; its per-shard executor routes every rank
// distribution through the shard's memo cache, by StructKey, and fans the
// remaining per-query work through Engine::EvaluateConsensusBatch.

#ifndef CPDB_SERVICE_QUERY_SCHEDULER_H_
#define CPDB_SERVICE_QUERY_SCHEDULER_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/result.h"
#include "core/hardness.h"
#include "engine/engine.h"
#include "io/request_protocol.h"
#include "obs/clock.h"
#include "obs/metrics.h"
#include "service/rank_dist_cache.h"
#include "service/tree_catalog.h"

namespace cpdb {

/// \brief One typed request of a service batch. The set of ops, their wire
/// names, parameter schemas, and routing traits are declared in one place:
/// service/op_registry.h.
struct ServiceRequest {
  enum class Op {
    kLoad,       ///< register a tree file with the catalog
    kTopK,       ///< consensus Top-k against a catalog tree
    kWorld,      ///< set-consensus world against a catalog tree
    kStats,      ///< report the scheduler's cache counters
    kMetrics,    ///< scrape the scheduler's metrics registry
    kMarginals,  ///< per-key presence marginals of a catalog tree
    kAggregate,  ///< label group-by COUNT consensus (mean + median)
    kBaseline,   ///< baseline ranking semantics (escore/erank/global/prf)
    kHardness,   ///< structural hardness statistics of a catalog tree
  };

  Op op = Op::kTopK;

  // kLoad
  std::string load_name;
  std::string load_file;
  std::string load_format = "tree";  // tree | bid

  // kTopK / kWorld / kMarginals / kAggregate / kBaseline / kHardness
  std::string tree_name;
  int k = 1;                                  // kTopK / kBaseline
  TopKMetric metric = TopKMetric::kSymDiff;   // kTopK
  TopKAnswer answer = TopKAnswer::kMean;      // kTopK
  bool median_world = false;                  // kWorld: median vs mean

  // kBaseline
  std::string baseline_method = "escore";  // escore | erank | global | prf

  // kMetrics
  std::string metrics_format = "kv";  // kv | prom

  /// Any op: `trace=on` asks for side-band trace_* stage-timing fields on
  /// this request's ok response. Never changes the answer fields.
  bool trace = false;
};

/// \brief Maps a tokenized protocol line to a typed request — the semantic
/// half of parsing (the grammar half is io/request_protocol.h). Strict
/// throughout, per the CLI convention: unknown op, unknown field for the
/// op, unknown metric/answer/format value, or an out-of-range k are errors,
/// never defaults. `line` must be non-empty (callers skip comment lines).
Result<ServiceRequest> ServiceRequestFromLine(const RequestLine& line);

/// \brief One shard's cache counter snapshot and catalog counts — the
/// per-shard breakdown a kStats answer carries at N >= 2 shards.
struct ShardCacheStats {
  CacheStats rank_dist;   ///< the shard's RankDistCache counters
  CatalogCounts catalog;  ///< the shard's catalog name/content/shape counts
};

/// \brief Side-band timing for one request — never part of the answer.
/// Spans are (stage name, nanoseconds) in execution order; total_ns is the
/// request's service latency (the sum of its spans for load/topk/world,
/// one whole-op measurement for stats/metrics). The `trace` bit records
/// whether the *request* asked for trace output: ResponseToFields emits
/// trace_* fields only when it is set, so a response carrying timing for
/// histogram purposes still renders byte-identical to an untimed one.
struct ResponseTiming {
  bool trace = false;
  int64_t total_ns = 0;
  std::vector<std::pair<std::string, int64_t>> spans;
};

/// \brief One request's answer; which members are meaningful depends on op.
struct ServiceResponse {
  ServiceRequest::Op op = ServiceRequest::Op::kTopK;
  std::string tree_name;     // kTopK/kWorld echo; kLoad: the bound name
  ContentFp fingerprint;     // kLoad: the wire-visible content identity
  int k = 0;                 // kTopK echo
  std::string metric;        // kTopK/kWorld echo (textual)
  std::string answer;        // kTopK/kWorld echo (textual)
  std::vector<KeyId> keys;   // kTopK: answer keys; kWorld: world keys
  double expected_distance = 0.0;  // kTopK/kWorld
  CacheStats stats;                // kStats: rank-distribution cache
                                   // (summed across shards)
  /// kStats: catalog name/content/shape counts, summed across shards —
  /// StructKey routing keeps shard catalogs disjoint at every level, so
  /// the sums are exact. Rendered as the `shapes=` and `dedup_ratio=`
  /// fields.
  CatalogCounts catalog;
  /// kStats at N >= 2 shards: one entry per shard, in shard order,
  /// summing to the aggregate members above. Empty at N = 1, where the
  /// breakdown would only repeat the totals.
  std::vector<ShardCacheStats> shard_stats;
  std::string metrics_format;  // kMetrics echo (kv | prom)
  MetricsSnapshot metrics;     // kMetrics: the scrape
  /// kMarginals: per-key presence marginals aligned with `keys`;
  /// kAggregate: the mean group-count vector.
  std::vector<double> values;
  /// kAggregate: the median (closest-possible) group-count vector.
  std::vector<int64_t> group_counts;
  std::string method;      // kBaseline echo (escore | erank | global | prf)
  TreeHardness hardness;   // kHardness: the structural statistics
  /// Side-band stage timings; rendered as trace_* fields only when
  /// timing.trace is set (the request said trace=on).
  ResponseTiming timing;
};

/// \brief Renders a response as protocol fields, ready for
/// FormatResponseLine. The inverse direction of ServiceRequestFromLine.
std::vector<RequestField> ResponseToFields(const ServiceResponse& response);

/// \brief Scheduler knobs.
struct SchedulerOptions {
  /// Disables the rank-distribution cache: every query recomputes its
  /// fold through the engine. Exists for the parity tests and the
  /// cache-speedup benchmarks; production serving keeps it on.
  bool use_cache = true;

  /// Byte budget applied to each shard's cache (the CLI's --cache-budget):
  /// retained entries are charged their size-based footprint and evicted
  /// LRU-first when the charge would exceed the budget.
  /// kUnboundedCacheBytes (the default) never evicts; 0 retains nothing
  /// while still coalescing concurrent computes. Answers are bitwise
  /// independent of the budget — eviction costs recomputation, never
  /// correctness.
  int64_t cache_budget_bytes = kUnboundedCacheBytes;

  /// Owns a ServeInstruments registry and records per-op latency
  /// histograms, per-stage spans, and request/error counters
  /// (the CLI's --metrics). Off means *zero* timing reads on the serve
  /// path (no clock calls, no atomics) and op=metrics answers an error.
  /// Answers are byte-identical either way — the differential suite pins
  /// it.
  bool enable_metrics = true;

  /// The timing source; nullptr resolves to SteadyClock::Instance().
  /// Tests inject a FakeClock here to make every histogram bucket and
  /// trace field deterministic. Not owned; must outlive the scheduler.
  const Clock* clock = nullptr;
};

/// \brief The serve path's instruments, one per shard — cheap per-shard
/// instances, merged at scrape time.
/// The per-op instruments are generated from the OpRegistry's wire names
/// (cpdb_<op>_requests_total / cpdb_<op>_latency_nanoseconds, registered
/// in table order), so adding an op auto-registers its pair while every
/// existing name stays golden-pinned; tests/service_test.cc pins the cache
/// re-export names and tests/obs_test.cc the export formats.
struct ServeInstruments {
  ServeInstruments();

  MetricsRegistry registry;

  Counter* requests_total;        // cpdb_requests_total
  Counter* request_errors_total;  // cpdb_request_errors_total

  /// Per-op counters/histograms indexed by ServiceRequest::Op (== the
  /// registry's table order).
  std::vector<Counter*> op_requests;
  std::vector<LatencyHistogram*> op_latencies;

  // Stage spans: parse (request-line and tree-file parses), catalog
  // (insert/lookup), cache (rank-distribution cache routing incl.
  // fold-on-miss), fold (engine evaluation, leaf-marginal scatters
  // included), format (response rendering, recorded by the transport).
  LatencyHistogram* stage_parse;    // cpdb_stage_parse_latency_nanoseconds
  LatencyHistogram* stage_catalog;  // cpdb_stage_catalog_latency_nanoseconds
  LatencyHistogram* stage_cache;    // cpdb_stage_cache_latency_nanoseconds
  LatencyHistogram* stage_fold;     // cpdb_stage_fold_latency_nanoseconds
  LatencyHistogram* stage_format;   // cpdb_stage_format_latency_nanoseconds

  Counter* op_counter(ServiceRequest::Op op) {
    return op_requests[static_cast<size_t>(op)];
  }
  LatencyHistogram* op_latency(ServiceRequest::Op op) {
    return op_latencies[static_cast<size_t>(op)];
  }
  /// The stage histogram for a span name, or nullptr for an unknown name.
  LatencyHistogram* stage(const std::string& name);
};

/// \brief Re-exports a CacheStats snapshot as metric samples appended to
/// `out` (hits/misses/coalesced/evictions as counters with a _total
/// suffix, entries/bytes as gauges), named `<prefix><field>`. The caller
/// sorts `out` before merging. Shared by the metrics scrape and the
/// golden-name test, so the exported names cannot drift from the pinned
/// set silently.
void AppendCacheStatsMetrics(const CacheStats& stats,
                             const std::string& prefix, MetricsSnapshot* out);

/// \brief Renders one slow-query log line (the serve --slow-query-ms
/// sink): tab-separated name=value fields — line number, total
/// milliseconds (FormatRoundTripDouble), each recorded span in
/// nanoseconds, then the raw request echoed through EscapeFieldValue so a
/// hostile request cannot forge log structure. No trailing newline.
std::string FormatSlowQueryLine(int64_t line_number,
                                const std::string& raw_request,
                                const ResponseTiming& timing);

}  // namespace cpdb

#endif  // CPDB_SERVICE_QUERY_SCHEDULER_H_
