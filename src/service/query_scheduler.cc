// Copyright 2026 The ConsensusDB Authors

#include "service/query_scheduler.h"

#include <utility>

#include "service/op_registry.h"

namespace cpdb {

ServeInstruments::ServeInstruments() {
  requests_total =
      registry.AddCounter("cpdb_requests_total", "Requests received, any op.");
  request_errors_total = registry.AddCounter(
      "cpdb_request_errors_total", "Requests answered with an error line.");
  // The per-op instruments are generated from the registry's wire names in
  // table order — existing ops first, so every historical instrument keeps
  // its exact name and help text, and a new op's pair appears the moment
  // its row is registered.
  const std::vector<OpSpec>& specs = OpRegistry::Get().specs();
  op_requests.reserve(specs.size());
  for (const OpSpec& spec : specs) {
    op_requests.push_back(
        registry.AddCounter("cpdb_" + std::string(spec.name) + "_requests_total",
                            "op=" + std::string(spec.name) + " requests received."));
  }
  op_latencies.reserve(specs.size());
  for (const OpSpec& spec : specs) {
    op_latencies.push_back(registry.AddHistogram(
        "cpdb_" + std::string(spec.name) + "_latency_nanoseconds",
        "op=" + std::string(spec.name) + " service latency."));
  }
  stage_parse = registry.AddHistogram(
      "cpdb_stage_parse_latency_nanoseconds",
      "Parse durations: request lines and load-file trees.");
  stage_catalog =
      registry.AddHistogram("cpdb_stage_catalog_latency_nanoseconds",
                            "Catalog insert and lookup durations.");
  stage_cache = registry.AddHistogram(
      "cpdb_stage_cache_latency_nanoseconds",
      "Rank-distribution cache routing durations (folds on miss "
      "included).");
  stage_fold = registry.AddHistogram("cpdb_stage_fold_latency_nanoseconds",
                                     "Engine evaluation durations.");
  stage_format = registry.AddHistogram(
      "cpdb_stage_format_latency_nanoseconds",
      "Response formatting durations (recorded by the transport).");
}

LatencyHistogram* ServeInstruments::stage(const std::string& name) {
  if (name == "parse") return stage_parse;
  if (name == "catalog") return stage_catalog;
  if (name == "cache") return stage_cache;
  if (name == "fold") return stage_fold;
  if (name == "format") return stage_format;
  return nullptr;
}

void AppendCacheStatsMetrics(const CacheStats& stats,
                             const std::string& prefix, MetricsSnapshot* out) {
  auto add = [&](const char* name, MetricSample::Kind kind, int64_t value,
                 const char* help) {
    MetricSample sample;
    sample.name = prefix + name;
    sample.help = help;
    sample.kind = kind;
    sample.value = value;
    out->samples.push_back(std::move(sample));
  };
  add("hits_total", MetricSample::Kind::kCounter, stats.hits, "Cache hits.");
  add("misses_total", MetricSample::Kind::kCounter, stats.misses,
      "Cache misses (entry computed).");
  add("coalesced_total", MetricSample::Kind::kCounter, stats.coalesced,
      "Lookups coalesced onto an in-flight compute.");
  add("evictions_total", MetricSample::Kind::kCounter, stats.evictions,
      "Entries evicted under the byte budget.");
  add("entries", MetricSample::Kind::kGauge, stats.entries,
      "Entries currently retained.");
  add("bytes", MetricSample::Kind::kGauge, stats.bytes,
      "Bytes currently charged against the budget.");
}

std::string FormatSlowQueryLine(int64_t line_number,
                                const std::string& raw_request,
                                const ResponseTiming& timing) {
  std::string out = "slow-query\tline=" + std::to_string(line_number);
  out += "\ttotal_ms=" +
         FormatRoundTripDouble(static_cast<double>(timing.total_ns) / 1e6);
  for (const auto& [stage, nanos] : timing.spans) {
    out += "\t" + stage + "_ns=" + std::to_string(nanos);
  }
  out += "\trequest=" + EscapeFieldValue(raw_request);
  return out;
}

}  // namespace cpdb
