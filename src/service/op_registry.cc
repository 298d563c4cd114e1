// Copyright 2026 The ConsensusDB Authors

#include "service/op_registry.h"

#include <algorithm>
#include <map>
#include <unordered_map>
#include <utility>

#include "common/hash.h"
#include "core/aggregates.h"
#include "core/ranking_baselines.h"
#include "core/topk_metrics.h"
#include "model/possible_worlds.h"

namespace cpdb {

void AddSpan(ResponseTiming* timing, const char* stage,
             const Stopwatch& stopwatch) {
  if (!stopwatch.enabled()) return;
  timing->spans.emplace_back(stage, stopwatch.ElapsedNanos());
}

Status MetricsDisabledError() {
  return Status::InvalidArgument(
      "op=metrics requires metrics enabled (serve without --metrics=off)");
}

namespace {

// ---------------------------------------------------------------------------
// Shared parse helpers (the strict-validation conventions every op's schema
// reuses).

// Strict field-set check: a request naming a field its op does not take is
// an error, never ignored (a typo'd "metrc=kendall" must not silently run
// the default metric).
Status CheckAllowedFields(const RequestLine& line,
                          std::initializer_list<const char*> allowed) {
  for (const RequestField& f : line.fields) {
    bool known = f.name == "op";
    for (const char* name : allowed) known = known || f.name == name;
    if (!known) {
      return Status::InvalidArgument("unknown field '" + f.name + "' for op=" +
                                     *line.Find("op"));
    }
  }
  return Status::OK();
}

Result<std::string> RequiredField(const RequestLine& line,
                                  const std::string& name) {
  const std::string* value = line.Find(name);
  if (value == nullptr) {
    // The op field may itself be the missing one; never dereference it.
    const std::string* op = line.Find("op");
    return Status::InvalidArgument(
        (op != nullptr ? "op=" + *op + " " : "request ") + "requires field '" +
        name + "'");
  }
  return *value;
}

// The k range check shared by every op carrying a rank cutoff.
Result<int> ParseKField(const RequestLine& line) {
  CPDB_ASSIGN_OR_RETURN(std::string k_text, RequiredField(line, "k"));
  CPDB_ASSIGN_OR_RETURN(long long k, ParseStrictInt("k", k_text));
  if (k < 1 || k > (1 << 20)) {
    return Status::InvalidArgument("k out of range, got '" + k_text + "'");
  }
  return static_cast<int>(k);
}

// ---------------------------------------------------------------------------
// Shared format helpers.

std::string KeysCsv(const std::vector<KeyId>& keys) {
  std::string csv;
  for (size_t i = 0; i < keys.size(); ++i) {
    if (i > 0) csv += ',';
    csv += std::to_string(keys[i]);
  }
  return csv;
}

std::string DoublesCsv(const std::vector<double>& values) {
  std::string csv;
  for (size_t i = 0; i < values.size(); ++i) {
    if (i > 0) csv += ',';
    csv += FormatRoundTripDouble(values[i]);
  }
  return csv;
}

std::string CountsCsv(const std::vector<int64_t>& counts) {
  std::string csv;
  for (size_t i = 0; i < counts.size(); ++i) {
    if (i > 0) csv += ',';
    csv += std::to_string(counts[i]);
  }
  return csv;
}

void AppendCacheFields(const CacheStats& stats, const std::string& prefix,
                       std::vector<RequestField>* fields) {
  auto add = [&](const char* name, int64_t value) {
    fields->push_back({prefix + name, std::to_string(value)});
  };
  add("hits", stats.hits);
  add("misses", stats.misses);
  add("coalesced", stats.coalesced);
  add("entries", stats.entries);
  add("evictions", stats.evictions);
  add("bytes", stats.bytes);
}

// ---------------------------------------------------------------------------
// op=load

Status ParseLoad(const RequestLine& line, ServiceRequest* request) {
  Status allowed = CheckAllowedFields(line, {"name", "file", "format", "trace"});
  if (!allowed.ok()) return allowed;
  CPDB_ASSIGN_OR_RETURN(request->load_name, RequiredField(line, "name"));
  CPDB_ASSIGN_OR_RETURN(request->load_file, RequiredField(line, "file"));
  if (const std::string* format = line.Find("format")) {
    if (*format != "tree" && *format != "bid") {
      return Status::InvalidArgument("unknown format '" + *format +
                                     "' (expected tree or bid)");
    }
    request->load_format = *format;
  }
  return Status::OK();
}

void FormatLoad(const ServiceResponse& response,
                std::vector<RequestField>* fields) {
  fields->push_back({"name", response.tree_name});
  fields->push_back({"fingerprint", HashToHex(response.fingerprint)});
}

// ---------------------------------------------------------------------------
// op=topk

Status ParseTopK(const RequestLine& line, ServiceRequest* request) {
  Status allowed =
      CheckAllowedFields(line, {"tree", "k", "metric", "answer", "trace"});
  if (!allowed.ok()) return allowed;
  CPDB_ASSIGN_OR_RETURN(request->tree_name, RequiredField(line, "tree"));
  CPDB_ASSIGN_OR_RETURN(request->k, ParseKField(line));
  if (const std::string* metric = line.Find("metric")) {
    CPDB_ASSIGN_OR_RETURN(request->metric, ParseTopKMetricName(*metric));
  }
  if (const std::string* answer = line.Find("answer")) {
    CPDB_ASSIGN_OR_RETURN(request->answer, ParseTopKAnswerName(*answer));
  }
  return Status::OK();
}

// A query that can only fail (bad k, unsupported metric/answer pair) reads
// no distribution: the engine rejects it before paying the fold.
int TopKRankDistK(const ServiceRequest& request) {
  return request.k >= 1 &&
                 Engine::ValidateConsensusRequest(request.metric,
                                                  request.answer)
                     .ok()
             ? request.k
             : 0;
}

Result<ServiceResponse> ExecuteTopKTree(OpHost& host, const CatalogEntry& entry,
                                        const ServiceRequest& request,
                                        const Clock* clk,
                                        ResponseTiming* timing) {
  // The rank distribution comes through the per-shape cache (folded once
  // per batch at the planned width); a request that can only fail reads
  // none and populates nothing — the engine rejects it before any fold.
  Stopwatch cache_watch(clk);
  std::shared_ptr<const RankDistribution> dist;
  if (TopKRankDistK(request) > 0) dist = host.RankDistFor(entry, request.k);
  AddSpan(timing, "cache", cache_watch);
  Stopwatch fold_watch(clk);
  Result<TopKResult> result =
      dist != nullptr
          ? host.engine()->ConsensusTopKWithDist(*entry.tree, *dist,
                                                 request.metric, request.answer,
                                                 entry.program.get())
          : host.engine()->ConsensusTopK(*entry.tree, request.k,
                                         request.metric, request.answer,
                                         entry.program.get());
  AddSpan(timing, "fold", fold_watch);
  if (!result.ok()) return result.status();
  ServiceResponse response;
  response.op = ServiceRequest::Op::kTopK;
  response.tree_name = request.tree_name;
  response.k = request.k;
  response.metric = TopKMetricName(request.metric);
  response.answer = TopKAnswerName(request.answer);
  response.keys = std::move(result->keys);
  response.expected_distance = result->expected_distance;
  return response;
}

void FormatTopK(const ServiceResponse& response,
                std::vector<RequestField>* fields) {
  fields->push_back({"tree", response.tree_name});
  fields->push_back({"metric", response.metric});
  fields->push_back({"answer", response.answer});
  fields->push_back({"k", std::to_string(response.k)});
  fields->push_back({"keys", KeysCsv(response.keys)});
  fields->push_back(
      {"expected", FormatRoundTripDouble(response.expected_distance)});
}

// ---------------------------------------------------------------------------
// op=world

Status ParseWorld(const RequestLine& line, ServiceRequest* request) {
  Status allowed =
      CheckAllowedFields(line, {"tree", "metric", "answer", "trace"});
  if (!allowed.ok()) return allowed;
  CPDB_ASSIGN_OR_RETURN(request->tree_name, RequiredField(line, "tree"));
  if (const std::string* metric = line.Find("metric")) {
    if (*metric != "symdiff") {
      return Status::InvalidArgument("op=world supports metric=symdiff, got '" +
                                     *metric + "'");
    }
  }
  if (const std::string* answer = line.Find("answer")) {
    if (*answer == "median") {
      request->median_world = true;
    } else if (*answer != "mean") {
      return Status::InvalidArgument("unknown answer '" + *answer +
                                     "' (expected mean or median)");
    }
  }
  return Status::OK();
}

Result<ServiceResponse> ExecuteWorldTree(OpHost& host,
                                         const CatalogEntry& entry,
                                         const ServiceRequest& request,
                                         const Clock* clk,
                                         ResponseTiming* timing) {
  const AndXorTree& tree = *entry.tree;
  // One marginal scatter off the catalog's compiled program serves the
  // answer and its expected distance via the engine's marginals-reuse
  // entry point.
  Stopwatch fold_watch(clk);
  Result<Engine::WorldResult> world_result =
      host.engine()->ConsensusWorldWithMarginals(
          tree, host.engine()->LeafMarginals(tree, entry.program.get()),
          request.median_world);
  AddSpan(timing, "fold", fold_watch);
  if (!world_result.ok()) return world_result.status();
  Engine::WorldResult& world = *world_result;
  ServiceResponse response;
  response.op = ServiceRequest::Op::kWorld;
  response.tree_name = request.tree_name;
  response.metric = "symdiff";
  response.answer = request.median_world ? "median" : "mean";
  response.expected_distance = world.expected_distance;
  for (const TupleAlternative& tuple : WorldTuples(tree, world.leaf_ids)) {
    response.keys.push_back(tuple.key);
  }
  return response;
}

void FormatWorld(const ServiceResponse& response,
                 std::vector<RequestField>* fields) {
  fields->push_back({"tree", response.tree_name});
  fields->push_back({"metric", response.metric});
  fields->push_back({"answer", response.answer});
  fields->push_back({"keys", KeysCsv(response.keys)});
  fields->push_back(
      {"expected", FormatRoundTripDouble(response.expected_distance)});
}

// ---------------------------------------------------------------------------
// op=stats

Status ParseStats(const RequestLine& line, ServiceRequest* request) {
  (void)request;
  return CheckAllowedFields(line, {"trace"});
}

Result<ServiceResponse> ExecuteStatsAdmin(AdminHost& host,
                                          const ServiceRequest& request) {
  (void)request;
  return host.StatsNow();
}

void FormatStats(const ServiceResponse& response,
                 std::vector<RequestField>* fields) {
  // The aggregate fields come first and mean the same at any shard count;
  // the per-shard breakdown (present only at N >= 2) trails them, so
  // clients reading only the totals never notice the shard layout.
  AppendCacheFields(response.stats, "", fields);
  // The two-level-identity fields: distinct shapes behind the bound names,
  // and contents-per-shape — the catalog's duplication factor (1 for a
  // duplicate-free catalog).
  fields->push_back({"shapes", std::to_string(response.catalog.shapes)});
  fields->push_back(
      {"dedup_ratio",
       FormatRoundTripDouble(
           response.catalog.shapes == 0
               ? 1.0
               : static_cast<double>(response.catalog.contents) /
                     static_cast<double>(response.catalog.shapes))});
  if (!response.shard_stats.empty()) {
    fields->push_back({"shards", std::to_string(response.shard_stats.size())});
    for (size_t s = 0; s < response.shard_stats.size(); ++s) {
      const std::string prefix = "s" + std::to_string(s) + "_";
      AppendCacheFields(response.shard_stats[s].rank_dist, prefix, fields);
      fields->push_back(
          {prefix + "shapes",
           std::to_string(response.shard_stats[s].catalog.shapes)});
    }
  }
}

// ---------------------------------------------------------------------------
// op=metrics

Status ParseMetrics(const RequestLine& line, ServiceRequest* request) {
  Status allowed = CheckAllowedFields(line, {"format", "trace"});
  if (!allowed.ok()) return allowed;
  if (const std::string* format = line.Find("format")) {
    if (*format != "kv" && *format != "prom") {
      return Status::InvalidArgument("unknown format '" + *format +
                                     "' (expected kv or prom)");
    }
    request->metrics_format = *format;
  }
  return Status::OK();
}

Result<ServiceResponse> ExecuteMetricsAdmin(AdminHost& host,
                                            const ServiceRequest& request) {
  CPDB_ASSIGN_OR_RETURN(MetricsSnapshot snapshot, host.MetricsNow());
  ServiceResponse response;
  response.op = ServiceRequest::Op::kMetrics;
  response.metrics_format = request.metrics_format;
  response.metrics = std::move(snapshot);
  return response;
}

void FormatMetrics(const ServiceResponse& response,
                   std::vector<RequestField>* fields) {
  fields->push_back({"format", response.metrics_format});
  if (response.metrics_format == "prom") {
    // One multi-line exposition body in one field: FormatResponseLine
    // escapes the newlines, so the framing survives; clients unescape via
    // ParseResponseLine and hand the body to any Prometheus scraper
    // verbatim.
    fields->push_back({"body", MetricsToPrometheusText(response.metrics)});
  } else {
    for (auto& [name, value] : MetricsToKvPairs(response.metrics)) {
      fields->push_back({name, value});
    }
  }
}

// ---------------------------------------------------------------------------
// op=marginals — per-key presence marginals.

Status ParseMarginals(const RequestLine& line, ServiceRequest* request) {
  Status allowed = CheckAllowedFields(line, {"tree", "trace"});
  if (!allowed.ok()) return allowed;
  CPDB_ASSIGN_OR_RETURN(request->tree_name, RequiredField(line, "tree"));
  return Status::OK();
}

Result<ServiceResponse> ExecuteMarginalsTree(OpHost& host,
                                             const CatalogEntry& entry,
                                             const ServiceRequest& request,
                                             const Clock* clk,
                                             ResponseTiming* timing) {
  const AndXorTree& tree = *entry.tree;
  // Per-key marginal = the sum of the key's alternative-leaf marginals in
  // DFS leaf order — exactly tree.KeyMarginal's accumulation — with the
  // leaf marginals read off the catalog's compiled program. One pass over
  // the leaves: each key's contributions arrive in the same DFS order the
  // per-key fold would add them, so the sums are bitwise identical while
  // the scan is O(leaves), not O(keys * leaves).
  Stopwatch fold_watch(clk);
  const std::vector<double> marginals =
      host.engine()->LeafMarginals(tree, entry.program.get());
  ServiceResponse response;
  response.op = ServiceRequest::Op::kMarginals;
  response.tree_name = request.tree_name;
  response.keys = tree.Keys();
  std::unordered_map<KeyId, size_t> slot_of_key;
  slot_of_key.reserve(response.keys.size());
  for (size_t i = 0; i < response.keys.size(); ++i) {
    slot_of_key.emplace(response.keys[i], i);
  }
  response.values.assign(response.keys.size(), 0.0);
  for (NodeId l : tree.LeafIds()) {
    response.values[slot_of_key.at(tree.node(l).leaf.key)] +=
        marginals[static_cast<size_t>(l)];
  }
  AddSpan(timing, "fold", fold_watch);
  return response;
}

void FormatMarginals(const ServiceResponse& response,
                     std::vector<RequestField>* fields) {
  fields->push_back({"tree", response.tree_name});
  fields->push_back({"keys", KeysCsv(response.keys)});
  fields->push_back({"marginals", DoublesCsv(response.values)});
}

// ---------------------------------------------------------------------------
// op=aggregate — label group-by COUNT consensus (core/aggregates).

Status ParseAggregate(const RequestLine& line, ServiceRequest* request) {
  Status allowed = CheckAllowedFields(line, {"tree", "trace"});
  if (!allowed.ok()) return allowed;
  CPDB_ASSIGN_OR_RETURN(request->tree_name, RequiredField(line, "tree"));
  return Status::OK();
}

Result<ServiceResponse> ExecuteAggregateTree(OpHost& host,
                                             const CatalogEntry& entry,
                                             const ServiceRequest& request,
                                             const Clock* clk,
                                             ResponseTiming* timing) {
  const AndXorTree& tree = *entry.tree;
  Stopwatch fold_watch(clk);
  Result<ServiceResponse> out = [&]() -> Result<ServiceResponse> {
    CPDB_ASSIGN_OR_RETURN(
        GroupByInstance instance,
        GroupByInstanceFromTree(
            tree, host.engine()->LeafMarginals(tree, entry.program.get())));
    std::vector<double> mean = MeanAggregate(instance);
    CPDB_ASSIGN_OR_RETURN(std::vector<int64_t> median,
                          ClosestPossibleAggregate(instance));
    ServiceResponse response;
    response.op = ServiceRequest::Op::kAggregate;
    response.tree_name = request.tree_name;
    response.values = std::move(mean);
    response.group_counts = std::move(median);
    return response;
  }();
  AddSpan(timing, "fold", fold_watch);
  return out;
}

void FormatAggregate(const ServiceResponse& response,
                     std::vector<RequestField>* fields) {
  fields->push_back({"tree", response.tree_name});
  fields->push_back({"groups", std::to_string(response.values.size())});
  fields->push_back({"mean", DoublesCsv(response.values)});
  fields->push_back({"median", CountsCsv(response.group_counts)});
}

// ---------------------------------------------------------------------------
// op=baseline — the comparison semantics (core/ranking_baselines).

Status ParseBaseline(const RequestLine& line, ServiceRequest* request) {
  Status allowed = CheckAllowedFields(line, {"tree", "k", "method", "trace"});
  if (!allowed.ok()) return allowed;
  CPDB_ASSIGN_OR_RETURN(request->tree_name, RequiredField(line, "tree"));
  CPDB_ASSIGN_OR_RETURN(request->k, ParseKField(line));
  if (const std::string* method = line.Find("method")) {
    if (*method != "escore" && *method != "erank" && *method != "global" &&
        *method != "prf") {
      return Status::InvalidArgument(
          "unknown method '" + *method +
          "' (expected escore, erank, global or prf)");
    }
    request->baseline_method = *method;
  }
  return Status::OK();
}

// Only the distribution-backed semantics read one.
int BaselineRankDistK(const ServiceRequest& request) {
  const bool reads = request.baseline_method == "global" ||
                     request.baseline_method == "prf";
  return reads && request.k >= 1 ? request.k : 0;
}

Result<ServiceResponse> ExecuteBaselineTree(OpHost& host,
                                            const CatalogEntry& entry,
                                            const ServiceRequest& request,
                                            const Clock* clk,
                                            ResponseTiming* timing) {
  const AndXorTree& tree = *entry.tree;
  ServiceResponse response;
  response.op = ServiceRequest::Op::kBaseline;
  response.tree_name = request.tree_name;
  response.method = request.baseline_method;
  response.k = request.k;
  if (request.baseline_method == "global" || request.baseline_method == "prf") {
    // The distribution-backed semantics share the consensus path's
    // per-shape cache entry: a baseline probe after a topk query (or vice
    // versa) pays the O(L^2 k) fold once, at the wider of their ks.
    Stopwatch cache_watch(clk);
    std::shared_ptr<const RankDistribution> dist =
        host.RankDistFor(entry, request.k);
    AddSpan(timing, "cache", cache_watch);
    Stopwatch fold_watch(clk);
    response.keys = request.baseline_method == "global"
                        ? GlobalTopK(*dist)
                        : TopKByPRF(*dist, PrfUpsilonHWeights(request.k));
    AddSpan(timing, "fold", fold_watch);
    return response;
  }
  Stopwatch fold_watch(clk);
  if (request.baseline_method == "escore") {
    response.keys = TopKByExpectedScore(tree, request.k);
  } else {  // erank: the engine's parallel expected-rank form
    response.keys = TopKByExpectedRankFromRanks(
        tree.Keys(), host.engine()->ExpectedRanks(tree), request.k);
  }
  AddSpan(timing, "fold", fold_watch);
  return response;
}

void FormatBaseline(const ServiceResponse& response,
                    std::vector<RequestField>* fields) {
  fields->push_back({"tree", response.tree_name});
  fields->push_back({"method", response.method});
  fields->push_back({"k", std::to_string(response.k)});
  fields->push_back({"keys", KeysCsv(response.keys)});
}

// ---------------------------------------------------------------------------
// op=hardness — structural hardness statistics (core/hardness).

Status ParseHardness(const RequestLine& line, ServiceRequest* request) {
  Status allowed = CheckAllowedFields(line, {"tree", "trace"});
  if (!allowed.ok()) return allowed;
  CPDB_ASSIGN_OR_RETURN(request->tree_name, RequiredField(line, "tree"));
  return Status::OK();
}

Result<ServiceResponse> ExecuteHardnessTree(OpHost& host,
                                            const CatalogEntry& entry,
                                            const ServiceRequest& request,
                                            const Clock* clk,
                                            ResponseTiming* timing) {
  (void)host;
  Stopwatch fold_watch(clk);
  ServiceResponse response;
  response.op = ServiceRequest::Op::kHardness;
  response.tree_name = request.tree_name;
  response.hardness = ComputeTreeHardness(*entry.tree);
  AddSpan(timing, "fold", fold_watch);
  return response;
}

void FormatHardness(const ServiceResponse& response,
                    std::vector<RequestField>* fields) {
  const TreeHardness& h = response.hardness;
  fields->push_back({"tree", response.tree_name});
  fields->push_back({"nodes", std::to_string(h.nodes)});
  fields->push_back({"leaves", std::to_string(h.leaves)});
  fields->push_back({"keys", std::to_string(h.keys)});
  fields->push_back({"dup_keys", std::to_string(h.duplicated_keys)});
  fields->push_back(
      {"max_leaves_per_key", std::to_string(h.max_leaves_per_key)});
  fields->push_back({"tuple_independent", h.tuple_independent ? "1" : "0"});
  fields->push_back({"block_independent", h.block_independent ? "1" : "0"});
}

}  // namespace

// ---------------------------------------------------------------------------
// The table.

OpRegistry::OpRegistry() {
  auto add = [this](OpSpec spec) {
    // specs()[i].op == Op(i): the enum is the table index, which is what
    // lets ServeInstruments and spec() use O(1) array lookups.
    specs_.push_back(spec);
  };
  {
    OpSpec spec;
    spec.op = ServiceRequest::Op::kLoad;
    spec.name = "load";
    spec.routing = OpRouting::kCatalogGlobal;
    spec.batch_phase = kLoadPhase;
    spec.parse = ParseLoad;
    spec.format = FormatLoad;
    add(spec);
  }
  {
    OpSpec spec;
    spec.op = ServiceRequest::Op::kTopK;
    spec.name = "topk";
    spec.routing = OpRouting::kTreeAddressed;
    spec.batch_phase = kQueryPhase;
    spec.rank_dist_k = TopKRankDistK;
    spec.parse = ParseTopK;
    spec.execute_tree = ExecuteTopKTree;
    spec.format = FormatTopK;
    add(spec);
  }
  {
    OpSpec spec;
    spec.op = ServiceRequest::Op::kWorld;
    spec.name = "world";
    spec.routing = OpRouting::kTreeAddressed;
    spec.batch_phase = kQueryPhase;
    spec.parse = ParseWorld;
    spec.execute_tree = ExecuteWorldTree;
    spec.format = FormatWorld;
    add(spec);
  }
  {
    OpSpec spec;
    spec.op = ServiceRequest::Op::kStats;
    spec.name = "stats";
    spec.routing = OpRouting::kAdmin;
    spec.batch_phase = kStatsPhase;
    spec.parse = ParseStats;
    spec.execute_admin = ExecuteStatsAdmin;
    spec.format = FormatStats;
    add(spec);
  }
  {
    OpSpec spec;
    spec.op = ServiceRequest::Op::kMetrics;
    spec.name = "metrics";
    spec.routing = OpRouting::kAdmin;
    spec.batch_phase = kMetricsPhase;
    spec.parse = ParseMetrics;
    spec.execute_admin = ExecuteMetricsAdmin;
    spec.format = FormatMetrics;
    add(spec);
  }
  {
    OpSpec spec;
    spec.op = ServiceRequest::Op::kMarginals;
    spec.name = "marginals";
    spec.routing = OpRouting::kTreeAddressed;
    spec.batch_phase = kQueryPhase;
    spec.parse = ParseMarginals;
    spec.execute_tree = ExecuteMarginalsTree;
    spec.format = FormatMarginals;
    add(spec);
  }
  {
    OpSpec spec;
    spec.op = ServiceRequest::Op::kAggregate;
    spec.name = "aggregate";
    spec.routing = OpRouting::kTreeAddressed;
    spec.batch_phase = kQueryPhase;
    spec.parse = ParseAggregate;
    spec.execute_tree = ExecuteAggregateTree;
    spec.format = FormatAggregate;
    add(spec);
  }
  {
    OpSpec spec;
    spec.op = ServiceRequest::Op::kBaseline;
    spec.name = "baseline";
    spec.routing = OpRouting::kTreeAddressed;
    spec.batch_phase = kQueryPhase;
    spec.rank_dist_k = BaselineRankDistK;
    spec.parse = ParseBaseline;
    spec.execute_tree = ExecuteBaselineTree;
    spec.format = FormatBaseline;
    add(spec);
  }
  {
    OpSpec spec;
    spec.op = ServiceRequest::Op::kHardness;
    spec.name = "hardness";
    spec.routing = OpRouting::kTreeAddressed;
    spec.batch_phase = kQueryPhase;
    spec.parse = ParseHardness;
    spec.execute_tree = ExecuteHardnessTree;
    spec.format = FormatHardness;
    add(spec);
  }
  // "a, b, c or d" — the unknown-op error's enumeration, derived from the
  // table so it can never go stale.
  for (size_t i = 0; i < specs_.size(); ++i) {
    if (i > 0) expected_ops_ += i + 1 == specs_.size() ? " or " : ", ";
    expected_ops_ += specs_[i].name;
  }
}

const OpRegistry& OpRegistry::Get() {
  static const OpRegistry* registry = new OpRegistry();
  return *registry;
}

const OpSpec* OpRegistry::FindByName(const std::string& name) const {
  for (const OpSpec& spec : specs_) {
    if (name == spec.name) return &spec;
  }
  return nullptr;
}

Status OpRegistry::UnknownOpError(const std::string& op) const {
  return Status::InvalidArgument("unknown op '" + op + "' (expected " +
                                 expected_ops_ + ")");
}

// ---------------------------------------------------------------------------
// The two protocol mappers are table walks over the registry.

Result<ServiceRequest> ServiceRequestFromLine(const RequestLine& line) {
  CPDB_ASSIGN_OR_RETURN(std::string op, RequiredField(line, "op"));
  ServiceRequest request;
  // The trace flag is accepted by every op (it modifies the response
  // envelope, not the answer), parsed with the same strictness as every
  // other enum-valued field.
  if (const std::string* trace = line.Find("trace")) {
    if (*trace == "on") {
      request.trace = true;
    } else if (*trace != "off") {
      return Status::InvalidArgument("unknown trace '" + *trace +
                                     "' (expected on or off)");
    }
  }
  const OpSpec* spec = OpRegistry::Get().FindByName(op);
  if (spec == nullptr) return OpRegistry::Get().UnknownOpError(op);
  request.op = spec->op;
  Status parsed = spec->parse(line, &request);
  if (!parsed.ok()) return parsed;
  return request;
}

std::vector<RequestField> ResponseToFields(const ServiceResponse& response) {
  const OpSpec& spec = OpRegistry::Get().spec(response.op);
  std::vector<RequestField> fields;
  fields.push_back({"op", spec.name});
  spec.format(response, &fields);
  // Trace fields trail every op's answer fields, strictly additive: a
  // trace=on response with its trace_* fields stripped is byte-identical
  // to the trace=off response (the differential suite pins this).
  if (response.timing.trace) {
    fields.push_back(
        {"trace_total_ns", std::to_string(response.timing.total_ns)});
    for (const auto& [stage, nanos] : response.timing.spans) {
      fields.push_back({"trace_" + stage + "_ns", std::to_string(nanos)});
    }
  }
  return fields;
}

}  // namespace cpdb
