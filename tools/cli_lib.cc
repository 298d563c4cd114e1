// Copyright 2026 The ConsensusDB Authors

#include "tools/cli_lib.h"

#include <algorithm>
#include <cstdint>
#include <cstdlib>
#include <limits>
#include <optional>
#include <utility>

#include "common/hash.h"
#include "common/rng.h"
#include "core/jaccard.h"
#include "core/topk_metrics.h"
#include "engine/engine.h"
#include "io/request_protocol.h"
#include "io/table_io.h"
#include "model/flat_tree.h"
#include "model/possible_worlds.h"
#include "obs/clock.h"
#include "service/catalog_snapshot.h"
#include "service/sharded_scheduler.h"
#include "service/tree_catalog.h"

namespace cpdb {

namespace {

// The --slow-query-ms threshold is compared in nanoseconds.
constexpr int64_t kNanosPerMilli = 1000000;

struct CliOptions {
  std::string command;
  std::string input_path;
  std::string format = "tree";  // tree | bid
  std::string metric = "symdiff";
  std::string answer = "mean";  // mean | median
  int k = 5;
  int count = 5;
  size_t max_worlds = 4096;
  uint64_t seed = 1;
  int threads = 1;
  bool cache = true;       // serve: rank-distribution cache on/off
  bool cache_set = false;  // --cache given (only serve accepts it)
  int64_t cache_budget = kUnboundedCacheBytes;  // serve: cache byte budget
  bool cache_budget_set = false;  // --cache-budget given (serve only)
  bool stream = false;     // serve: flush one response per request
  int shards = 1;          // serve: engine shards
  bool shards_set = false;  // --shards given (serve only)
  std::string catalog_path;       // serve: snapshot to load at startup
  std::string save_catalog_path;  // serve: snapshot to write at shutdown
  bool metrics = true;      // serve: instruments + op=metrics on/off
  bool metrics_set = false;  // --metrics given (serve only)
  int64_t slow_query_ms = 0;      // serve: slow-query log threshold
  bool slow_query_set = false;    // --slow-query-ms given (serve only)
  std::string method = "escore";  // baseline: ranking semantics
  bool method_set = false;        // --method given (baseline only)
};

// Strict base-10 integer parse for --flag values; shares the single strict
// parser with the serve protocol's integer fields (io/request_protocol.h):
// rejects empty strings, trailing garbage, and out-of-range magnitudes
// instead of silently taking whatever atoi salvages (a typo'd "--k=1o"
// must not become k=1).
Result<long long> ParseIntFlag(const std::string& name,
                               const std::string& value) {
  return ParseStrictInt("--" + name, value);
}

// Parses "--name=value" flags; positional arguments fill command then input.
Result<CliOptions> ParseArgs(const std::vector<std::string>& args) {
  CliOptions opts;
  std::vector<std::string> positional;
  for (size_t i = 1; i < args.size(); ++i) {
    const std::string& a = args[i];
    if (a.rfind("--", 0) != 0) {
      positional.push_back(a);
      continue;
    }
    size_t eq = a.find('=');
    std::string name = a.substr(2, eq == std::string::npos ? a.npos : eq - 2);
    std::string value = eq == std::string::npos ? "" : a.substr(eq + 1);
    if (name == "format") {
      opts.format = value;
    } else if (name == "metric") {
      opts.metric = value;
    } else if (name == "answer") {
      opts.answer = value;
    } else if (name == "method") {
      // Strict enum parse, same convention as --cache: a typo'd value must
      // not silently fall back to the default semantics. The value set is
      // the serve protocol's op=baseline method field, verbatim.
      if (value != "escore" && value != "erank" && value != "global" &&
          value != "prf") {
        return Status::InvalidArgument(
            "--method expects escore, erank, global or prf, got '" + value +
            "'");
      }
      opts.method = value;
      opts.method_set = true;
    } else if (name == "k") {
      // Out-of-range values error rather than clamp: a clamped k would
      // silently answer a different query. (Range checks like k >= 1 stay
      // with the commands, which know their semantics.)
      CPDB_ASSIGN_OR_RETURN(long long k, ParseIntFlag(name, value));
      if (k < 0 || k > (1 << 20)) {
        return Status::InvalidArgument("--k out of range, got '" + value +
                                       "'");
      }
      opts.k = static_cast<int>(k);
    } else if (name == "count") {
      CPDB_ASSIGN_OR_RETURN(long long count, ParseIntFlag(name, value));
      if (count < 0 || count > (1 << 30)) {
        return Status::InvalidArgument("--count out of range, got '" + value +
                                       "'");
      }
      opts.count = static_cast<int>(count);
    } else if (name == "max-worlds") {
      CPDB_ASSIGN_OR_RETURN(long long max_worlds, ParseIntFlag(name, value));
      if (max_worlds < 0) {
        return Status::InvalidArgument("--max-worlds must be >= 0, got '" +
                                       value + "'");
      }
      opts.max_worlds = static_cast<size_t>(max_worlds);
    } else if (name == "seed") {
      CPDB_ASSIGN_OR_RETURN(long long seed, ParseIntFlag(name, value));
      opts.seed = static_cast<uint64_t>(seed);
    } else if (name == "threads") {
      // A typo'd value must not silently become 0, which is the valid
      // "all hardware cores" setting.
      CPDB_ASSIGN_OR_RETURN(long long threads, ParseIntFlag(name, value));
      // Clamp before narrowing; the pool caps the count anyway.
      opts.threads = static_cast<int>(
          std::min<long long>(std::max<long long>(threads, -1), 1 << 20));
    } else if (name == "cache") {
      // Strict enum parse, like the integer flags: a typo'd value must not
      // silently leave the cache in its default state.
      if (value == "on") {
        opts.cache = true;
      } else if (value == "off") {
        opts.cache = false;
      } else {
        return Status::InvalidArgument("--cache expects on or off, got '" +
                                       value + "'");
      }
      opts.cache_set = true;
    } else if (name == "cache-budget") {
      CPDB_ASSIGN_OR_RETURN(long long budget, ParseIntFlag(name, value));
      if (budget < 0) {
        return Status::InvalidArgument(
            "--cache-budget must be >= 0 bytes, got '" + value + "'");
      }
      opts.cache_budget = budget;
      opts.cache_budget_set = true;
    } else if (name == "shards") {
      CPDB_ASSIGN_OR_RETURN(long long shards, ParseIntFlag(name, value));
      if (shards < 1 || shards > 1024) {
        return Status::InvalidArgument(
            "--shards must be between 1 and 1024, got '" + value + "'");
      }
      opts.shards = static_cast<int>(shards);
      opts.shards_set = true;
    } else if (name == "catalog") {
      // A pathless --catalog must not silently mean "cold start": the whole
      // point of the flag is that a warm restart either happens or errors.
      if (value.empty()) {
        return Status::InvalidArgument("--catalog requires a file path");
      }
      opts.catalog_path = value;
    } else if (name == "save-catalog") {
      if (value.empty()) {
        return Status::InvalidArgument("--save-catalog requires a file path");
      }
      opts.save_catalog_path = value;
    } else if (name == "metrics") {
      // Strict enum parse, same convention as --cache.
      if (value == "on") {
        opts.metrics = true;
      } else if (value == "off") {
        opts.metrics = false;
      } else {
        return Status::InvalidArgument("--metrics expects on or off, got '" +
                                       value + "'");
      }
      opts.metrics_set = true;
    } else if (name == "slow-query-ms") {
      CPDB_ASSIGN_OR_RETURN(long long threshold, ParseIntFlag(name, value));
      if (threshold < 0) {
        return Status::InvalidArgument(
            "--slow-query-ms must be >= 0, got '" + value + "'");
      }
      // CmdServe converts the threshold to nanoseconds in int64_t.
      if (threshold > std::numeric_limits<int64_t>::max() / kNanosPerMilli) {
        return Status::InvalidArgument("--slow-query-ms out of range, got '" +
                                       value + "'");
      }
      opts.slow_query_ms = threshold;
      opts.slow_query_set = true;
    } else if (name == "stream") {
      // A boolean presence flag: "--stream=off" would invite the
      // silently-misread failure mode the strict parses exist to prevent.
      if (eq != std::string::npos) {
        return Status::InvalidArgument("--stream takes no value, got '" +
                                       value + "'");
      }
      opts.stream = true;
    } else {
      return Status::InvalidArgument("unknown flag --" + name);
    }
  }
  if (positional.empty()) {
    return Status::InvalidArgument("missing command");
  }
  opts.command = positional[0];
  // The serve-only flags configure the serve scheduler and nothing else;
  // accepting them elsewhere would be the silently-ignored-flag failure
  // mode the strict value parses exist to prevent.
  const std::pair<bool, const char*> serve_only_flags[] = {
      {opts.cache_set, "--cache"},
      {opts.cache_budget_set, "--cache-budget"},
      {opts.stream, "--stream"},
      {opts.shards_set, "--shards"},
      {!opts.catalog_path.empty(), "--catalog"},
      {!opts.save_catalog_path.empty(), "--save-catalog"},
      {opts.metrics_set, "--metrics"},
      {opts.slow_query_set, "--slow-query-ms"},
  };
  for (const auto& [given, flag] : serve_only_flags) {
    if (given && opts.command != "serve") {
      return Status::InvalidArgument(std::string(flag) +
                                     " applies only to serve");
    }
  }
  if (opts.slow_query_set && !opts.metrics) {
    // The slow-query log reads the per-request timings the instruments
    // produce; asking for it with metrics off would silently log nothing.
    return Status::InvalidArgument("--slow-query-ms requires --metrics=on");
  }
  if (opts.method_set && opts.command != "baseline") {
    return Status::InvalidArgument("--method applies only to baseline");
  }
  if (positional.size() > 1) opts.input_path = positional[1];
  if (positional.size() > 2) {
    return Status::InvalidArgument("unexpected argument: " + positional[2]);
  }
  return opts;
}

// Loads the command's input tree. On failure prints the status on `err`
// (after `error_prefix`) and returns nullopt; the command then exits 1.
std::optional<AndXorTree> LoadTree(const CliOptions& opts, std::FILE* err,
                                   const char* error_prefix = "") {
  Result<AndXorTree> tree = [&]() -> Result<AndXorTree> {
    if (opts.input_path.empty()) {
      return Status::InvalidArgument("missing input file");
    }
    if (opts.format != "tree" && opts.format != "bid") {
      return Status::InvalidArgument("unknown --format=" + opts.format +
                                     " (expected tree or bid)");
    }
    return LoadTreeFile(opts.input_path, opts.format);
  }();
  if (tree.ok()) return *std::move(tree);
  std::fprintf(err, "%s%s\n", error_prefix, tree.status().ToString().c_str());
  return std::nullopt;
}

// The range checks of the engine-backed commands' flags: --k >= 1 for the
// commands that take it, --threads >= 0. Prints the failure on `err`;
// false means the command exits 1.
bool EngineFlagsValid(const CliOptions& opts, bool uses_k, std::FILE* err) {
  if (uses_k && opts.k < 1) {
    std::fprintf(err, "--k must be >= 1\n");
    return false;
  }
  if (opts.threads < 0) {
    std::fprintf(err, "--threads must be >= 0 (0 = all hardware cores)\n");
    return false;
  }
  return true;
}

// A request for `op` against the command's input tree; ExecuteOnInput
// fills in the tree name.
ServiceRequest OpRequest(ServiceRequest::Op op) {
  ServiceRequest request;
  request.op = op;
  return request;
}

// The offline twins' one execution path. `tree` is inserted into a
// one-shard ShardedScheduler (engine threads = --threads, caches on,
// metrics off) and `requests` run against it through the serve op table
// in one ExecuteBatch. The twins (marginals, aggregate, baseline, hardness,
// topk) thus answer exactly what the matching serve op answers for the
// same file: every fold runs over the canonical orientation, so the order
// of commutative children in the input never changes a byte. results[i]
// answers requests[i].
std::vector<Result<ServiceResponse>> ExecuteOnInput(
    const CliOptions& opts, AndXorTree tree,
    std::vector<ServiceRequest> requests) {
  const std::string kName = "input";
  EngineOptions engine_options;
  engine_options.num_threads = opts.threads;
  SchedulerOptions scheduler_options;
  scheduler_options.enable_metrics = false;
  ShardedScheduler scheduler(1, engine_options, scheduler_options);
  Result<CatalogEntry> inserted = scheduler.Insert(kName, std::move(tree));
  if (!inserted.ok()) {
    return std::vector<Result<ServiceResponse>>(requests.size(),
                                                inserted.status());
  }
  for (ServiceRequest& request : requests) request.tree_name = kName;
  return scheduler.ExecuteBatch(requests);
}

void PrintWorld(const AndXorTree& tree, const std::vector<NodeId>& leaf_ids,
                std::FILE* out) {
  std::fprintf(out, "{");
  bool first = true;
  for (const TupleAlternative& t : WorldTuples(tree, leaf_ids)) {
    std::fprintf(out, "%s(%d:%g)", first ? "" : " ", t.key, t.score);
    first = false;
  }
  std::fprintf(out, "}");
}

int CmdValidate(const CliOptions& opts, std::FILE* out, std::FILE* err) {
  std::optional<AndXorTree> tree = LoadTree(opts, err, "INVALID: ");
  if (!tree) return 1;
  std::fprintf(out, "OK: %d leaves, %zu keys, %d nodes\n", tree->NumLeaves(),
               tree->Keys().size(), tree->NumNodes());
  return 0;
}

int CmdDumpFlat(const CliOptions& opts, std::FILE* out, std::FILE* err) {
  std::optional<AndXorTree> tree = LoadTree(opts, err);
  if (!tree) return 1;
  // The compiled record table: op stream (kind, slots, originating node,
  // precomputed XOR weights) followed by the leaf table (key, score, node,
  // marginal). This is the exact program the hot fold executes, so the dump
  // is the ground truth for debugging slot recycling and leaf
  // classification.
  std::fprintf(out, "%s", FlatTree::Compile(*tree).ToString().c_str());
  return 0;
}

int CmdDumpCanon(const CliOptions& opts, std::FILE* out, std::FILE* err) {
  std::optional<AndXorTree> tree = LoadTree(opts, err);
  if (!tree) return 1;
  // The two-level identity, exactly as the serving catalog derives it:
  // content_fp hashes the wire-normalized input orientation (the identity a
  // client sees on responses), struct_key hashes the canonical orientation
  // (the identity the caches, fold compiler, and shard router key on). Two
  // inputs differing only by commutative child order print different
  // content lines but the same struct_key and canonical lines.
  auto identity = TreeCatalog::ComputeIdentity(std::move(*tree));
  if (!identity.ok()) {
    std::fprintf(err, "%s\n", identity.status().ToString().c_str());
    return 1;
  }
  std::fprintf(out, "content_fp %s\n", HashToHex(identity->content_fp).c_str());
  std::fprintf(out, "struct_key %s\n", HashToHex(identity->struct_key).c_str());
  std::fprintf(out, "content %s\n", identity->content_bytes.c_str());
  std::fprintf(out, "canonical %s\n", identity->canonical_bytes.c_str());
  return 0;
}

int CmdMarginals(const CliOptions& opts, std::FILE* out, std::FILE* err) {
  std::optional<AndXorTree> tree = LoadTree(opts, err);
  if (!tree) return 1;
  if (!EngineFlagsValid(opts, /*uses_k=*/false, err)) return 1;
  Result<ServiceResponse> response = ExecuteOnInput(
      opts, *std::move(tree), {OpRequest(ServiceRequest::Op::kMarginals)})[0];
  if (!response.ok()) {
    std::fprintf(err, "%s\n", response.status().ToString().c_str());
    return 1;
  }
  std::fprintf(out, "key presence_probability\n");
  // Shortest round-trip formatting (shared with the serve wire): strtod of
  // the printed value reproduces the computed double bitwise.
  for (size_t i = 0; i < response->keys.size(); ++i) {
    std::fprintf(out, "%d %s\n", response->keys[i],
                 FormatRoundTripDouble(response->values[i]).c_str());
  }
  return 0;
}

int CmdWorlds(const CliOptions& opts, std::FILE* out, std::FILE* err) {
  std::optional<AndXorTree> tree = LoadTree(opts, err);
  if (!tree) return 1;
  auto worlds = EnumerateWorlds(*tree, opts.max_worlds);
  if (!worlds.ok()) {
    std::fprintf(err, "%s\n", worlds.status().ToString().c_str());
    return 1;
  }
  std::sort(worlds->begin(), worlds->end(),
            [](const World& a, const World& b) { return a.prob > b.prob; });
  for (const World& w : *worlds) {
    std::fprintf(out, "%s ", FormatRoundTripDouble(w.prob).c_str());
    PrintWorld(*tree, w.leaf_ids, out);
    std::fprintf(out, "\n");
  }
  return 0;
}

int CmdSample(const CliOptions& opts, std::FILE* out, std::FILE* err) {
  std::optional<AndXorTree> tree = LoadTree(opts, err);
  if (!tree) return 1;
  Rng rng(opts.seed);
  for (int i = 0; i < opts.count; ++i) {
    PrintWorld(*tree, SampleWorld(*tree, &rng), out);
    std::fprintf(out, "\n");
  }
  return 0;
}

int CmdConsensusWorld(const CliOptions& opts, std::FILE* out, std::FILE* err) {
  std::optional<AndXorTree> tree = LoadTree(opts, err);
  if (!tree) return 1;
  if (!EngineFlagsValid(opts, /*uses_k=*/false, err)) return 1;
  // Strict, with serve's op=world message: the set-consensus worlds come in
  // mean and median forms only.
  if (opts.answer != "mean" && opts.answer != "median") {
    const Status bad = Status::InvalidArgument(
        "unknown answer '" + opts.answer + "' (expected mean or median)");
    std::fprintf(err, "%s\n", bad.ToString().c_str());
    return 1;
  }
  const bool median = opts.answer == "median";
  std::vector<NodeId> world;
  double expected = 0.0;
  if (opts.metric == "symdiff") {
    // The serve path's computation: one marginal pass serves both the
    // answer and its expected distance. Results are independent of the
    // --threads count (see engine/engine.h).
    EngineOptions engine_options;
    engine_options.num_threads = opts.threads;
    Engine engine(engine_options);
    Result<Engine::WorldResult> result = engine.ConsensusWorldWithMarginals(
        *tree, engine.LeafMarginals(*tree), median);
    if (!result.ok()) {
      std::fprintf(err, "%s\n", result.status().ToString().c_str());
      return 1;
    }
    world = std::move(result->leaf_ids);
    expected = result->expected_distance;
  } else if (opts.metric == "jaccard") {
    Result<std::vector<NodeId>> result =
        median && IsBlockIndependent(*tree) &&
                !IsTupleIndependent(*tree)
            ? MedianWorldJaccardBid(*tree)
            : MeanWorldJaccard(*tree);
    if (!result.ok()) {
      std::fprintf(err, "%s\n", result.status().ToString().c_str());
      return 1;
    }
    world = *result;
    expected = ExpectedJaccardDistance(*tree, world);
  } else {
    std::fprintf(err, "unknown --metric=%s (expected symdiff or jaccard)\n",
                 opts.metric.c_str());
    return 1;
  }
  std::fprintf(out, "%s world under %s, E[distance] = %s:\n",
               opts.answer.c_str(), opts.metric.c_str(),
               FormatRoundTripDouble(expected).c_str());
  PrintWorld(*tree, world, out);
  std::fprintf(out, "\n");
  return 0;
}

int CmdTopK(const CliOptions& opts, std::FILE* out, std::FILE* err) {
  std::optional<AndXorTree> tree = LoadTree(opts, err);
  if (!tree) return 1;
  if (!EngineFlagsValid(opts, /*uses_k=*/true, err)) return 1;
  // --metric=all asks for all four metrics' mean answers over the same
  // tree; the four requests fuse into one Engine::EvaluateConsensusBatch
  // submission, so the rank distribution, strata, columns, and q-matrix
  // units of all queries share the pool.
  const bool all = opts.metric == "all";
  std::vector<TopKMetric> metrics = {TopKMetric::kSymDiff,
                                     TopKMetric::kIntersection,
                                     TopKMetric::kFootrule,
                                     TopKMetric::kKendall};
  if (!all) {
    Result<TopKMetric> metric = ParseTopKMetricName(opts.metric);
    if (!metric.ok()) {
      std::fprintf(err,
                   "unknown --metric=%s (expected symdiff, intersection, "
                   "footrule or kendall)\n",
                   opts.metric.c_str());
      return 1;
    }
    metrics = {*metric};
  }
  // Strict, like serve's answer= field: an unknown answer is an error, and
  // a (metric, answer) pair the metric does not support fails in the engine
  // with serve's message instead of quietly answering the mean.
  Result<TopKAnswer> answer = ParseTopKAnswerName(opts.answer);
  if (!answer.ok()) {
    std::fprintf(err, "%s\n", answer.status().ToString().c_str());
    return 1;
  }
  if (all && *answer != TopKAnswer::kMean) {
    std::fprintf(err, "--metric=all supports only --answer=mean, got '%s'\n",
                 opts.answer.c_str());
    return 1;
  }
  std::vector<ServiceRequest> requests;
  for (TopKMetric metric : metrics) {
    ServiceRequest request = OpRequest(ServiceRequest::Op::kTopK);
    request.k = opts.k;
    request.metric = metric;
    request.answer = *answer;
    requests.push_back(request);
  }
  std::vector<Result<ServiceResponse>> results =
      ExecuteOnInput(opts, *std::move(tree), requests);
  for (size_t i = 0; i < results.size(); ++i) {
    if (!results[i].ok()) {
      std::fprintf(err, "%s%s%s\n", all ? TopKMetricName(metrics[i]) : "",
                   all ? ": " : "", results[i].status().ToString().c_str());
      return 1;
    }
    const ServiceResponse& response = *results[i];
    std::fprintf(out, "top-%d (%s, %s): [", response.k,
                 response.metric.c_str(), response.answer.c_str());
    for (KeyId key : response.keys) std::fprintf(out, " %d", key);
    std::fprintf(out, " ]  E[distance] = %s\n",
                 FormatRoundTripDouble(response.expected_distance).c_str());
  }
  return 0;
}

// Reads one input line (up to '\n' or EOF, newline not included). Returns
// false at end of input. Incremental on purpose: the streaming serve mode
// must not read request N+1 before answering request N.
bool ReadLine(std::FILE* in, std::string* line) {
  line->clear();
  int c;
  while ((c = std::fgetc(in)) != EOF) {
    if (c == '\n') return true;
    line->push_back(static_cast<char>(c));
  }
  return !line->empty();
}

// The serve command: reads one request per line (the protocol of
// io/request_protocol.h) and answers through a ShardedScheduler that
// partitions requests across --shards=N (engine, catalog, cache) contexts
// by structural key (N = 1 by default), splitting --threads evenly across
// the shard engines. Answers are bitwise identical for every N; only
// throughput and the stats breakdown (present at N >= 2) change.
// Two execution modes:
//
//   batch (default)  — the whole input is one scheduler batch: catalog
//       loads apply first (queries may reference trees loaded later in the
//       input), shared folds are deduplicated through the caches, and one
//       response line per request is written at the end, in input order.
//   --stream         — each request executes as it is read and its
//       response line is flushed before the next line is read, so a client
//       on a pipe sees answer N while composing request N+1. Requests
//       execute strictly in input order: a query may only reference trees
//       loaded earlier, and op=stats reports counters as of its line.
//
// In both modes request-level garbage produces an in-band error line for
// that request only; the command keeps serving the rest.
int CmdServe(const CliOptions& opts, std::FILE* out, std::FILE* err) {
  if (!EngineFlagsValid(opts, /*uses_k=*/false, err)) return 1;
  std::FILE* in = stdin;
  std::FILE* owned_in = nullptr;
  if (!opts.input_path.empty() && opts.input_path != "-") {
    owned_in = std::fopen(opts.input_path.c_str(), "r");
    if (owned_in == nullptr) {
      std::fprintf(err, "IO error: cannot open '%s'\n",
                   opts.input_path.c_str());
      return 1;
    }
    in = owned_in;
  }

  SchedulerOptions scheduler_options;
  scheduler_options.use_cache = opts.cache;
  scheduler_options.cache_budget_bytes = opts.cache_budget;
  scheduler_options.enable_metrics = opts.metrics;

  EngineOptions engine_options;
  engine_options.num_threads =
      ShardedScheduler::ThreadsPerShard(opts.threads, opts.shards);
  ShardedScheduler scheduler(opts.shards, engine_options, scheduler_options);

  // Warm restart: install the snapshot before reading any request. A
  // missing, unreadable, or corrupt snapshot is a *startup error* — the
  // operator asked for a warm catalog, so silently serving cold (and
  // answering every query with "no catalog tree named ...") would be the
  // silently-misread failure mode the strict flag parses exist to prevent.
  if (!opts.catalog_path.empty()) {
    Result<CatalogSnapshot> snapshot =
        ReadCatalogSnapshotFile(opts.catalog_path);
    Status installed = snapshot.ok() ? scheduler.InstallSnapshot(*snapshot)
                                     : snapshot.status();
    if (!installed.ok()) {
      std::fprintf(err, "catalog error: cannot load '%s': %s\n",
                   opts.catalog_path.c_str(), installed.ToString().c_str());
      if (owned_in != nullptr) std::fclose(owned_in);
      return 1;
    }
  }

  // The transport's own instrumentation: parse and format stages record
  // into shard 0's registry (the same place every other front-end record
  // lands), and the slow-query log reads the side-band timing off each
  // answered response. All of it is inert when metrics are off.
  ServeInstruments* instruments = scheduler.frontend_instruments();
  const Clock* clk = instruments != nullptr ? scheduler.clock() : nullptr;
  const int64_t slow_nanos =
      opts.slow_query_set ? opts.slow_query_ms * kNanosPerMilli : -1;

  int failed = 0;
  size_t line_number = 0;  // the line most recently read

  // The parse step both modes share: reads up to the next request line,
  // skipping comment lines, and types it (or keeps the parse error),
  // recording the parse stage. nullopt at end of input; `raw` holds the
  // request text and `line_number` its line.
  auto read_request =
      [&](std::string* raw) -> std::optional<Result<ServiceRequest>> {
    while (ReadLine(in, raw)) {
      ++line_number;
      Stopwatch parse_watch(clk);
      Result<RequestLine> line = ParseRequestLine(*raw);
      if (line.ok() && line->fields.empty()) continue;
      Result<ServiceRequest> request =
          line.ok() ? ServiceRequestFromLine(*line)
                    : Result<ServiceRequest>(line.status());
      if (instruments != nullptr) {
        instruments->stage_parse->Record(parse_watch.ElapsedNanos());
      }
      return request;
    }
    return std::nullopt;
  };

  // The write step both modes share: an error line (counted as failed),
  // or the rendered response with its format stage, then — strictly
  // side-band, stdout bytes never change — one stderr line for a request
  // that ran longer than the slow-query threshold: line number, total and
  // per-stage times, and the raw request echoed through EscapeFieldValue
  // (a hostile request must not be able to forge log lines).
  auto write_result = [&](size_t request_line_number,
                          const std::string& raw_request,
                          const Result<ServiceResponse>& response) {
    if (!response.ok()) {
      std::fprintf(
          out, "%s",
          FormatErrorLine(request_line_number, response.status()).c_str());
      ++failed;
      return;
    }
    Stopwatch format_watch(clk);
    const std::string rendered = FormatResponseLine(ResponseToFields(*response));
    if (instruments != nullptr) {
      instruments->stage_format->Record(format_watch.ElapsedNanos());
    }
    std::fprintf(out, "%s", rendered.c_str());
    if (slow_nanos < 0 || response->timing.total_ns <= slow_nanos) return;
    std::fprintf(err, "%s\n",
                 FormatSlowQueryLine(static_cast<int64_t>(request_line_number),
                                     raw_request, response->timing)
                     .c_str());
  };

  if (opts.stream) {
    // Streaming: the scheduler pulls requests through `next` — which
    // reports garbage in-band without surfacing a request — and every
    // response is written and flushed by `emit` before the next line is
    // read, so `line_number` and `raw` always name the request in flight.
    std::string raw;
    auto next = [&](ServiceRequest* request) -> bool {
      while (std::optional<Result<ServiceRequest>> parsed =
                 read_request(&raw)) {
        if (parsed->ok()) {
          *request = *std::move(*parsed);
          return true;
        }
        write_result(line_number, raw, parsed->status());
        std::fflush(out);
      }
      return false;
    };
    auto emit = [&](const Result<ServiceResponse>& response) {
      write_result(line_number, raw, response);
      std::fflush(out);
    };
    scheduler.ExecuteStreaming(next, emit);
  } else {
    // Batch: read and type every line up front; comment lines produce no
    // response. Slots keep their input line number for error reporting.
    std::vector<size_t> line_numbers;
    std::vector<std::string> raw_lines;
    std::vector<Result<ServiceRequest>> parsed;
    std::string raw;
    while (std::optional<Result<ServiceRequest>> request =
               read_request(&raw)) {
      line_numbers.push_back(line_number);
      raw_lines.push_back(raw);
      parsed.push_back(*std::move(request));
    }

    std::vector<ServiceRequest> batch;
    for (const Result<ServiceRequest>& request : parsed) {
      if (request.ok()) batch.push_back(*request);
    }
    std::vector<Result<ServiceResponse>> results =
        scheduler.ExecuteBatch(batch);

    size_t cursor = 0;
    for (size_t i = 0; i < parsed.size(); ++i) {
      if (!parsed[i].ok()) {
        write_result(line_numbers[i], raw_lines[i], parsed[i].status());
        continue;
      }
      write_result(line_numbers[i], raw_lines[i], results[cursor++]);
    }
  }
  if (owned_in != nullptr) std::fclose(owned_in);

  // Persist the live catalog (and the retained rank distributions, so the
  // next process's first batch hits warm) after all requests are answered.
  // A failed save is a failed serve: the operator asked for durability.
  if (!opts.save_catalog_path.empty()) {
    CatalogSnapshot snapshot =
        scheduler.BuildSnapshot(/*include_distributions=*/true);
    Status saved = WriteCatalogSnapshotFile(opts.save_catalog_path, snapshot);
    if (!saved.ok()) {
      std::fprintf(err, "catalog error: cannot save '%s': %s\n",
                   opts.save_catalog_path.c_str(), saved.ToString().c_str());
      return 1;
    }
  }
  return failed == 0 ? 0 : 1;
}

int CmdAggregate(const CliOptions& opts, std::FILE* out, std::FILE* err) {
  std::optional<AndXorTree> tree = LoadTree(opts, err);
  if (!tree) return 1;
  if (!EngineFlagsValid(opts, /*uses_k=*/false, err)) return 1;
  Result<ServiceResponse> response = ExecuteOnInput(
      opts, *std::move(tree), {OpRequest(ServiceRequest::Op::kAggregate)})[0];
  if (!response.ok()) {
    // The group-by build's InvalidArgument errors (a missing label) print
    // as the bare message; the median search's errors keep their code.
    const Status& status = response.status();
    std::fprintf(err, "%s\n",
                 status.code() == StatusCode::kInvalidArgument
                     ? status.message().c_str()
                     : status.ToString().c_str());
    return 1;
  }
  std::fprintf(out, "group mean_count median_count\n");
  for (size_t j = 0; j < response->values.size(); ++j) {
    std::fprintf(out, "%zu %s %lld\n", j,
                 FormatRoundTripDouble(response->values[j]).c_str(),
                 static_cast<long long>(response->group_counts[j]));
  }
  return 0;
}

// The offline twin of serve's op=baseline: the four heuristic ranking
// semantics of core/ranking_baselines.h over one tree; the printed keys csv
// is the serve response's keys field.
int CmdBaseline(const CliOptions& opts, std::FILE* out, std::FILE* err) {
  std::optional<AndXorTree> tree = LoadTree(opts, err);
  if (!tree) return 1;
  if (!EngineFlagsValid(opts, /*uses_k=*/true, err)) return 1;
  ServiceRequest request = OpRequest(ServiceRequest::Op::kBaseline);
  request.k = opts.k;
  request.baseline_method = opts.method;
  Result<ServiceResponse> response =
      ExecuteOnInput(opts, *std::move(tree), {request})[0];
  if (!response.ok()) {
    std::fprintf(err, "%s\n", response.status().ToString().c_str());
    return 1;
  }
  std::fprintf(out, "baseline %s k=%d keys=", response->method.c_str(),
               response->k);
  for (size_t i = 0; i < response->keys.size(); ++i) {
    std::fprintf(out, "%s%d", i == 0 ? "" : ",", response->keys[i]);
  }
  std::fprintf(out, "\n");
  return 0;
}

// The offline twin of serve's op=hardness: the structural statistics behind
// the paper's tractability frontier, one `name value` line per answer field
// of the serve response (rendered by the op's own formatter).
int CmdHardness(const CliOptions& opts, std::FILE* out, std::FILE* err) {
  std::optional<AndXorTree> tree = LoadTree(opts, err);
  if (!tree) return 1;
  if (!EngineFlagsValid(opts, /*uses_k=*/false, err)) return 1;
  Result<ServiceResponse> response = ExecuteOnInput(
      opts, *std::move(tree), {OpRequest(ServiceRequest::Op::kHardness)})[0];
  if (!response.ok()) {
    std::fprintf(err, "%s\n", response.status().ToString().c_str());
    return 1;
  }
  // Skips the leading op= and tree= fields.
  const std::vector<RequestField> fields = ResponseToFields(*response);
  for (size_t i = 2; i < fields.size(); ++i) {
    std::fprintf(out, "%s %s\n", fields[i].name.c_str(),
                 fields[i].value.c_str());
  }
  return 0;
}

}  // namespace

std::string CliUsage() {
  return
      "usage: cpdb_cli <command> <input-file> [flags]\n"
      "\n"
      "commands:\n"
      "  validate         check the input against the model constraints\n"
      "  dump-flat        print the compiled FlatTree record table (the\n"
      "                   instruction stream and leaf table the hot\n"
      "                   generating-function fold executes)\n"
      "  dump-canon       print the tree's two-level identity: content_fp\n"
      "                   (hash of the wire-normalized input), struct_key\n"
      "                   (hash of the canonical orientation), and both\n"
      "                   orientations' one-line forms\n"
      "  marginals        per-key presence probabilities\n"
      "  worlds           enumerate possible worlds (most likely first)\n"
      "  sample           draw random worlds (--count, --seed)\n"
      "  consensus-world  --metric=symdiff|jaccard --answer=mean|median\n"
      "  topk             --k=K --metric=symdiff|intersection|footrule|kendall\n"
      "                   (--metric=all batches every metric's mean answer\n"
      "                   through the engine in one submission)\n"
      "                   --answer=mean|median|approx|any-size (median and\n"
      "                   any-size: symdiff only; approx: intersection\n"
      "                   only; --metric=all: mean only; an unsupported\n"
      "                   pair is an error)\n"
      "  aggregate        consensus group-by COUNT over the label attribute\n"
      "  baseline         --k=K --method=escore|erank|global|prf: the\n"
      "                   heuristic ranking semantics the consensus answers\n"
      "                   are compared against (expected score, expected\n"
      "                   rank, global top-k, PRF-upsilon with harmonic\n"
      "                   weights)\n"
      "  hardness         structural hardness statistics: node/leaf/key\n"
      "                   counts, key duplication (the signal behind the\n"
      "                   paper's tractability frontier), independence\n"
      "                   shape flags\n"
      "  serve            answer requests read from the input file (or\n"
      "                   stdin when omitted or '-'), one request per line:\n"
      "                     op=load name=T file=PATH [format=tree|bid]\n"
      "                     op=topk tree=T k=K [metric=...] [answer=...]\n"
      "                     op=world tree=T [answer=mean|median]\n"
      "                     op=stats\n"
      "                     op=metrics [format=kv|prom]\n"
      "                     op=marginals tree=T\n"
      "                     op=aggregate tree=T\n"
      "                     op=baseline tree=T k=K [method=escore|erank|\n"
      "                       global|prf]\n"
      "                     op=hardness tree=T\n"
      "                   any request may add trace=on to receive side-band\n"
      "                   trace_*_ns timing fields on its response line\n"
      "                   (answer fields are bitwise identical either way);\n"
      "                   one tab-separated response line per request; rank\n"
      "                   distributions are cached across requests, one\n"
      "                   entry per structural key at the widest k folded\n"
      "                   (narrower ks read a prefix of it), so trees\n"
      "                   differing only by commutative child order share\n"
      "                   one entry.\n"
      "                   Default is batch mode (the whole input is one\n"
      "                   scheduler batch; loads apply before queries);\n"
      "                   --stream answers each request as it is read.\n"
      "                   Exits 0 when every request succeeded, 1 otherwise\n"
      "                   (failures are reported in-band as error lines).\n"
      "  help             print this message\n"
      "\n"
      "marginals, topk, aggregate, baseline and hardness answer through the\n"
      "serve op table: their output is what the matching op=... request\n"
      "answers for the same file, folded over the canonical orientation.\n"
      "\n"
      "flags:\n"
      "  --format=tree|bid   input format (default tree: s-expression;\n"
      "                      bid: 'key prob score [label]' lines)\n"
      "  --max-worlds=N      enumeration guard for `worlds` (default 4096)\n"
      "  (integer flags are parsed strictly: '--k=1o' is an error, not 1)\n"
      "  --threads=N         evaluation threads for marginals,\n"
      "                      consensus-world, topk, aggregate, baseline,\n"
      "                      hardness and serve (default 1; 0 = all\n"
      "                      hardware cores; results are independent of N)\n"
      "  --method=M          baseline only: escore (expected score), erank\n"
      "                      (expected rank), global (global top-k) or prf\n"
      "                      (PRF-upsilon with harmonic weights; default\n"
      "                      escore)\n"
      "  --cache=on|off      serve only: the rank-distribution cache\n"
      "                      (default on; answers are bitwise identical\n"
      "                      either way — off exists for benchmarking)\n"
      "  --cache-budget=B    serve only: byte budget of each shard's\n"
      "                      rank-distribution cache; retained\n"
      "                      entries are LRU-evicted to fit (default\n"
      "                      unbounded; 0 retains nothing; answers are\n"
      "                      bitwise independent of the budget)\n"
      "  --stream            serve only: flush one response line per\n"
      "                      request instead of batching the whole input;\n"
      "                      queries see only trees loaded earlier in the\n"
      "                      stream\n"
      "  --shards=N          serve only: partition requests across N\n"
      "                      engine shards by structural key (each\n"
      "                      shard engine gets max(1, threads/N) threads,\n"
      "                      so N > threads raises the total to N; a\n"
      "                      --cache-budget applies to each shard's\n"
      "                      cache, so retained bytes scale with N;\n"
      "                      answers are bitwise identical for any N;\n"
      "                      default 1; at N >= 2 op=stats adds\n"
      "                      per-shard breakdown fields)\n"
      "  --catalog=FILE      serve only: load a catalog snapshot (written\n"
      "                      by --save-catalog) before reading requests —\n"
      "                      the warm-restart path. A missing or corrupt\n"
      "                      snapshot is a startup error, never a silent\n"
      "                      cold start. Answers are bitwise identical to\n"
      "                      loading the same trees via op=load lines\n"
      "  --save-catalog=FILE serve only: after answering all requests,\n"
      "                      write the catalog (and the retained rank\n"
      "                      distributions, so the next process's first\n"
      "                      batch hits warm) as a checksummed snapshot\n"
      "  --metrics=on|off    serve only: the metrics registry behind\n"
      "                      op=metrics (default on; off disables all\n"
      "                      timing reads and makes op=metrics an error;\n"
      "                      answers are bitwise identical either way)\n"
      "  --slow-query-ms=T   serve only, requires --metrics=on: log every\n"
      "                      answered request slower than T milliseconds\n"
      "                      to stderr with its per-stage timing and the\n"
      "                      escaped request text (T=0 logs every request;\n"
      "                      stdout bytes never change)\n";
}

int RunCli(const std::vector<std::string>& args, std::FILE* out,
           std::FILE* err) {
  auto opts = ParseArgs(args);
  if (!opts.ok()) {
    std::fprintf(err, "%s\n%s", opts.status().ToString().c_str(),
                 CliUsage().c_str());
    return 2;
  }
  const std::string& cmd = opts->command;
  if (cmd == "help") {
    std::fprintf(out, "%s", CliUsage().c_str());
    return 0;
  }
  if (cmd == "validate") return CmdValidate(*opts, out, err);
  if (cmd == "dump-flat") return CmdDumpFlat(*opts, out, err);
  if (cmd == "dump-canon") return CmdDumpCanon(*opts, out, err);
  if (cmd == "marginals") return CmdMarginals(*opts, out, err);
  if (cmd == "worlds") return CmdWorlds(*opts, out, err);
  if (cmd == "sample") return CmdSample(*opts, out, err);
  if (cmd == "consensus-world") return CmdConsensusWorld(*opts, out, err);
  if (cmd == "topk") return CmdTopK(*opts, out, err);
  if (cmd == "serve") return CmdServe(*opts, out, err);
  if (cmd == "aggregate") return CmdAggregate(*opts, out, err);
  if (cmd == "baseline") return CmdBaseline(*opts, out, err);
  if (cmd == "hardness") return CmdHardness(*opts, out, err);
  std::fprintf(err, "unknown command '%s'\n%s", cmd.c_str(),
               CliUsage().c_str());
  return 2;
}

}  // namespace cpdb
