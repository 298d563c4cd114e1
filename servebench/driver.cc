// Copyright 2026 The ConsensusDB Authors
//
// servebench_driver — replays one workload's seeded request sequence
// through the serve path and reports end-to-end or per-layer metrics.
//
//   servebench_driver gen --workload W --seed S --seconds T --dir D [--smoke]
//   servebench_driver run --workload W --seed S --seconds T --dir D
//                         --trace 0|1 [--smoke] [--perturb] [--commit C]
//
// `gen` writes the inputs (workloads.h). `run` makes the calls `cpdb_cli
// serve` makes — ParseRequestLine, ServiceRequestFromLine,
// ShardedScheduler::ExecuteOne (stream) or ExecuteBatch (batch),
// ResponseToFields, FormatResponseLine — from one client thread, closed
// loop: the next request (or batch) is submitted only after the previous
// response line is formatted. The front end is fixed: one shard, two
// engine threads, metrics on, the workload's cache budget.
//
// A run:
//   1. builds spec.setup_reps fresh front ends, each installing the
//      snapshot and replaying the warm-up pass, in three groups spread
//      over the run; setup_s is their median, and the last one before the
//      timed sequence serves it;
//   2. replays the timed sequence untraced: throughput, p50/p99 latency
//      (a batch is one sample in batch mode), peak RSS, CPU, and op=metrics
//      scrape deltas;
//   3. with --trace 1, times isolated calls into the layers on the
//      workload's own shapes and replays the same sequence with trace=on
//      on a fresh front end, splitting the traced wall time into stage
//      self times;
//   4. replays each distinct request once through a reference front end
//      (caches off, one engine thread) and compares every timed response
//      against it (gate.h). --perturb corrupts one reference answer, which
//      must make the run fail.
//
// The last stdout line is the result object: correct, attempted, failed,
// and the metrics (end-to-end with --trace 0, per-layer with --trace 1).
// Exit code 0 only when every answer matched.

#include <sys/resource.h>
#include <time.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <memory>
#include <random>
#include <string>
#include <thread>
#include <unordered_map>
#include <utility>
#include <vector>

#include "engine/engine.h"
#include "gate.h"
#include "io/request_protocol.h"
#include "poly/poly_arena.h"
#include "service/catalog_snapshot.h"
#include "service/query_scheduler.h"
#include "service/sharded_scheduler.h"
#include "service/tree_catalog.h"
#include "workloads.h"

namespace servebench {
namespace {

constexpr int kEngineThreads = 2;
constexpr int kShards = 1;
// The traced units' client-measured time must cover the traced wall time
// within this share (see TracedLayers).
constexpr double kStageTolerance = 0.02;

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double ProcessCpuSeconds() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + 1e-9 * static_cast<double>(ts.tv_nsec);
}

// Peak resident set so far, in MiB (VmHWM; ru_maxrss as a fallback).
double PeakRssMb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.compare(0, 6, "VmHWM:") == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
  }
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

double Median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

// Nearest-rank percentile of sorted samples.
double Percentile(const std::vector<int64_t>& sorted, double q) {
  size_t rank = static_cast<size_t>(q * static_cast<double>(sorted.size()));
  if (rank >= sorted.size()) rank = sorted.size() - 1;
  return static_cast<double>(sorted[rank]);
}

struct Args {
  std::string mode;
  std::string workload;
  std::string dir;
  std::string commit = "unknown";
  uint64_t seed = 0;
  int seconds = 0;
  bool trace = false;
  bool smoke = false;
  bool perturb = false;
};

bool ParseArgs(int argc, char** argv, Args* args) {
  if (argc < 2) return false;
  args->mode = argv[1];
  for (int i = 2; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--smoke") {
      args->smoke = true;
      continue;
    }
    if (flag == "--perturb") {
      args->perturb = true;
      continue;
    }
    if (i + 1 >= argc) return false;
    const std::string value = argv[++i];
    if (flag == "--workload") {
      args->workload = value;
    } else if (flag == "--dir") {
      args->dir = value;
    } else if (flag == "--commit") {
      args->commit = value;
    } else if (flag == "--seed") {
      args->seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      args->seconds = std::atoi(value.c_str());
    } else if (flag == "--trace") {
      args->trace = value == "1";
    } else {
      return false;
    }
  }
  return (args->mode == "gen" || args->mode == "run") &&
         !args->workload.empty() && !args->dir.empty() && args->seconds >= 1;
}

std::unique_ptr<cpdb::ShardedScheduler> MakeFrontEnd(const WorkloadSpec& spec,
                                                     int threads,
                                                     bool use_cache) {
  cpdb::EngineOptions engine_options;
  engine_options.num_threads = threads;
  cpdb::SchedulerOptions options;
  options.use_cache = use_cache;
  options.enable_metrics = true;
  if (spec.cache_budget >= 0) options.cache_budget_bytes = spec.cache_budget;
  return std::make_unique<cpdb::ShardedScheduler>(kShards, engine_options,
                                                  options);
}

// Parses and types one request line; the error line on failure.
cpdb::Result<cpdb::ServiceRequest> ParseRequest(const std::string& text) {
  cpdb::Result<cpdb::RequestLine> line = cpdb::ParseRequestLine(text);
  if (!line.ok()) return line.status();
  return cpdb::ServiceRequestFromLine(*line);
}

std::string Render(const cpdb::Result<cpdb::ServiceResponse>& response,
                   size_t line_number) {
  if (!response.ok()) return cpdb::FormatErrorLine(line_number, response.status());
  return cpdb::FormatResponseLine(cpdb::ResponseToFields(*response));
}

bool IsOkLine(const std::string& line) { return line.compare(0, 3, "ok\t") == 0; }

// The reference answers: every distinct request replayed once, in
// first-occurrence order, through a front end with the caches off and one
// engine thread. answers[of[i]] answers request i.
struct Reference {
  std::vector<std::string> answers;
  std::vector<uint32_t> of;
  const std::string& answer(size_t i) const { return answers[of[i]]; }
};

// One pass of a request sequence through a front end.
struct Replay {
  std::vector<int64_t> latency_ns;  // one sample per unit
  // (request index, response line) of every response kept for the gate:
  // all of them when no reference was given, else each one that is not an
  // ok line byte-identical to its reference answer.
  std::vector<std::pair<size_t, std::string>> kept;
  int64_t wall_ns = 0;
  // Client-side stage totals, measured only when traced, and each unit's
  // Execute* time.
  int64_t parse_ns = 0;
  int64_t execute_ns = 0;
  int64_t format_ns = 0;
  std::vector<int64_t> unit_execute_ns;
};

Replay RunSequence(cpdb::ShardedScheduler* front, bool batch_mode,
                   const Requests& requests, const Reference* ref,
                   bool traced) {
  Replay out;
  out.latency_ns.reserve(requests.units());
  std::vector<std::string> rendered;
  const int64_t start = NowNs();
  for (size_t u = 0; u < requests.units(); ++u) {
    const size_t first = requests.unit_begin(u);
    const size_t last = requests.unit_begin(u + 1);
    rendered.clear();
    const int64_t t0 = NowNs();
    int64_t t1 = 0;
    int64_t t2 = 0;
    if (!batch_mode) {
      cpdb::Result<cpdb::ServiceRequest> request =
          ParseRequest(requests.line(first));
      if (traced) t1 = NowNs();
      cpdb::Result<cpdb::ServiceResponse> response =
          request.ok() ? front->ExecuteOne(*request)
                       : cpdb::Result<cpdb::ServiceResponse>(request.status());
      if (traced) t2 = NowNs();
      rendered.push_back(Render(response, first + 1));
    } else {
      // Parse failures keep their slot, so responses stay aligned with the
      // request indices.
      std::vector<cpdb::ServiceRequest> batch;
      std::vector<cpdb::Result<cpdb::ServiceRequest>> parsed;
      for (size_t i = first; i < last; ++i) {
        parsed.push_back(ParseRequest(requests.line(i)));
        if (parsed.back().ok()) batch.push_back(*parsed.back());
      }
      if (traced) t1 = NowNs();
      std::vector<cpdb::Result<cpdb::ServiceResponse>> results =
          front->ExecuteBatch(batch);
      if (traced) t2 = NowNs();
      size_t next = 0;
      for (size_t i = first; i < last; ++i) {
        const cpdb::Result<cpdb::ServiceRequest>& request = parsed[i - first];
        rendered.push_back(request.ok()
                               ? Render(results[next++], i + 1)
                               : cpdb::FormatErrorLine(i + 1, request.status()));
      }
    }
    const int64_t t3 = NowNs();
    out.latency_ns.push_back(t3 - t0);
    if (traced) {
      out.parse_ns += t1 - t0;
      out.execute_ns += t2 - t1;
      out.format_ns += t3 - t2;
      out.unit_execute_ns.push_back(t2 - t1);
    }
    for (size_t i = first; i < last; ++i) {
      std::string& line = rendered[i - first];
      if (ref == nullptr || !IsOkLine(line) || line != ref->answer(i)) {
        out.kept.emplace_back(i, std::move(line));
      }
    }
  }
  out.wall_ns = NowNs() - start;
  return out;
}

// The counters and gauges of an op=metrics scrape, read off the formatted
// response line like any client would.
std::map<std::string, int64_t> Scrape(cpdb::ShardedScheduler* front) {
  std::map<std::string, int64_t> out;
  cpdb::Result<cpdb::ServiceRequest> request = ParseRequest("op=metrics");
  if (!request.ok()) return out;
  const std::string line = Render(front->ExecuteOne(*request), 1);
  cpdb::Result<cpdb::ResponseLine> parsed = cpdb::ParseResponseLine(line);
  if (!parsed.ok()) return out;
  for (const cpdb::RequestField& f : parsed->fields) {
    char* end = nullptr;
    const long long v = std::strtoll(f.value.c_str(), &end, 10);
    if (!f.value.empty() && *end == '\0') out[f.name] = v;
  }
  return out;
}

struct SetUp {
  std::unique_ptr<cpdb::ShardedScheduler> front;
  double setup_s = 0;
  double install_ms = 0;
  double warmup_s = 0;
  std::string error;
};

// One set-up: a fresh front end, the snapshot read and installed, and the
// warm-up pass, whose answers must all be ok lines.
SetUp BuildFrontEnd(const WorkloadSpec& spec, const std::string& dir,
                    const Requests& warmup) {
  SetUp s;
  const int64_t t0 = NowNs();
  s.front = MakeFrontEnd(spec, kEngineThreads, /*use_cache=*/true);
  cpdb::Result<cpdb::CatalogSnapshot> snapshot =
      cpdb::ReadCatalogSnapshotFile(dir + "/catalog.snap");
  cpdb::Status installed =
      snapshot.ok() ? s.front->InstallSnapshot(*snapshot) : snapshot.status();
  if (!installed.ok()) {
    s.error = "snapshot install: " + installed.ToString();
    return s;
  }
  const int64_t t1 = NowNs();
  Replay warm = RunSequence(s.front.get(), spec.batch_mode, warmup, nullptr,
                            /*traced=*/false);
  const int64_t t2 = NowNs();
  for (const auto& [index, line] : warm.kept) {
    if (!IsOkLine(line)) {
      s.error = "warm-up answered: " + line;
      return s;
    }
  }
  s.install_ms = 1e-6 * static_cast<double>(t1 - t0);
  s.warmup_s = 1e-9 * static_cast<double>(t2 - t1);
  s.setup_s = 1e-9 * static_cast<double>(t2 - t0);
  return s;
}

// ---------------------------------------------------------------------------
// Correctness gate

bool IsStats(const std::string& request) {
  return request.compare(0, 8, "op=stats") == 0;
}

std::string BuildReference(const WorkloadSpec& spec,
                           const cpdb::CatalogSnapshot& snapshot,
                           const Requests& requests, Reference* ref) {
  std::unique_ptr<cpdb::ShardedScheduler> front =
      MakeFrontEnd(spec, /*threads=*/1, /*use_cache=*/false);
  cpdb::Status installed = front->InstallSnapshot(snapshot);
  if (!installed.ok()) return "reference install: " + installed.ToString();
  std::unordered_map<std::string, uint32_t> seen;
  for (size_t i = 0; i < requests.lines(); ++i) {
    const std::string text = requests.line(i);
    auto [it, inserted] =
        seen.emplace(text, static_cast<uint32_t>(ref->answers.size()));
    if (inserted) {
      cpdb::Result<cpdb::ServiceRequest> request = ParseRequest(text);
      ref->answers.push_back(
          Render(request.ok() ? front->ExecuteOne(*request)
                              : cpdb::Result<cpdb::ServiceResponse>(
                                    request.status()),
                 i + 1));
    }
    ref->of.push_back(it->second);
  }
  return "";
}

// Corrupts the first topk reference answer: its expected distance drifts
// by a relative 1e-6, far beyond the gate's tolerance.
void PerturbOneReference(const Requests& requests, Reference* ref) {
  for (size_t i = 0; i < requests.lines(); ++i) {
    if (requests.line(i).compare(0, 8, "op=topk ") != 0) continue;
    std::string& answer = ref->answers[ref->of[i]];
    cpdb::Result<cpdb::ResponseLine> line = cpdb::ParseResponseLine(answer);
    if (!line.ok() || !line->ok) continue;
    for (cpdb::RequestField& f : line->fields) {
      if (f.name == "expected") {
        f.value = cpdb::FormatRoundTripDouble(
            std::strtod(f.value.c_str(), nullptr) * (1 + 1e-6) + 1e-9);
      }
    }
    answer = cpdb::FormatResponseLine(line->fields);
    return;
  }
}

// Checks the responses a replay kept; returns the number that failed. An
// error line fails even when the reference gave the same error:
// CompareResponses accepts only two ok lines.
int64_t Check(const Requests& requests, const Reference& ref,
              const Replay& replay) {
  int64_t failed = 0;
  for (const auto& [index, got] : replay.kept) {
    const std::string text = requests.line(index);
    // Stats counters differ with the caches off by design; only the answer
    // being an ok line is checked.
    const std::string diff =
        IsStats(text) ? (IsOkLine(got) ? "" : "stats answered: " + got)
                      : CompareResponses(got, ref.answer(index));
    if (diff.empty()) continue;
    if (failed < 5) {
      std::fprintf(stderr, "mismatch: request '%s': %s\n", text.c_str(),
                   diff.c_str());
    }
    ++failed;
  }
  return failed;
}

// ---------------------------------------------------------------------------
// Per-layer measurements

// Metric name -> (value, unit).
using Metrics = std::map<std::string, std::pair<double, std::string>>;

// Mean seconds per call of fn(i) over `calls` calls cycling i over
// [0, items).
template <typename Fn>
double MeanSeconds(int calls, int items, Fn fn) {
  const int64_t t0 = NowNs();
  for (int c = 0; c < calls; ++c) fn(c % items);
  return 1e-9 * static_cast<double>(NowNs() - t0) / calls;
}

// Isolated calls into the model, core and poly layers on the workload's own
// shapes, outside the timed sequence. Call counts are fixed per workload so
// the figures compare across runs.
void IsolatedLayers(const WorkloadSpec& spec,
                    const cpdb::CatalogSnapshot& snapshot, Metrics* m) {
  std::vector<std::shared_ptr<const cpdb::AndXorTree>> trees;
  for (const cpdb::SnapshotTree& t : snapshot.trees) trees.push_back(t.tree);
  const int n = static_cast<int>(trees.size());
  const int k_min = spec.ks.front();
  const int k_max = spec.ks.back();
  cpdb::EngineOptions engine_options;
  engine_options.num_threads = kEngineThreads;
  cpdb::Engine engine(engine_options);

  const int identity_calls = std::max(n, 256);
  std::vector<cpdb::AndXorTree> copies;
  for (int c = 0; c < identity_calls; ++c) copies.push_back(*trees[c % n]);
  (*m)["model.identity_us"] = {
      1e6 * MeanSeconds(identity_calls, identity_calls,
                        [&](int i) {
                          if (!cpdb::TreeCatalog::ComputeIdentity(
                                   std::move(copies[i]))
                                   .ok()) {
                            std::abort();
                          }
                        }),
      "us"};
  (*m)["core.rank_dist_ms"] = {
      1e3 * MeanSeconds(std::min(n, 8), n,
                        [&](int i) {
                          engine.ComputeRankDistribution(*trees[i], k_max);
                        }),
      "ms"};
  (*m)["core.kendall_ms"] = {
      1e3 * MeanSeconds(2, n,
                        [&](int i) {
                          engine.ConsensusTopK(*trees[i], k_min,
                                               cpdb::TopKMetric::kKendall);
                        }),
      "ms"};
  (*m)["core.symdiff_median_ms"] = {
      1e3 * MeanSeconds(std::min(n, 4), n,
                        [&](int i) {
                          engine.ConsensusTopK(*trees[i], k_max,
                                               cpdb::TopKMetric::kSymDiff,
                                               cpdb::TopKAnswer::kMedian);
                        }),
      "ms"};
  std::vector<cpdb::RankDistribution> dists;
  for (int i = 0; i < std::min(n, 8); ++i) {
    dists.push_back(engine.ComputeRankDistribution(*trees[i], k_max));
  }
  (*m)["core.footrule_tail_us"] = {
      1e6 * MeanSeconds(64, static_cast<int>(dists.size()),
                        [&](int i) {
                          engine.ConsensusTopKWithDist(
                              *trees[i], dists[i], cpdb::TopKMetric::kFootrule);
                        }),
      "us"};

  // The convolution kernel alone at the fold's geometry (max_dx = k,
  // max_dy = 1) on dense operands: the rate the fold is read against.
  const int row = (k_max + 1) * 2;
  std::mt19937_64 rng(7);
  std::vector<double> a(row), b(row), out(row);
  for (int i = 0; i < row; ++i) {
    a[i] = 0.5 + static_cast<double>(rng() % 1000) / 1000.0;
    b[i] = 0.5 + static_cast<double>(rng() % 1000) / 1000.0;
  }
  const double madds = 3.0 * (k_max + 1) * (k_max + 2) / 2.0;
  double sink = 0;
  const double per_call =
      MeanSeconds(static_cast<int>(2e7 / madds), 1, [&](int) {
        std::fill(out.begin(), out.end(), 0.0);
        cpdb::ConvolveRowsTruncated(a.data(), b.data(), out.data(), k_max, 1);
        sink += out[row - 1];
      });
  (*m)["poly.convolve_ns_per_madd"] = {1e9 * per_call / madds, "ns"};
  if (sink < 0) std::abort();  // keeps the kernel's result observable
}

// The server's side of a traced replay: the trace_<stage>_ns fields summed
// per stage, and per unit the sum of its spans and the largest
// trace_total_ns of its responses. In batch mode the fused topk slots of
// one ExecuteBatch all report the one shared EvaluateConsensusBatch
// duration as their fold span, so it counts once per batch.
struct ServerTrace {
  std::map<std::string, int64_t> spans;
  std::vector<int64_t> unit_spans_ns;
  std::vector<int64_t> unit_max_total_ns;
};

ServerTrace ServerSpans(const Requests& requests, const Replay& traced,
                        bool batch_mode) {
  ServerTrace out;
  out.unit_spans_ns.assign(requests.units(), 0);
  out.unit_max_total_ns.assign(requests.units(), 0);
  size_t unit = 0;
  bool fused_fold_counted = false;
  for (const auto& [index, response] : traced.kept) {
    while (index >= requests.unit_begin(unit + 1)) {
      ++unit;
      fused_fold_counted = false;
    }
    cpdb::Result<cpdb::ResponseLine> line = cpdb::ParseResponseLine(response);
    if (!line.ok() || !line->ok) continue;
    const std::string* op = line->Find("op");
    const bool fused = batch_mode && op != nullptr && *op == "topk";
    for (const cpdb::RequestField& f : line->fields) {
      const size_t n = f.name.size();
      if (f.name.compare(0, 6, "trace_") != 0 || n < 10 ||
          f.name.compare(n - 3, 3, "_ns") != 0) {
        continue;
      }
      const int64_t nanos = std::strtoll(f.value.c_str(), nullptr, 10);
      if (f.name == "trace_total_ns") {
        out.unit_max_total_ns[unit] =
            std::max(out.unit_max_total_ns[unit], nanos);
        continue;
      }
      const std::string stage = f.name.substr(6, n - 9);
      if (fused && stage == "fold") {
        if (fused_fold_counted) continue;
        fused_fold_counted = true;
      }
      out.spans[stage] += nanos;
      out.unit_spans_ns[unit] += nanos;
    }
  }
  return out;
}

int64_t Get(const std::map<std::string, int64_t>& m, const std::string& name) {
  auto it = m.find(name);
  return it == m.end() ? 0 : it->second;
}

double HitRatio(const std::map<std::string, int64_t>& before,
                const std::map<std::string, int64_t>& after,
                const std::string& prefix) {
  const double hits = static_cast<double>(Get(after, prefix + "hits_total") -
                                          Get(before, prefix + "hits_total"));
  const double misses =
      static_cast<double>(Get(after, prefix + "misses_total") -
                          Get(before, prefix + "misses_total"));
  return hits + misses > 0 ? hits / (hits + misses) : 0.0;
}

// ---------------------------------------------------------------------------

void PrintResult(bool correct, int64_t attempted, int64_t failed,
                 const Metrics& metrics) {
  std::string json = "{\"correct\": ";
  json += correct ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(attempted);
  json += ", \"failed\": " + std::to_string(failed);
  json += ", \"metrics\": {";
  bool first = true;
  for (const auto& [name, value] : metrics) {
    char number[64];
    std::snprintf(number, sizeof(number), "%.17g", value.first);
    json += (first ? "\"" : ", \"") + name + "\": {\"value\": " + number +
            ", \"unit\": \"" + value.second + "\"}";
    first = false;
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
}

// The traced replay's per-layer split. The stage self times — client
// parse and format, dispatch self, and the server's spans — sum to the
// units' client-measured time by construction, since dispatch self is
// Execute* time minus the spans. What is checked against measurement:
//   * the units' time covers the traced wall time within kStageTolerance,
//     so no untimed work sits between units;
//   * in every unit, the server's spans and each response's
//     trace_total_ns fit inside the client-measured Execute* time, so no
//     unit's dispatch self time is negative.
// Returns false when either check fails.
bool TracedLayers(const WorkloadSpec& spec, const std::string& dir,
                  const Sequence& seq, double untraced_rps, Replay* traced,
                  Metrics* metrics) {
  SetUp fresh = BuildFrontEnd(spec, dir, seq.warmup);
  if (!fresh.error.empty()) {
    std::fprintf(stderr, "set-up failed: %s\n", fresh.error.c_str());
    return false;
  }
  const Requests requests = seq.timed.WithSuffix(" trace=on");
  *traced = RunSequence(fresh.front.get(), spec.batch_mode, requests, nullptr,
                        /*traced=*/true);
  ServerTrace server = ServerSpans(requests, *traced, spec.batch_mode);
  std::map<std::string, int64_t>& spans = server.spans;
  size_t over_attributed = 0;
  for (size_t u = 0; u < requests.units(); ++u) {
    const int64_t execute = traced->unit_execute_ns[u];
    if (server.unit_spans_ns[u] > execute ||
        server.unit_max_total_ns[u] > execute) {
      ++over_attributed;
    }
  }
  const double n = static_cast<double>(requests.lines());
  const double server_spans = static_cast<double>(
      spans["parse"] + spans["catalog"] + spans["cache"] + spans["fold"]);
  const double dispatch_self =
      static_cast<double>(traced->execute_ns) - server_spans;
  const double wall = static_cast<double>(traced->wall_ns);
  const double coverage =
      static_cast<double>(traced->parse_ns + traced->execute_ns +
                          traced->format_ns) /
      wall;
  auto us = [&](double ns) { return 1e-3 * ns / n; };
  (*metrics)["io.parse_us"] = {
      us(static_cast<double>(traced->parse_ns + spans["parse"])), "us"};
  (*metrics)["io.format_us"] = {us(static_cast<double>(traced->format_ns)), "us"};
  (*metrics)["service.dispatch_self_us"] = {us(dispatch_self), "us"};
  (*metrics)["service.catalog_us"] = {us(static_cast<double>(spans["catalog"])), "us"};
  (*metrics)["service.cache_us"] = {us(static_cast<double>(spans["cache"])), "us"};
  (*metrics)["engine.fold_us"] = {us(static_cast<double>(spans["fold"])), "us"};
  (*metrics)["obs.trace_overhead_frac"] = {
      1.0 - n / (1e-9 * wall) / untraced_rps, "ratio"};
  std::printf("traced_units=%zu units_over_attributed=%zu unit_time_coverage=%.5f\n",
              requests.units(), over_attributed, coverage);
  const bool ok =
      over_attributed == 0 && std::fabs(coverage - 1) <= kStageTolerance;
  if (!ok) {
    std::fprintf(stderr,
                 "stage self times do not add up: %zu units with spans beyond "
                 "their Execute* time, unit time covers %.4f of the wall\n",
                 over_attributed, coverage);
  }
  return ok;
}

int Run(const Args& args, const WorkloadSpec& spec) {
  Sequence seq;
  const std::string read_error = ReadSequence(args.dir, &seq);
  cpdb::Result<cpdb::CatalogSnapshot> snapshot =
      cpdb::ReadCatalogSnapshotFile(args.dir + "/catalog.snap");
  if (!read_error.empty() || seq.timed.lines() == 0 || !snapshot.ok()) {
    std::fprintf(stderr, "inputs: %s %s\n", read_error.c_str(),
                 snapshot.ok() ? "" : snapshot.status().ToString().c_str());
    return 1;
  }
  std::printf(
      "provenance {\"commit\": \"%s\", \"compiler\": \"%s\", \"flags\": "
      "\"%s\", \"build_type\": \"%s\", \"nproc\": %u, \"engine_threads\": "
      "%d, \"shards\": %d, \"cache_budget_bytes\": %lld, \"seed\": %llu, "
      "\"workload\": \"%s\", \"seconds\": %d, \"smoke\": %s}\n",
      args.commit.c_str(), SERVEBENCH_COMPILER, SERVEBENCH_FLAGS,
      SERVEBENCH_BUILD_TYPE, std::thread::hardware_concurrency(),
      kEngineThreads, kShards, static_cast<long long>(spec.cache_budget),
      static_cast<unsigned long long>(args.seed), spec.name.c_str(),
      args.seconds, args.smoke ? "true" : "false");

  // Set-up, several times, in three groups spread over the run: before the
  // reference replay, before the timed sequence and after it. The host's
  // speed drifts over seconds, and the median over the whole run follows
  // it less than a median over one few-second window. The last front end
  // of the middle group serves the timed sequence.
  std::vector<double> setups, installs, warmups;
  SetUp live;
  auto set_up = [&](int reps) {
    for (int rep = 0; rep < reps; ++rep) {
      live = SetUp();  // the previous front end is gone before the next
      live = BuildFrontEnd(spec, args.dir, seq.warmup);
      if (!live.error.empty()) {
        std::fprintf(stderr, "set-up failed: %s\n", live.error.c_str());
        return false;
      }
      setups.push_back(live.setup_s);
      installs.push_back(live.install_ms);
      warmups.push_back(live.warmup_s);
    }
    return true;
  };
  const int reps = args.smoke ? 3 : spec.setup_reps;
  const int group = reps / 3;
  if (!set_up(group)) return 1;
  live = SetUp();

  // The reference answers come before the timed replay, so that it keeps
  // only the responses that are not byte-identical ok answers.
  Reference ref;
  const std::string ref_error = BuildReference(spec, *snapshot, seq.timed, &ref);
  if (!ref_error.empty()) {
    std::fprintf(stderr, "%s\n", ref_error.c_str());
    return 1;
  }
  for (size_t i = 0; i < seq.timed.lines(); ++i) {
    if (seq.timed.line(i).compare(0, 8, "op=topk ") == 0) {
      const std::string self_test = SelfTestGate(ref.answer(i));
      if (!self_test.empty()) {
        std::fprintf(stderr, "%s\n", self_test.c_str());
        return 1;
      }
      break;
    }
  }
  if (args.perturb) PerturbOneReference(seq.timed, &ref);

  if (!set_up(reps - 2 * group)) return 1;

  // The timed sequence, untraced.
  const std::map<std::string, int64_t> before = Scrape(live.front.get());
  const double cpu0 = ProcessCpuSeconds();
  const Replay timed = RunSequence(live.front.get(), spec.batch_mode,
                                   seq.timed, &ref, /*traced=*/false);
  const double cpu1 = ProcessCpuSeconds();
  const double peak_rss_mb = PeakRssMb();
  const std::map<std::string, int64_t> after = Scrape(live.front.get());
  live = SetUp();
  if (!set_up(group)) return 1;
  live = SetUp();

  const int64_t requests = static_cast<int64_t>(seq.timed.lines());
  const double wall_s = 1e-9 * static_cast<double>(timed.wall_ns);
  const double throughput = static_cast<double>(requests) / wall_s;
  std::vector<int64_t> sorted = timed.latency_ns;
  std::sort(sorted.begin(), sorted.end());
  const double p99 = Percentile(sorted, 0.99);
  const size_t beyond_p99 = static_cast<size_t>(
      sorted.end() - std::upper_bound(sorted.begin(), sorted.end(),
                                      static_cast<int64_t>(p99)));

  Metrics metrics;
  bool stages_ok = true;
  Replay traced;
  if (!args.trace) {
    metrics["throughput_rps"] = {throughput, "1/s"};
    metrics["lat_p50_ms"] = {1e-6 * Percentile(sorted, 0.50), "ms"};
    metrics["lat_p99_ms"] = {1e-6 * p99, "ms"};
    metrics["setup_s"] = {Median(setups), "s"};
    metrics["peak_rss_mb"] = {peak_rss_mb, "MB"};
  } else {
    IsolatedLayers(spec, *snapshot, &metrics);
    stages_ok = TracedLayers(spec, args.dir, seq, throughput, &traced, &metrics);
    metrics["service.rankdist_hit_ratio"] = {
        HitRatio(before, after, "cpdb_rankdist_cache_"), "ratio"};
    metrics["service.marginals_hit_ratio"] = {
        HitRatio(before, after, "cpdb_marginals_cache_"), "ratio"};
    metrics["service.evictions"] = {
        static_cast<double>(Get(after, "cpdb_rankdist_cache_evictions_total") -
                            Get(before, "cpdb_rankdist_cache_evictions_total") +
                            Get(after, "cpdb_marginals_cache_evictions_total") -
                            Get(before, "cpdb_marginals_cache_evictions_total")),
        "count"};
    metrics["service.cache_bytes"] = {
        static_cast<double>(Get(after, "cpdb_rankdist_cache_bytes") +
                            Get(after, "cpdb_marginals_cache_bytes")),
        "bytes"};
    metrics["service.snapshot_install_ms"] = {Median(installs), "ms"};
    metrics["service.warmup_s"] = {Median(warmups), "s"};
    metrics["engine.cpu_per_wall"] = {(cpu1 - cpu0) / wall_s, "ratio"};
    metrics["model.fold_compiles"] = {
        static_cast<double>(Get(after, "cpdb_fold_compiles_total") -
                            Get(before, "cpdb_fold_compiles_total")),
        "count"};
    metrics["poly.arena_highwater_bytes"] = {
        static_cast<double>(Get(after, "cpdb_poly_arena_highwater_bytes")),
        "bytes"};
  }

  // The correctness gate over every timed response.
  int64_t checked = requests;
  int64_t failed = Check(seq.timed, ref, timed);
  if (args.trace) {
    checked += requests;
    failed += Check(seq.timed, ref, traced);
  }
  std::printf(
      "workload=%s mode=%s requests=%lld samples=%zu beyond_p99=%zu "
      "sent=%lld failed=%lld wall_s=%.3f stage_tolerance=%.2f "
      "gate_rel_tol=%g\n",
      spec.name.c_str(), spec.batch_mode ? "batch" : "stream",
      static_cast<long long>(requests), sorted.size(), beyond_p99,
      static_cast<long long>(checked), static_cast<long long>(failed), wall_s,
      kStageTolerance, kRelTol);
  const bool correct = failed == 0 && stages_ok;
  PrintResult(correct, checked, failed, metrics);
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace servebench

int main(int argc, char** argv) {
  servebench::Args args;
  if (!servebench::ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: servebench_driver gen|run --workload W --seed S "
                 "--seconds T --dir D [--trace 0|1] [--smoke] [--perturb] "
                 "[--commit C]\n");
    return 2;
  }
  servebench::WorkloadSpec spec;
  if (!servebench::LookupWorkload(args.workload, args.smoke, &spec)) {
    std::fprintf(stderr, "unknown workload '%s'\n", args.workload.c_str());
    return 2;
  }
  if (args.mode == "gen") {
    const std::string error =
        servebench::GenerateInputs(spec, args.seed, args.seconds, args.dir);
    if (!error.empty()) {
      std::fprintf(stderr, "gen: %s\n", error.c_str());
      return 1;
    }
    return 0;
  }
  return servebench::Run(args, spec);
}
