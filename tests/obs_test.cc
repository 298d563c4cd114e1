// Copyright 2026 The ConsensusDB Authors
//
// Tests for the observability layer (src/obs/): the injectable clock, the
// log2-bucketed latency histogram, the metrics registry, and both export
// formats — plus the end-to-end property the subsystem exists to uphold:
// with an injected FakeClock, every trace field and histogram value a
// scheduler produces is exactly reproducible, and trace output never
// changes the answer bytes.

#include "obs/metrics.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <map>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "io/request_protocol.h"
#include "io/tree_text.h"
#include "obs/clock.h"
#include "obs/histogram.h"
#include "service/sharded_scheduler.h"

namespace cpdb {
namespace {

// ---------------------------------------------------------------------------
// Clock
// ---------------------------------------------------------------------------

TEST(ClockTest, SteadyClockIsMonotoneNondecreasing) {
  const Clock* clock = SteadyClock::Instance();
  int64_t previous = clock->NowNanos();
  for (int i = 0; i < 1000; ++i) {
    const int64_t now = clock->NowNanos();
    EXPECT_GE(now, previous);
    previous = now;
  }
}

TEST(ClockTest, FakeClockSetAndAdvance) {
  FakeClock clock(100);
  EXPECT_EQ(clock.NowNanos(), 100);
  EXPECT_EQ(clock.NowNanos(), 100);  // fixed: reads do not move it
  clock.Advance(50);
  EXPECT_EQ(clock.NowNanos(), 150);
  clock.Set(7);
  EXPECT_EQ(clock.NowNanos(), 7);
}

TEST(ClockTest, FakeClockAutoAdvanceTicksPerRead) {
  FakeClock clock(1000);
  clock.set_auto_advance(10);
  // N reads observe start, start+step, ..., start+(N-1)*step.
  EXPECT_EQ(clock.NowNanos(), 1000);
  EXPECT_EQ(clock.NowNanos(), 1010);
  EXPECT_EQ(clock.NowNanos(), 1020);
  clock.set_auto_advance(0);
  EXPECT_EQ(clock.NowNanos(), 1030);
  EXPECT_EQ(clock.NowNanos(), 1030);
}

TEST(ClockTest, StopwatchMeasuresFakeClockSpans) {
  FakeClock clock(500);
  Stopwatch watch(&clock);
  EXPECT_TRUE(watch.enabled());
  EXPECT_EQ(watch.ElapsedNanos(), 0);
  clock.Advance(123);
  EXPECT_EQ(watch.ElapsedNanos(), 123);
  clock.Advance(1);
  EXPECT_EQ(watch.ElapsedNanos(), 124);
}

TEST(ClockTest, NullStopwatchIsInertAndBackwardClockClampsToZero) {
  // The metrics-off gate: a null-clock stopwatch reads nothing, returns 0.
  Stopwatch inert(nullptr);
  EXPECT_FALSE(inert.enabled());
  EXPECT_EQ(inert.ElapsedNanos(), 0);

  // A clock stepping backwards (never the real SteadyClock, but FakeClock
  // can) must not surface a negative duration.
  FakeClock clock(1000);
  Stopwatch watch(&clock);
  clock.Set(1);
  EXPECT_EQ(watch.ElapsedNanos(), 0);
}

// ---------------------------------------------------------------------------
// Histogram buckets
// ---------------------------------------------------------------------------

TEST(HistogramTest, BucketBoundariesArePowersOfTwo) {
  // Bucket 0 covers d <= 1 ns (including the clamped 0).
  EXPECT_EQ(LatencyBucketIndex(0), 0);
  EXPECT_EQ(LatencyBucketIndex(1), 0);
  EXPECT_EQ(LatencyBucketIndex(2), 1);
  // Bucket i covers 2^(i-1) < d <= 2^i for every interior boundary.
  for (int i = 1; i < kLatencyHistogramBuckets - 1; ++i) {
    const int64_t upper = int64_t{1} << i;
    EXPECT_EQ(LatencyBucketIndex(upper), i) << "upper bound of bucket " << i;
    EXPECT_EQ(LatencyBucketIndex(upper - 1), i == 1 ? 0 : i)
        << "interior of bucket " << i;
    EXPECT_EQ(LatencyBucketIndex((int64_t{1} << (i - 1)) + 1), i)
        << "lower edge of bucket " << i;
  }
  // Everything beyond 2^38 ns lands in the overflow bucket.
  const int64_t last_finite = int64_t{1} << (kLatencyHistogramBuckets - 2);
  EXPECT_EQ(LatencyBucketIndex(last_finite), kLatencyHistogramBuckets - 2);
  EXPECT_EQ(LatencyBucketIndex(last_finite + 1), kLatencyHistogramBuckets - 1);
  EXPECT_EQ(LatencyBucketIndex(std::numeric_limits<int64_t>::max()),
            kLatencyHistogramBuckets - 1);
}

TEST(HistogramTest, BucketUpperBounds) {
  for (int i = 0; i < kLatencyHistogramBuckets - 1; ++i) {
    EXPECT_EQ(LatencyBucketUpperNanos(i), int64_t{1} << i);
  }
  EXPECT_EQ(LatencyBucketUpperNanos(kLatencyHistogramBuckets - 1), -1);
}

TEST(HistogramTest, RecordAndSnapshot) {
  LatencyHistogram histogram;
  HistogramSnapshot empty = histogram.Snapshot();
  EXPECT_EQ(empty.count, 0);
  EXPECT_EQ(empty.sum_nanos, 0);
  EXPECT_EQ(empty.min_nanos, 0);
  EXPECT_EQ(empty.max_nanos, 0);

  histogram.Record(1);
  histogram.Record(3);
  histogram.Record(3);
  histogram.Record(1000);
  histogram.Record(-5);  // clamped to 0 → bucket 0
  HistogramSnapshot snap = histogram.Snapshot();
  EXPECT_EQ(snap.count, 5);
  EXPECT_EQ(snap.sum_nanos, 1 + 3 + 3 + 1000);
  EXPECT_EQ(snap.min_nanos, 0);
  EXPECT_EQ(snap.max_nanos, 1000);
  EXPECT_EQ(snap.buckets[LatencyBucketIndex(1)], 2);  // the 1 and clamped -5
  EXPECT_EQ(snap.buckets[LatencyBucketIndex(3)], 2);
  EXPECT_EQ(snap.buckets[LatencyBucketIndex(1000)], 1);
}

TEST(HistogramTest, MergeEqualsRecordingBothMultisets) {
  const std::vector<int64_t> left = {1, 5, 17, 100000, 7};
  const std::vector<int64_t> right = {2, 5, 1 << 20, 3};

  LatencyHistogram a, b, combined;
  for (int64_t v : left) {
    a.Record(v);
    combined.Record(v);
  }
  for (int64_t v : right) {
    b.Record(v);
    combined.Record(v);
  }

  HistogramSnapshot merged = a.Snapshot();
  merged.Merge(b.Snapshot());
  EXPECT_EQ(merged, combined.Snapshot());

  // Commutative: the other order produces the identical snapshot.
  HistogramSnapshot reversed = b.Snapshot();
  reversed.Merge(a.Snapshot());
  EXPECT_EQ(reversed, merged);
}

TEST(HistogramTest, MergeWithEmptyIsIdentityBothWays) {
  LatencyHistogram histogram;
  histogram.Record(42);
  histogram.Record(99);

  HistogramSnapshot snap = histogram.Snapshot();
  HistogramSnapshot merged = snap;
  merged.Merge(HistogramSnapshot{});
  EXPECT_EQ(merged, snap);

  HistogramSnapshot other{};
  other.Merge(snap);
  EXPECT_EQ(other, snap);
}

// The histogram's thread-safety contract under real threads — this is one
// of the suites the TSan CI job watches.
TEST(HistogramTest, ConcurrentRecordsAllLand) {
  LatencyHistogram histogram;
  constexpr int kThreads = 8;
  constexpr int kPerThread = 2000;
  std::vector<std::thread> workers;
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&histogram, t] {
      for (int i = 0; i < kPerThread; ++i) {
        histogram.Record(int64_t{1} << (t % 12));
      }
    });
  }
  for (std::thread& worker : workers) worker.join();

  HistogramSnapshot snap = histogram.Snapshot();
  EXPECT_EQ(snap.count, int64_t{kThreads} * kPerThread);
  int64_t bucket_total = 0;
  for (int64_t b : snap.buckets) bucket_total += b;
  EXPECT_EQ(bucket_total, snap.count);
  EXPECT_EQ(snap.min_nanos, 1);
  EXPECT_EQ(snap.max_nanos, int64_t{1} << 7);
}

// ---------------------------------------------------------------------------
// Registry and snapshot merge
// ---------------------------------------------------------------------------

TEST(MetricsRegistryTest, SnapshotIsSortedAndFindWorks) {
  MetricsRegistry registry;
  Counter* zebra = registry.AddCounter("zebra_total", "z");
  Gauge* alpha = registry.AddGauge("alpha_bytes", "a");
  LatencyHistogram* middle = registry.AddHistogram("middle_ns", "m");

  zebra->Increment(3);
  alpha->Set(17);
  middle->Record(5);

  MetricsSnapshot snap = registry.Snapshot();
  ASSERT_EQ(snap.samples.size(), 3u);
  EXPECT_EQ(snap.samples[0].name, "alpha_bytes");
  EXPECT_EQ(snap.samples[1].name, "middle_ns");
  EXPECT_EQ(snap.samples[2].name, "zebra_total");

  const MetricSample* found = snap.Find("zebra_total");
  ASSERT_NE(found, nullptr);
  EXPECT_EQ(found->kind, MetricSample::Kind::kCounter);
  EXPECT_EQ(found->value, 3);
  EXPECT_EQ(snap.Find("nope"), nullptr);

  const MetricSample* hist = snap.Find("middle_ns");
  ASSERT_NE(hist, nullptr);
  EXPECT_EQ(hist->kind, MetricSample::Kind::kHistogram);
  EXPECT_EQ(hist->hist.count, 1);
}

TEST(MetricsRegistryTest, GaugeUpdateMaxIsHighWater) {
  Gauge gauge;
  gauge.UpdateMax(10);
  EXPECT_EQ(gauge.value(), 10);
  gauge.UpdateMax(5);  // lower: no change
  EXPECT_EQ(gauge.value(), 10);
  gauge.UpdateMax(11);
  EXPECT_EQ(gauge.value(), 11);
}

TEST(MetricsSnapshotTest, MergeFromSumsAndUnions) {
  MetricsRegistry left_registry;
  left_registry.AddCounter("shared_total", "s")->Increment(2);
  left_registry.AddGauge("left_only", "l")->Set(7);
  left_registry.AddHistogram("lat_ns", "h")->Record(3);

  MetricsRegistry right_registry;
  right_registry.AddCounter("shared_total", "s")->Increment(5);
  right_registry.AddGauge("right_only", "r")->Set(9);
  LatencyHistogram* right_hist = right_registry.AddHistogram("lat_ns", "h");
  right_hist->Record(3);
  right_hist->Record(1000);

  MetricsSnapshot merged = left_registry.Snapshot();
  merged.MergeFrom(right_registry.Snapshot());

  ASSERT_EQ(merged.samples.size(), 4u);
  // Sorted union of names.
  EXPECT_EQ(merged.samples[0].name, "lat_ns");
  EXPECT_EQ(merged.samples[1].name, "left_only");
  EXPECT_EQ(merged.samples[2].name, "right_only");
  EXPECT_EQ(merged.samples[3].name, "shared_total");

  EXPECT_EQ(merged.Find("shared_total")->value, 7);
  EXPECT_EQ(merged.Find("left_only")->value, 7);
  EXPECT_EQ(merged.Find("right_only")->value, 9);
  const MetricSample* hist = merged.Find("lat_ns");
  EXPECT_EQ(hist->hist.count, 3);
  EXPECT_EQ(hist->hist.sum_nanos, 3 + 3 + 1000);
  EXPECT_EQ(hist->hist.buckets[LatencyBucketIndex(3)], 2);

  // Commutative: merging the other way produces identical samples.
  MetricsSnapshot reversed = right_registry.Snapshot();
  reversed.MergeFrom(left_registry.Snapshot());
  ASSERT_EQ(reversed.samples.size(), merged.samples.size());
  for (size_t i = 0; i < merged.samples.size(); ++i) {
    EXPECT_EQ(reversed.samples[i].name, merged.samples[i].name);
    EXPECT_EQ(reversed.samples[i].value, merged.samples[i].value);
    EXPECT_EQ(reversed.samples[i].hist, merged.samples[i].hist);
  }
}

// ---------------------------------------------------------------------------
// kv export
// ---------------------------------------------------------------------------

TEST(MetricsExportTest, KvPairsAreDeterministicAndElideZeroBuckets) {
  MetricsRegistry registry;
  registry.AddCounter("c_total", "c")->Increment(4);
  registry.AddGauge("g_bytes", "g")->Set(12);
  LatencyHistogram* hist = registry.AddHistogram("h_ns", "h");
  hist->Record(1);
  hist->Record(1);
  hist->Record(300);

  auto pairs = MetricsToKvPairs(registry.Snapshot());
  std::vector<std::pair<std::string, std::string>> expected = {
      {"c_total", "4"},
      {"g_bytes", "12"},
      {"h_ns_count", "3"},
      {"h_ns_sum_ns", "302"},
      {"h_ns_min_ns", "1"},
      {"h_ns_max_ns", "300"},
      {"h_ns_b0", "2"},
      {"h_ns_b" + std::to_string(LatencyBucketIndex(300)), "1"},
  };
  EXPECT_EQ(pairs, expected);

  // Twice in a row: bitwise identical.
  EXPECT_EQ(MetricsToKvPairs(registry.Snapshot()), pairs);
}

// ---------------------------------------------------------------------------
// Prometheus export
// ---------------------------------------------------------------------------

// A miniature exposition-format checker: every metric has exactly one HELP
// and one TYPE comment (HELP first), histogram bucket series are cumulative
// and nondecreasing, the mandatory le="+Inf" bucket equals _count, and
// every non-comment line is `name[{labels}] value`.
void CheckPrometheusExposition(const std::string& text) {
  std::istringstream stream(text);
  std::string line;
  std::map<std::string, int> help_seen, type_seen;
  std::string current_hist;
  int64_t previous_bucket = 0;
  int64_t inf_value = -1;
  std::map<std::string, int64_t> hist_counts;
  std::map<std::string, int64_t> hist_inf;

  while (std::getline(stream, line)) {
    ASSERT_FALSE(line.empty()) << "blank line in exposition";
    if (line.rfind("# HELP ", 0) == 0) {
      const std::string name = line.substr(7, line.find(' ', 7) - 7);
      EXPECT_EQ(++help_seen[name], 1) << "duplicate HELP for " << name;
      EXPECT_EQ(type_seen.count(name), 0u) << "HELP must precede TYPE";
      continue;
    }
    if (line.rfind("# TYPE ", 0) == 0) {
      const std::string name = line.substr(7, line.find(' ', 7) - 7);
      EXPECT_EQ(++type_seen[name], 1) << "duplicate TYPE for " << name;
      EXPECT_EQ(help_seen.count(name), 1u) << "TYPE without HELP for " << name;
      continue;
    }
    ASSERT_NE(line[0], '#') << "unknown comment: " << line;

    const size_t space = line.rfind(' ');
    ASSERT_NE(space, std::string::npos) << line;
    const std::string sample = line.substr(0, space);
    const int64_t value = std::stoll(line.substr(space + 1));
    EXPECT_GE(value, 0) << line;

    const size_t brace = sample.find('{');
    if (brace != std::string::npos) {
      // A histogram bucket series: name_bucket{le="..."}.
      const std::string name = sample.substr(0, brace);
      ASSERT_TRUE(name.size() > 7 &&
                  name.compare(name.size() - 7, 7, "_bucket") == 0)
          << "only bucket series carry labels: " << line;
      const std::string base = name.substr(0, name.size() - 7);
      if (base != current_hist) {
        current_hist = base;
        previous_bucket = 0;
      }
      EXPECT_GE(value, previous_bucket)
          << "cumulative buckets must be nondecreasing: " << line;
      previous_bucket = value;
      if (sample.find("le=\"+Inf\"") != std::string::npos) {
        hist_inf[base] = value;
        inf_value = value;
      }
      continue;
    }
    if (sample.size() > 6 &&
        sample.compare(sample.size() - 6, 6, "_count") == 0 &&
        sample.substr(0, sample.size() - 6) == current_hist) {
      hist_counts[current_hist] = value;
    }
  }
  (void)inf_value;
  // Every histogram's +Inf bucket equals its _count.
  for (const auto& [name, count] : hist_counts) {
    ASSERT_EQ(hist_inf.count(name), 1u)
        << "histogram " << name << " missing le=\"+Inf\"";
    EXPECT_EQ(hist_inf[name], count) << "histogram " << name;
  }
  // Every TYPE had a HELP and vice versa.
  EXPECT_EQ(help_seen.size(), type_seen.size());
}

TEST(MetricsExportTest, PrometheusExpositionIsWellFormed) {
  MetricsRegistry registry;
  registry.AddCounter("requests_total", "Requests.")->Increment(6);
  registry.AddGauge("arena_bytes", "Peak arena bytes.")->Set(4096);
  LatencyHistogram* hist = registry.AddHistogram("lat_ns", "Latency.");
  hist->Record(1);
  hist->Record(100);
  hist->Record(100000);
  LatencyHistogram* empty = registry.AddHistogram("idle_ns", "Never hit.");
  (void)empty;

  const std::string text = MetricsToPrometheusText(registry.Snapshot());
  CheckPrometheusExposition(text);

  // Deterministic: a second render is byte-identical.
  EXPECT_EQ(MetricsToPrometheusText(registry.Snapshot()), text);

  // Spot-check the shape.
  EXPECT_NE(text.find("# HELP requests_total Requests.\n"), std::string::npos);
  EXPECT_NE(text.find("# TYPE requests_total counter\n"), std::string::npos);
  EXPECT_NE(text.find("requests_total 6\n"), std::string::npos);
  EXPECT_NE(text.find("# TYPE arena_bytes gauge\n"), std::string::npos);
  EXPECT_NE(text.find("# TYPE lat_ns histogram\n"), std::string::npos);
  EXPECT_NE(text.find("lat_ns_bucket{le=\"+Inf\"} 3\n"), std::string::npos);
  EXPECT_NE(text.find("lat_ns_count 3\n"), std::string::npos);
  EXPECT_NE(text.find("lat_ns_sum 100101\n"), std::string::npos);
  // An empty histogram still exposes the mandatory +Inf bucket.
  EXPECT_NE(text.find("idle_ns_bucket{le=\"+Inf\"} 0\n"), std::string::npos);
}

// ---------------------------------------------------------------------------
// End to end: deterministic traces through a scheduler
// ---------------------------------------------------------------------------

constexpr char kTreeText[] =
    "(and (xor 0.6 (leaf key=1 score=8) 0.3 (leaf key=1 score=5))"
    " (xor 0.7 (leaf key=2 score=9))"
    " (xor 0.5 (leaf key=3 score=7) 0.5 (leaf key=3 score=6)))";

std::vector<ServiceRequest> TraceWorkload() {
  std::vector<ServiceRequest> requests;
  ServiceRequest topk;
  topk.op = ServiceRequest::Op::kTopK;
  topk.tree_name = "t";
  topk.k = 2;
  topk.trace = true;
  requests.push_back(topk);

  ServiceRequest world;
  world.op = ServiceRequest::Op::kWorld;
  world.tree_name = "t";
  world.trace = true;
  requests.push_back(world);

  ServiceRequest stats;
  stats.op = ServiceRequest::Op::kStats;
  stats.trace = true;
  requests.push_back(stats);

  ServiceRequest metrics;
  metrics.op = ServiceRequest::Op::kMetrics;
  metrics.trace = true;
  requests.push_back(metrics);
  return requests;
}

// One single-threaded serve pass over the workload with an auto-advancing
// FakeClock; returns the formatted response lines.
std::vector<std::string> RunTracedWorkload() {
  FakeClock clock(1000000);
  clock.set_auto_advance(17);

  EngineOptions engine_options;
  engine_options.num_threads = 1;
  SchedulerOptions options;
  options.clock = &clock;
  ShardedScheduler scheduler(1, engine_options, options);
  EXPECT_TRUE(scheduler.Insert("t", *ParseTree(kTreeText)).ok());

  std::vector<std::string> lines;
  for (const Result<ServiceResponse>& result :
       scheduler.ExecuteBatch(TraceWorkload())) {
    EXPECT_TRUE(result.ok());
    if (result.ok()) lines.push_back(FormatResponseLine(ResponseToFields(*result)));
  }
  return lines;
}

TEST(TraceDeterminismTest, TwoRunsProduceIdenticalTraceBytes) {
  // Single engine thread + auto-advancing FakeClock: every clock read
  // happens on the calling thread in a fixed order, so spans are a pure
  // function of the read count — two runs must agree byte for byte,
  // trace_* fields included.
  const std::vector<std::string> first = RunTracedWorkload();
  const std::vector<std::string> second = RunTracedWorkload();
  ASSERT_EQ(first.size(), 4u);
  EXPECT_EQ(first, second);

  // Traced responses carry trace_total_ns (and stage spans for queries).
  EXPECT_NE(first[0].find("\ttrace_total_ns="), std::string::npos);
  EXPECT_NE(first[0].find("\ttrace_catalog_ns="), std::string::npos);
  EXPECT_NE(first[0].find("\ttrace_cache_ns="), std::string::npos);
  EXPECT_NE(first[0].find("\ttrace_fold_ns="), std::string::npos);
  EXPECT_NE(first[1].find("\ttrace_total_ns="), std::string::npos);
  EXPECT_NE(first[2].find("\ttrace_total_ns="), std::string::npos);
  EXPECT_NE(first[3].find("\ttrace_total_ns="), std::string::npos);
}

TEST(TraceDeterminismTest, TraceNeverChangesAnswerBytes) {
  EngineOptions engine_options;
  engine_options.num_threads = 1;

  auto run = [&](bool trace, bool enable_metrics) {
    FakeClock clock(42);
    SchedulerOptions options;
    options.clock = &clock;
    options.enable_metrics = enable_metrics;
    ShardedScheduler scheduler(1, engine_options, options);
    EXPECT_TRUE(scheduler.Insert("t", *ParseTree(kTreeText)).ok());

    std::vector<ServiceRequest> requests = TraceWorkload();
    requests.pop_back();  // drop op=metrics: it errors when disabled
    for (ServiceRequest& request : requests) request.trace = trace;

    std::vector<std::string> lines;
    for (const Result<ServiceResponse>& result :
         scheduler.ExecuteBatch(requests)) {
      EXPECT_TRUE(result.ok());
      if (result.ok()) {
        lines.push_back(FormatResponseLine(ResponseToFields(*result)));
      }
    }
    return lines;
  };

  const std::vector<std::string> traced = run(true, true);
  const std::vector<std::string> plain = run(false, true);
  const std::vector<std::string> metrics_off = run(false, false);
  ASSERT_EQ(traced.size(), plain.size());

  // Stripping the trace_* fields from a traced line recovers the plain
  // line byte for byte; with metrics fully disabled the bytes match too.
  for (size_t i = 0; i < traced.size(); ++i) {
    std::string stripped = traced[i];
    const size_t cut = stripped.find("\ttrace_");
    ASSERT_NE(cut, std::string::npos) << "traced line " << i;
    stripped = stripped.substr(0, cut) + "\n";
    EXPECT_EQ(stripped, plain[i]) << "line " << i;
    EXPECT_EQ(plain[i], metrics_off[i]) << "line " << i;
  }
}

// The ops that read leaf marginals take them straight off the catalog's
// compiled program inside their fold span: a traced world (mean and
// median), marginals or aggregate response carries exactly a catalog span
// then a fold span, and no cache span.
TEST(TraceDeterminismTest, MarginalReadersRecordCatalogAndFoldSpansOnly) {
  FakeClock clock(1000);
  clock.set_auto_advance(3);
  EngineOptions engine_options;
  engine_options.num_threads = 1;
  SchedulerOptions options;
  options.clock = &clock;
  ShardedScheduler scheduler(1, engine_options, options);
  ASSERT_TRUE(scheduler
                  .Insert("labeled",
                          *ParseTree("(and (xor 0.6 (leaf key=1 score=8 "
                                     "label=0) 0.3 (leaf key=1 score=5 "
                                     "label=1)) (xor 0.7 (leaf key=2 "
                                     "score=9 label=0)))"))
                  .ok());

  std::vector<ServiceRequest> requests;
  for (ServiceRequest::Op op :
       {ServiceRequest::Op::kWorld, ServiceRequest::Op::kWorld,
        ServiceRequest::Op::kMarginals, ServiceRequest::Op::kAggregate}) {
    ServiceRequest request;
    request.op = op;
    request.tree_name = "labeled";
    request.trace = true;
    requests.push_back(request);
  }
  requests[1].median_world = true;

  const std::vector<std::string> want = {"catalog", "fold"};
  auto results = scheduler.ExecuteBatch(requests);
  ASSERT_EQ(results.size(), requests.size());
  for (size_t i = 0; i < results.size(); ++i) {
    ASSERT_TRUE(results[i].ok()) << results[i].status().ToString();
    std::vector<std::string> stages;
    for (const auto& [stage, nanos] : results[i]->timing.spans) {
      stages.push_back(stage);
      EXPECT_GT(nanos, 0) << "slot " << i << " " << stage;
    }
    EXPECT_EQ(stages, want) << "slot " << i;
    const std::string line =
        FormatResponseLine(ResponseToFields(*results[i]));
    EXPECT_EQ(line.find("\ttrace_cache_ns="), std::string::npos) << line;
    EXPECT_NE(line.find("\ttrace_fold_ns="), std::string::npos) << line;
  }
}

TEST(TraceDeterminismTest, FixedFakeClockYieldsZeroSpans) {
  // A fixed (non-advancing) FakeClock makes every duration exactly 0 —
  // the property the sharded parity tests lean on.
  FakeClock clock(999);
  EngineOptions engine_options;
  engine_options.num_threads = 2;
  SchedulerOptions options;
  options.clock = &clock;
  ShardedScheduler scheduler(1, engine_options, options);
  ASSERT_TRUE(scheduler.Insert("t", *ParseTree(kTreeText)).ok());

  auto results = scheduler.ExecuteBatch(TraceWorkload());
  ASSERT_EQ(results.size(), 4u);
  for (const auto& result : results) {
    ASSERT_TRUE(result.ok());
    EXPECT_EQ(result->timing.total_ns, 0);
    for (const auto& [stage, nanos] : result->timing.spans) {
      EXPECT_EQ(nanos, 0) << stage;
    }
  }

  // And the per-op histograms saw exactly the four requests, all at 0 ns.
  MetricsSnapshot snap = scheduler.MetricsSnapshotNow();
  const MetricSample* topk = snap.Find("cpdb_topk_latency_nanoseconds");
  ASSERT_NE(topk, nullptr);
  EXPECT_EQ(topk->hist.count, 1);
  EXPECT_EQ(topk->hist.sum_nanos, 0);
  EXPECT_EQ(snap.Find("cpdb_requests_total")->value, 4);
}

}  // namespace
}  // namespace cpdb
