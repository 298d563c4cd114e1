// Copyright 2026 The ConsensusDB Authors
//
// The op-pipeline differential suite. The OpRegistry is the single table
// the protocol parser, the scheduler, the instruments, and the wire
// formatter walk; this file pins the properties that make that table safe
// to extend:
//
//   * table shape — specs()[i].op == Op(i), wire-name lookup round-trips,
//     and the unknown-op error enumerates the table;
//   * strict parses — per-op field allow-lists and value sets reject
//     garbage with pinned messages;
//   * CLI twins — the topk op and the four analytics ops (marginals,
//     aggregate, baseline, hardness) answer byte-identically to their
//     offline commands, for canonical and non-canonical input alike;
//   * transcript identity — one serve input produces byte-identical
//     response transcripts across shard counts, thread counts, cache
//     settings, budgets, metrics on/off, batch/stream, and warm restarts;
//   * the parallel Engine::ExpectedRanks is bitwise the sequential core
//     fold, and repeated analytics requests fold marginals once.

#include "service/op_registry.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "core/ranking_baselines.h"
#include "engine/engine.h"
#include "io/request_protocol.h"
#include "io/table_io.h"
#include "io/tree_text.h"
#include "model/canonical.h"
#include "service/sharded_scheduler.h"
#include "tools/cli_lib.h"
#include "workload/generators.h"

namespace cpdb {
namespace {

// Runs the CLI capturing stdout/stderr through temp files (the cli_test.cc
// harness, shared idiom).
struct CliResult {
  int code;
  std::string out;
  std::string err;
};

CliResult RunCliArgs(const std::vector<std::string>& args) {
  std::string out_path = ::testing::TempDir() + "/opreg_cli_out.txt";
  std::string err_path = ::testing::TempDir() + "/opreg_cli_err.txt";
  std::FILE* out = std::fopen(out_path.c_str(), "w+");
  std::FILE* err = std::fopen(err_path.c_str(), "w+");
  std::vector<std::string> full = {"cpdb_cli"};
  full.insert(full.end(), args.begin(), args.end());
  int code = RunCli(full, out, err);
  std::fclose(out);
  std::fclose(err);
  return {code, *ReadFileToString(out_path), *ReadFileToString(err_path)};
}

AndXorTree RandomDeepTree(uint64_t seed, int num_keys = 10) {
  Rng rng(seed);
  RandomTreeOptions opts;
  opts.num_keys = num_keys;
  opts.max_depth = 3;
  opts.max_alternatives = 2;
  auto tree = RandomAndXorTree(opts, &rng);
  EXPECT_TRUE(tree.ok());
  return *std::move(tree);
}

// The labeled hand-written tree (every alternative labeled, so
// op=aggregate succeeds) and an unlabeled one (so it errors).
constexpr char kLabeledTreeText[] =
    "(and (xor 0.6 (leaf key=1 score=8 label=0)"
    "          0.3 (leaf key=1 score=5 label=1))"
    " (xor 0.7 (leaf key=2 score=9 label=0))"
    " (xor 0.5 (leaf key=3 score=7 label=1)"
    "          0.5 (leaf key=3 score=6 label=0)))";

constexpr char kUnlabeledTreeText[] =
    "(and (xor 0.5 (leaf key=4 score=3)) (xor 0.25 (leaf key=5 score=1)))";

// The value of `name=` in one tab-separated response line, or "" when the
// field is absent. Fields render as "\tname=value".
std::string Field(const std::string& line, const std::string& name) {
  const std::string needle = "\t" + name + "=";
  size_t pos = line.find(needle);
  if (pos == std::string::npos) return "";
  pos += needle.size();
  size_t end = line.find('\t', pos);
  return line.substr(pos, end == std::string::npos ? std::string::npos
                                                   : end - pos);
}

// Replaces every error line's line=N field with line=#. Error *text* is
// part of the byte contract; the input line number legitimately shifts
// when the same queries are fed with and without load-line preambles.
std::string MaskLineNumbers(const std::string& transcript) {
  std::string masked = transcript;
  size_t pos = 0;
  while ((pos = masked.find("\tline=", pos)) != std::string::npos) {
    size_t start = pos + 6;
    size_t end = masked.find('\t', start);
    if (end == std::string::npos) break;
    masked.replace(start, end - start, "#");
    pos = start;
  }
  return masked;
}

std::vector<std::string> SplitLines(const std::string& text) {
  std::vector<std::string> lines;
  size_t start = 0;
  while (start < text.size()) {
    size_t end = text.find('\n', start);
    if (end == std::string::npos) end = text.size();
    lines.push_back(text.substr(start, end - start));
    start = end + 1;
  }
  return lines;
}

// The CLI-vs-serve fixture. The transcript trees are written in their
// canonical orientation. The twin inputs add the two random trees in their
// raw generator orientation, which is not canonical: the offline commands
// fold the canonical orientation, as serve does, so the input's child order
// must not move a byte of either answer.
class OpPipelineTest : public ::testing::Test {
 protected:
  void SetUp() override {
    trees_ = {*CanonicalizeTree(*ParseTree(kLabeledTreeText)),
              *CanonicalizeTree(RandomDeepTree(101)),
              *CanonicalizeTree(RandomDeepTree(202, 14))};
    names_ = {"lab", "d0", "d1"};
    for (size_t i = 0; i < trees_.size(); ++i) {
      paths_.push_back(::testing::TempDir() + "/opreg_" + names_[i] + ".sexp");
      ASSERT_TRUE(WriteStringToFile(paths_[i], FormatTree(trees_[i])).ok());
    }
    twin_names_ = names_;
    twin_paths_ = paths_;
    const std::vector<AndXorTree> raw = {RandomDeepTree(101),
                                         RandomDeepTree(202, 14)};
    for (size_t i = 0; i < raw.size(); ++i) {
      ASSERT_NE(FormatTree(raw[i]), FormatTree(trees_[1 + i]))
          << "raw tree " << i << " is already canonical";
      twin_names_.push_back("r" + std::to_string(i));
      twin_paths_.push_back(::testing::TempDir() + "/opreg_" +
                            twin_names_.back() + ".sexp");
      ASSERT_TRUE(WriteStringToFile(twin_paths_.back(), FormatTree(raw[i])).ok());
    }
    unlabeled_path_ = ::testing::TempDir() + "/opreg_unlabeled.sexp";
    ASSERT_TRUE(WriteStringToFile(
                    unlabeled_path_,
                    FormatTree(*CanonicalizeTree(*ParseTree(kUnlabeledTreeText))))
                    .ok());
  }

  // One line per load, then the analytics/query mix used by every
  // transcript-identity configuration. Includes error rows (unlabeled
  // aggregate, unknown tree, unknown op) because error bytes are part of
  // the wire contract.
  std::string RequestFileWithLoads() {
    std::string text;
    for (size_t i = 0; i < names_.size(); ++i) {
      text += "op=load name=" + names_[i] + " file=" + paths_[i] + "\n";
    }
    text += "op=load name=unlab file=" + unlabeled_path_ + "\n";
    return text + QueryRequests();
  }

  std::string QueryRequests() {
    return
        "op=marginals tree=lab\n"
        "op=marginals tree=d0\n"
        "op=marginals tree=d1\n"
        "op=aggregate tree=lab\n"
        "op=aggregate tree=d0\n"
        "op=aggregate tree=unlab\n"
        "op=baseline tree=d0 k=3 method=escore\n"
        "op=baseline tree=d0 k=3 method=erank\n"
        "op=baseline tree=d1 k=4 method=global\n"
        "op=baseline tree=d1 k=4 method=prf\n"
        "op=baseline tree=lab k=2\n"
        "op=hardness tree=lab\n"
        "op=hardness tree=d0\n"
        "op=hardness tree=d1\n"
        "op=topk tree=d0 k=3\n"
        "op=topk tree=d1 k=3 metric=kendall\n"
        "op=world tree=lab\n"
        "op=marginals tree=no_such_tree\n"
        "op=frobnicate tree=d0\n";
  }

  std::string WriteRequestFile(const std::string& name,
                               const std::string& text) {
    std::string path = ::testing::TempDir() + "/" + name;
    EXPECT_TRUE(WriteStringToFile(path, text).ok());
    return path;
  }

  // Serves `request_path` with the given extra flags and returns stdout.
  // Every configuration must exit 1: the request mix contains in-band
  // error lines by construction.
  std::string ServeTranscript(const std::string& request_path,
                              const std::vector<std::string>& flags) {
    std::vector<std::string> args = {"serve", request_path};
    args.insert(args.end(), flags.begin(), flags.end());
    CliResult r = RunCliArgs(args);
    EXPECT_EQ(r.code, 1) << "flags " << ::testing::PrintToString(flags)
                         << "\nstderr: " << r.err;
    return r.out;
  }

  // One load line per twin input, then `per_tree(name)` for each of them;
  // serves the batch and returns the response lines after the loads.
  std::vector<std::string> ServeTwinRequests(
      const std::string& file,
      const std::function<std::string(const std::string&)>& per_tree) {
    std::string requests;
    for (size_t i = 0; i < twin_names_.size(); ++i) {
      requests += "op=load name=" + twin_names_[i] + " file=" +
                  twin_paths_[i] + "\n";
    }
    for (const std::string& name : twin_names_) requests += per_tree(name);
    CliResult serve = RunCliArgs({"serve", WriteRequestFile(file, requests)});
    EXPECT_EQ(serve.code, 0) << serve.err;
    std::vector<std::string> lines = SplitLines(serve.out);
    EXPECT_GE(lines.size(), twin_names_.size());
    lines.erase(lines.begin(),
                lines.begin() + std::min(lines.size(), twin_names_.size()));
    return lines;
  }

  std::vector<AndXorTree> trees_;
  std::vector<std::string> names_;
  std::vector<std::string> paths_;
  // names_/paths_ plus the raw (non-canonical) random trees.
  std::vector<std::string> twin_names_;
  std::vector<std::string> twin_paths_;
  std::string unlabeled_path_;
};

// ---------------------------------------------------------------------------
// Table shape
// ---------------------------------------------------------------------------

TEST(OpRegistryTest, TableIndexIsTheOpEnumAndNamesRoundTrip) {
  const OpRegistry& registry = OpRegistry::Get();
  ASSERT_EQ(registry.specs().size(), 9u);
  for (size_t i = 0; i < registry.specs().size(); ++i) {
    const OpSpec& spec = registry.specs()[i];
    // The enum is the table index — what lets the instruments and both
    // schedulers index per-op state by op without a name lookup.
    EXPECT_EQ(static_cast<size_t>(spec.op), i);
    EXPECT_EQ(&registry.spec(spec.op), &spec);
    EXPECT_EQ(registry.FindByName(spec.name), &spec) << spec.name;
  }
  EXPECT_EQ(registry.FindByName("frobnicate"), nullptr);
  // Every spec is fully wired: a parse, a formatter, and exactly one
  // execution form matching its routing class — every tree-addressed row
  // (topk included) has its own execute hook, so the per-shard executor
  // has one form: run each slot's hook.
  for (const OpSpec& spec : registry.specs()) {
    EXPECT_NE(spec.parse, nullptr) << spec.name;
    EXPECT_NE(spec.format, nullptr) << spec.name;
    if (spec.routing == OpRouting::kAdmin) {
      EXPECT_NE(spec.execute_admin, nullptr) << spec.name;
      EXPECT_EQ(spec.execute_tree, nullptr) << spec.name;
    } else if (spec.routing == OpRouting::kTreeAddressed) {
      EXPECT_NE(spec.execute_tree, nullptr) << spec.name;
      EXPECT_EQ(spec.execute_admin, nullptr) << spec.name;
    }
  }
}

TEST(OpRegistryTest, UnknownOpErrorEnumeratesTheTable) {
  // The satellite regression: the valid-op list in the error is *derived*
  // from the registry, so a newly added op appears here without anyone
  // editing an error string. The full text is golden-pinned in
  // request_protocol_test.cc as well.
  Status error = OpRegistry::Get().UnknownOpError("frobnicate");
  EXPECT_FALSE(error.ok());
  EXPECT_EQ(error.message(),
            "unknown op 'frobnicate' (expected load, topk, world, stats, "
            "metrics, marginals, aggregate, baseline or hardness)");
  EXPECT_EQ(OpRegistry::Get().ExpectedOpsList(),
            "load, topk, world, stats, metrics, marginals, aggregate, "
            "baseline or hardness");
}

// ---------------------------------------------------------------------------
// Strict parses for the new ops
// ---------------------------------------------------------------------------

Result<ServiceRequest> ParseLine(const std::string& text) {
  CPDB_ASSIGN_OR_RETURN(RequestLine line, ParseRequestLine(text));
  return ServiceRequestFromLine(line);
}

TEST(OpRegistryParseTest, NewOpsParseTheirFields) {
  auto marginals = ParseLine("op=marginals tree=t");
  ASSERT_TRUE(marginals.ok());
  EXPECT_EQ(marginals->op, ServiceRequest::Op::kMarginals);
  EXPECT_EQ(marginals->tree_name, "t");

  auto baseline = ParseLine("op=baseline tree=t k=7 method=prf");
  ASSERT_TRUE(baseline.ok());
  EXPECT_EQ(baseline->op, ServiceRequest::Op::kBaseline);
  EXPECT_EQ(baseline->k, 7);
  EXPECT_EQ(baseline->baseline_method, "prf");
  // method defaults to escore, same default as the CLI twin's --method.
  auto defaulted = ParseLine("op=baseline tree=t k=2");
  ASSERT_TRUE(defaulted.ok());
  EXPECT_EQ(defaulted->baseline_method, "escore");

  auto hardness = ParseLine("op=hardness tree=t trace=on");
  ASSERT_TRUE(hardness.ok());
  EXPECT_EQ(hardness->op, ServiceRequest::Op::kHardness);
  EXPECT_TRUE(hardness->trace);
}

TEST(OpRegistryParseTest, NewOpsRejectGarbageStrictly) {
  // Field allow-lists: k belongs to topk/baseline, not marginals.
  EXPECT_FALSE(ParseLine("op=marginals tree=t k=3").ok());
  EXPECT_FALSE(ParseLine("op=aggregate tree=t metric=symdiff").ok());
  EXPECT_FALSE(ParseLine("op=hardness tree=t answer=mean").ok());
  // Required fields stay required.
  EXPECT_FALSE(ParseLine("op=marginals").ok());
  EXPECT_FALSE(ParseLine("op=baseline tree=t").ok());
  // Value sets: the method enum is strict, and its message enumerates the
  // valid set like every other strict parse in the protocol.
  auto bad_method = ParseLine("op=baseline tree=t k=2 method=bogus");
  ASSERT_FALSE(bad_method.ok());
  EXPECT_EQ(bad_method.status().message(),
            "unknown method 'bogus' (expected escore, erank, global or prf)");
  EXPECT_FALSE(ParseLine("op=baseline tree=t k=0 method=escore").ok());
}

// ---------------------------------------------------------------------------
// CLI twins: the serve bytes are the offline bytes
// ---------------------------------------------------------------------------

TEST_F(OpPipelineTest, MarginalsOpMatchesOfflineCommandByteForByte) {
  std::vector<std::string> lines =
      ServeTwinRequests("opreg_marg.txt", [](const std::string& name) {
        return "op=marginals tree=" + name + "\n";
      });
  ASSERT_EQ(lines.size(), twin_names_.size());
  for (size_t i = 0; i < twin_names_.size(); ++i) {
    SCOPED_TRACE(twin_names_[i]);
    const std::string& line = lines[i];
    // Rebuild the serve csvs from the offline command's rows: same keys,
    // same round-trip-formatted marginal bytes, same order.
    CliResult cli = RunCliArgs({"marginals", twin_paths_[i]});
    ASSERT_EQ(cli.code, 0);
    std::vector<std::string> rows = SplitLines(cli.out);
    ASSERT_GE(rows.size(), 2u);
    EXPECT_EQ(rows[0], "key presence_probability");
    std::string keys_csv, marginals_csv;
    for (size_t r = 1; r < rows.size(); ++r) {
      size_t space = rows[r].find(' ');
      ASSERT_NE(space, std::string::npos) << rows[r];
      if (r > 1) {
        keys_csv += ",";
        marginals_csv += ",";
      }
      keys_csv += rows[r].substr(0, space);
      marginals_csv += rows[r].substr(space + 1);
    }
    EXPECT_EQ(Field(line, "keys"), keys_csv);
    EXPECT_EQ(Field(line, "marginals"), marginals_csv);
  }
}

TEST_F(OpPipelineTest, AggregateOpMatchesOfflineCommandByteForByte) {
  std::vector<std::string> lines =
      ServeTwinRequests("opreg_agg.txt", [](const std::string& name) {
        return "op=aggregate tree=" + name + "\n";
      });
  ASSERT_EQ(lines.size(), twin_names_.size());
  for (size_t i = 0; i < twin_names_.size(); ++i) {
    SCOPED_TRACE(twin_names_[i]);
    const std::string& line = lines[i];
    CliResult cli = RunCliArgs({"aggregate", twin_paths_[i]});
    ASSERT_EQ(cli.code, 0) << cli.err;
    std::vector<std::string> rows = SplitLines(cli.out);
    ASSERT_GE(rows.size(), 2u);
    EXPECT_EQ(rows[0], "group mean_count median_count");
    std::string mean_csv, median_csv;
    for (size_t r = 1; r < rows.size(); ++r) {
      size_t s1 = rows[r].find(' ');
      size_t s2 = rows[r].find(' ', s1 + 1);
      ASSERT_NE(s2, std::string::npos) << rows[r];
      if (r > 1) {
        mean_csv += ",";
        median_csv += ",";
      }
      mean_csv += rows[r].substr(s1 + 1, s2 - s1 - 1);
      median_csv += rows[r].substr(s2 + 1);
    }
    EXPECT_EQ(Field(line, "groups"), std::to_string(rows.size() - 1));
    EXPECT_EQ(Field(line, "mean"), mean_csv);
    EXPECT_EQ(Field(line, "median"), median_csv);
  }
}

TEST_F(OpPipelineTest, AggregateErrorTextIsSharedWithTheOfflineCommand) {
  // Both surfaces route the group-by build through
  // core/aggregates.h GroupByInstanceFromTree, so the missing-label
  // message is literally the same bytes.
  CliResult cli = RunCliArgs({"aggregate", unlabeled_path_});
  EXPECT_EQ(cli.code, 1);
  std::string requests = "op=load name=u file=" + unlabeled_path_ +
                         "\nop=aggregate tree=u\n";
  std::string path = WriteRequestFile("opreg_agg_err.txt", requests);
  CliResult serve = RunCliArgs({"serve", path});
  EXPECT_EQ(serve.code, 1);
  std::vector<std::string> lines = SplitLines(serve.out);
  ASSERT_EQ(lines.size(), 2u);
  EXPECT_EQ(Field(lines[1], "msg"), "Invalid argument: " + cli.err.substr(0, cli.err.size() - 1));
  EXPECT_NE(cli.err.find("aggregate requires a label on every alternative"),
            std::string::npos)
      << cli.err;
}

TEST_F(OpPipelineTest, BaselineOpMatchesOfflineCommandForEveryMethod) {
  const std::vector<std::string> kMethods = {"escore", "erank", "global",
                                             "prf"};
  for (int k : {1, 3}) {
    std::vector<std::string> lines = ServeTwinRequests(
        "opreg_base.txt", [&](const std::string& name) {
          std::string requests;
          for (const std::string& method : kMethods) {
            requests += "op=baseline tree=" + name +
                        " k=" + std::to_string(k) + " method=" + method + "\n";
          }
          return requests;
        });
    ASSERT_EQ(lines.size(), twin_names_.size() * kMethods.size());
    size_t slot = 0;
    for (size_t i = 0; i < twin_names_.size(); ++i) {
      for (const std::string& method : kMethods) {
        SCOPED_TRACE(twin_names_[i] + " " + method + " k=" + std::to_string(k));
        const std::string& line = lines[slot++];
        EXPECT_EQ(Field(line, "method"), method);
        CliResult cli = RunCliArgs({"baseline", twin_paths_[i],
                                    "--k=" + std::to_string(k),
                                    "--method=" + method, "--threads=2"});
        ASSERT_EQ(cli.code, 0) << cli.err;
        // The offline line is "baseline <method> k=<k> keys=<csv>"; the
        // keys csv must be the serve response's keys field, byte for byte.
        std::string expected = "baseline " + method +
                               " k=" + std::to_string(k) +
                               " keys=" + Field(line, "keys") + "\n";
        EXPECT_EQ(cli.out, expected);
      }
    }
  }
}

TEST_F(OpPipelineTest, HardnessOpMatchesOfflineCommandByteForByte) {
  std::vector<std::string> lines =
      ServeTwinRequests("opreg_hard.txt", [](const std::string& name) {
        return "op=hardness tree=" + name + "\n";
      });
  ASSERT_EQ(lines.size(), twin_names_.size());
  for (size_t i = 0; i < twin_names_.size(); ++i) {
    SCOPED_TRACE(twin_names_[i]);
    const std::string& line = lines[i];
    CliResult cli = RunCliArgs({"hardness", twin_paths_[i]});
    ASSERT_EQ(cli.code, 0);
    // The offline command prints "name value" lines whose names are the
    // serve response's field names; values must agree byte for byte.
    int compared = 0;
    for (const std::string& row : SplitLines(cli.out)) {
      size_t space = row.find(' ');
      ASSERT_NE(space, std::string::npos) << row;
      EXPECT_EQ(Field(line, row.substr(0, space)), row.substr(space + 1))
          << row;
      ++compared;
    }
    EXPECT_EQ(compared, 7);
  }
}

TEST_F(OpPipelineTest, TopKOpMatchesOfflineCommandByteForByte) {
  // Every metric's mean answer plus the non-mean answers each metric
  // supports. The offline line is
  // "top-<k> (<metric>, <answer>): [ k1 k2 ... ]  E[distance] = <x>".
  const std::vector<std::pair<std::string, std::string>> kQueries = {
      {"symdiff", "mean"},      {"intersection", "mean"},
      {"footrule", "mean"},     {"kendall", "mean"},
      {"symdiff", "median"},    {"symdiff", "any-size"},
      {"intersection", "approx"},
  };
  const int k = 3;
  std::vector<std::string> lines =
      ServeTwinRequests("opreg_topk.txt", [&](const std::string& name) {
        std::string requests;
        for (const auto& [metric, answer] : kQueries) {
          requests += "op=topk tree=" + name + " k=" + std::to_string(k) +
                      " metric=" + metric + " answer=" + answer + "\n";
        }
        return requests;
      });
  ASSERT_EQ(lines.size(), twin_names_.size() * kQueries.size());
  size_t slot = 0;
  for (size_t i = 0; i < twin_names_.size(); ++i) {
    for (const auto& [metric, answer] : kQueries) {
      SCOPED_TRACE(twin_names_[i] + " " + metric + " " + answer);
      const std::string& line = lines[slot++];
      CliResult cli = RunCliArgs({"topk", twin_paths_[i],
                                  "--k=" + std::to_string(k),
                                  "--metric=" + metric, "--answer=" + answer});
      ASSERT_EQ(cli.code, 0) << cli.err;
      const std::string head = "top-" + std::to_string(k) + " (" + metric +
                               ", " + answer + "): [";
      ASSERT_EQ(cli.out.rfind(head, 0), 0u) << cli.out;
      const size_t close = cli.out.find(" ]  E[distance] = ");
      ASSERT_NE(close, std::string::npos) << cli.out;
      std::string keys_csv = cli.out.substr(head.size(), close - head.size());
      // " 4 1 7" -> "4,1,7"
      if (!keys_csv.empty()) keys_csv.erase(0, 1);
      std::replace(keys_csv.begin(), keys_csv.end(), ' ', ',');
      const std::string expected =
          cli.out.substr(close + std::strlen(" ]  E[distance] = "));
      EXPECT_EQ(Field(line, "keys"), keys_csv);
      EXPECT_EQ(Field(line, "expected") + "\n", expected);
    }
  }
}

// ---------------------------------------------------------------------------
// Transcript identity across serving configurations
// ---------------------------------------------------------------------------

TEST_F(OpPipelineTest, TranscriptIsByteIdenticalAcrossConfigurations) {
  std::string path =
      WriteRequestFile("opreg_all.txt", RequestFileWithLoads());
  const std::string baseline = ServeTranscript(path, {});
  ASSERT_FALSE(baseline.empty());
  // Answers — and error lines — are bitwise independent of parallelism,
  // sharding, caching, budgets, instruments, and batching. Each variant
  // flips one or two knobs; the transcript must not move by a byte.
  const std::vector<std::vector<std::string>> kVariants = {
      {"--stream"},
      {"--threads=8"},
      {"--stream", "--threads=8"},
      {"--cache=off"},
      {"--cache-budget=0"},
      {"--metrics=off"},
      {"--shards=1"},
      {"--shards=2", "--threads=8"},
      {"--shards=4"},
      {"--shards=4", "--stream", "--cache-budget=4096"},
  };
  for (const auto& flags : kVariants) {
    EXPECT_EQ(ServeTranscript(path, flags), baseline)
        << "flags " << ::testing::PrintToString(flags);
  }
}

TEST_F(OpPipelineTest, WarmRestartServesTheSameAnalyticsBytes) {
  // Session one: loads + queries, catalog saved at shutdown. Session two:
  // the snapshot plus the query tail only — every analytics answer must
  // be the bytes session one produced.
  std::string snapshot = ::testing::TempDir() + "/opreg_catalog.snap";
  std::string full_path =
      WriteRequestFile("opreg_warm_full.txt", RequestFileWithLoads());
  std::string cold =
      ServeTranscript(full_path, {"--save-catalog=" + snapshot});
  std::vector<std::string> cold_lines = SplitLines(cold);
  ASSERT_GT(cold_lines.size(), 4u);
  // Drop the four op=load echo lines; the rest is the query transcript.
  std::string query_transcript;
  for (size_t i = 4; i < cold_lines.size(); ++i) {
    query_transcript += cold_lines[i] + "\n";
  }
  std::string query_path =
      WriteRequestFile("opreg_warm_queries.txt", QueryRequests());
  EXPECT_EQ(MaskLineNumbers(ServeTranscript(query_path,
                                            {"--catalog=" + snapshot})),
            MaskLineNumbers(query_transcript));
  EXPECT_EQ(MaskLineNumbers(ServeTranscript(
                query_path, {"--catalog=" + snapshot, "--shards=2"})),
            MaskLineNumbers(query_transcript));
}

// ---------------------------------------------------------------------------
// The parallel expected-rank fold and the marginal readers
// ---------------------------------------------------------------------------

TEST(EngineExpectedRanksTest, BitwiseEqualToTheSequentialCoreFold) {
  std::vector<AndXorTree> trees;
  trees.push_back(*ParseTree(kLabeledTreeText));
  trees.push_back(RandomDeepTree(7));
  trees.push_back(RandomDeepTree(33, 16));
  for (const AndXorTree& tree : trees) {
    const std::vector<double> reference = ExpectedRanks(tree);
    for (int threads : {1, 2, 8}) {
      EngineOptions options;
      options.num_threads = threads;
      Engine engine(options);
      // EXPECT_EQ, never NEAR: op=baseline method=erank must not drift
      // from the offline twin by a ULP on any thread count.
      EXPECT_EQ(engine.ExpectedRanks(tree), reference)
          << threads << " threads";
    }
  }
}

TEST(OpPipelineCacheTest, RepeatedAnalyticsReadTheCatalogProgram) {
  ShardedScheduler scheduler(1, EngineOptions());
  ASSERT_TRUE(
      scheduler.Insert("lab", *CanonicalizeTree(*ParseTree(kLabeledTreeText)))
          .ok());
  ServiceRequest marginals;
  marginals.op = ServiceRequest::Op::kMarginals;
  marginals.tree_name = "lab";
  ServiceRequest aggregate;
  aggregate.op = ServiceRequest::Op::kAggregate;
  aggregate.tree_name = "lab";
  std::vector<Result<ServiceResponse>> responses =
      scheduler.ExecuteBatch({marginals, marginals, aggregate});
  for (const auto& response : responses) ASSERT_TRUE(response.ok());
  // All three read the leaf marginals off the program the catalog compiled
  // at insert: no further compile, and the rank-distribution cache is
  // never consulted.
  const MetricsSnapshot scrape = scheduler.MetricsSnapshotNow();
  EXPECT_EQ(scrape.Find("cpdb_fold_compiles_total")->value, 1);
  const CacheStats stats = scheduler.cache_stats();
  EXPECT_EQ(stats.hits + stats.misses + stats.coalesced, 0);
  // And the repeated probes answered identically.
  EXPECT_EQ(FormatResponseLine(ResponseToFields(*responses[0])),
            FormatResponseLine(ResponseToFields(*responses[1])));
}

}  // namespace
}  // namespace cpdb
