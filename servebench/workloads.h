// Copyright 2026 The ConsensusDB Authors
//
// The serving benchmark's workloads: what each one installs, which request
// sequence it replays, and how the inputs are generated from the seed.
//
// Every input is a pure function of (workload, seed, seconds, smoke): the
// same arguments write byte-identical tree files, snapshot and request
// files. The sequence length is fixed by `seconds` (nominal rate × seconds)
// rather than by how many requests happen to fit, so every run of a seed
// replays the same requests in the same order.
//
// Tree shapes are generated with a fixed skeleton so that cost does not
// depend on the seed: a root AND over groups of four keys; each group is a
// XOR of a fixed number of scenarios; each scenario is an AND of per-key
// XOR(p, leaf). That is one leaf per key and scenario, the key constraint
// holds (same-key leaves meet at the group XOR), and the tree is not
// block-independent, so rank distributions take the general FlatTree fold
// rather than the BID fast path. The seed draws probabilities, scores (all
// distinct) and labels.

#ifndef SERVEBENCH_WORKLOADS_H_
#define SERVEBENCH_WORKLOADS_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace servebench {

/// \brief One workload's fixed configuration.
struct WorkloadSpec {
  std::string name;
  /// Batch mode sends one ExecuteBatch per batch (a latency sample is a
  /// batch); stream mode sends one ExecuteOne per request.
  bool batch_mode = false;
  int num_shapes = 0;
  /// Shape i has min_keys + i % (max_keys - min_keys + 1) keys, so the size
  /// mix is the same for every seed.
  int min_keys = 0;
  int max_keys = 0;
  /// Scenarios per four-key group, which is also the leaves per key: the
  /// per-query tails (Kendall, symdiff median) grow with leaf count.
  int scenarios = 2;
  /// Stream mode: one request in 33 is an uncacheable per-query tail.
  bool tails = false;
  std::vector<int> ks;
  /// Batch mode: keys of the trees the timed sequence loads. Twice the
  /// base size, so a load batch costs several regular ones and p99 sits
  /// on load batches rather than on scheduling hiccups of regular ones.
  int fresh_keys = 0;
  /// Whether the set-up snapshot carries rank distributions for every
  /// (shape, k) the run uses.
  bool snapshot_dists = false;
  /// Per-cache byte budget; negative means unbounded.
  int64_t cache_budget = -1;
  /// Timed requests (stream) or batches (batch) per second of --seconds.
  int units_per_second = 0;
  /// Fresh set-ups per run; setup_s is their median. Sized so that the
  /// set-ups together take about five seconds: the host's speed swings
  /// from second to second, and a median over a longer window follows
  /// those swings less.
  int setup_reps = 0;
};

/// \brief The spec for `name` ("warm_zipf", "cold_sweep", "heavy_tail"),
/// shrunk for a quick check when `smoke` is set. Returns false for an
/// unknown name.
bool LookupWorkload(const std::string& name, bool smoke, WorkloadSpec* spec);

/// \brief A request sequence held compactly — every line in one buffer —
/// so the replayed inputs add little to the measured peak RSS. Lines are
/// grouped into units: one batch in batch mode, one request in stream
/// mode.
class Requests {
 public:
  void Add(const std::string& line);
  void EndUnit();

  size_t units() const { return unit_start_.size() - 1; }
  size_t lines() const { return line_start_.size() - 1; }
  /// Line indices [unit_begin(u), unit_begin(u + 1)) form unit u.
  size_t unit_begin(size_t u) const { return unit_start_[u]; }
  std::string line(size_t i) const {
    return text_.substr(line_start_[i], line_start_[i + 1] - line_start_[i]);
  }
  /// A copy with `suffix` appended to every line.
  Requests WithSuffix(const std::string& suffix) const;

 private:
  std::string text_;
  std::vector<uint32_t> line_start_ = {0};
  std::vector<uint32_t> unit_start_ = {0};
};

/// \brief The generated request sequences of one run.
struct Sequence {
  Requests warmup;
  Requests timed;
};

/// \brief The s-expression text of shape `index` (see the file comment),
/// with `scenarios` alternatives per group, hence that many leaves per key.
std::string ShapeText(uint64_t seed, int index, int num_keys, int scenarios);

/// \brief Catalog name of base shape `index`.
std::string ShapeName(int index);

/// \brief Writes every input of one run into `dir` (which must exist):
/// catalog.snap (the set-up snapshot), fresh_<j>.tree (trees the timed
/// sequence loads), warmup.txt and timed.txt (one request per line, a
/// blank line after each batch). Returns an error message, empty on
/// success.
std::string GenerateInputs(const WorkloadSpec& spec, uint64_t seed,
                           int seconds, const std::string& dir);

/// \brief Reads warmup.txt and timed.txt back from `dir`.
std::string ReadSequence(const std::string& dir, Sequence* out);

}  // namespace servebench

#endif  // SERVEBENCH_WORKLOADS_H_
