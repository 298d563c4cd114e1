// Copyright 2026 The ConsensusDB Authors

#include "workloads.h"

#include <algorithm>
#include <cmath>
#include <fstream>
#include <numeric>
#include <random>
#include <sstream>
#include <utility>

#include "engine/engine.h"
#include "io/tree_text.h"
#include "service/catalog_snapshot.h"
#include "service/sharded_scheduler.h"

namespace servebench {
namespace {

// Requests per stats probe in the stream workloads.
constexpr int kStatsEvery = 64;
// Requests per `baseline method=erank` in the stream workloads. Expected
// ranks are recomputed per request (no cache holds them) at ~50x the cost
// of a cache hit, so the method is kept at ~0.4% — below the 1% that would
// put p99 on it — instead of a uniform 1/14 share that would dominate
// warm_zipf's throughput.
constexpr int kErankEvery = 256;
// One heavy tail every this many heavy_tail requests (~3%).
constexpr int kTailEvery = 33;
// One fresh-tree load every this many cold_sweep batches.
constexpr int kLoadEvery = 8;
// Zipf skew of the tree choice in the stream workloads.
constexpr double kZipfTheta = 0.99;

// Uniform double in [lo, hi) from 53 random bits — spelled out rather than
// std::uniform_real_distribution so inputs do not depend on the standard
// library's distribution algorithm.
double Uniform(std::mt19937_64& rng, double lo, double hi) {
  return lo + (hi - lo) * static_cast<double>(rng() >> 11) * 0x1.0p-53;
}

uint64_t Below(std::mt19937_64& rng, uint64_t n) { return rng() % n; }

// Seeded Fisher-Yates, for the same reason as Uniform.
std::vector<int> Permutation(std::mt19937_64& rng, int n) {
  std::vector<int> p(static_cast<size_t>(n));
  std::iota(p.begin(), p.end(), 0);
  for (int i = n - 1; i > 0; --i) {
    std::swap(p[static_cast<size_t>(i)],
              p[Below(rng, static_cast<uint64_t>(i) + 1)]);
  }
  return p;
}

std::string Prob(double p) {
  std::ostringstream os;
  os.precision(6);
  os << p;
  return os.str();
}

int KeysOf(const WorkloadSpec& spec, int index) {
  return spec.min_keys + index % (spec.max_keys - spec.min_keys + 1);
}

// The cheap, cache-served request mix shared by warm_zipf and heavy_tail:
// every tree-addressed op, Top-k under symdiff / intersection / footrule
// in its cacheable answer kinds, and the baselines under all four methods
// (erank, template kErankTemplate, only at the kErankEvery cadence).
// Templates below kNumKTemplates take a k.
constexpr int kNumKTemplates = 9;
constexpr int kNumTemplates = 14;
constexpr int kErankTemplate = 6;

std::string CheapRequest(const std::string& tree, int id, int k) {
  const std::string t = " tree=" + tree;
  const std::string kk = " k=" + std::to_string(k);
  switch (id) {
    case 0: return "op=topk" + t + kk + " metric=symdiff answer=mean";
    case 1: return "op=topk" + t + kk + " metric=symdiff answer=any-size";
    case 2: return "op=topk" + t + kk + " metric=intersection answer=mean";
    case 3: return "op=topk" + t + kk + " metric=intersection answer=approx";
    case 4: return "op=topk" + t + kk + " metric=footrule answer=mean";
    case 5: return "op=baseline" + t + kk + " method=escore";
    case kErankTemplate: return "op=baseline" + t + kk + " method=erank";
    case 7: return "op=baseline" + t + kk + " method=global";
    case 8: return "op=baseline" + t + kk + " method=prf";
    case 9: return "op=world" + t + " answer=mean";
    case 10: return "op=world" + t + " answer=median";
    case 11: return "op=marginals" + t;
    case 12: return "op=aggregate" + t;
    default: return "op=hardness" + t;
  }
}

// One cold_sweep batch body for `tree`: the symdiff mean at every k (the
// cross-k fold), a footrule tail and a prf baseline on distributions the
// batch also folds, then the marginals fold and a world on top of it.
std::vector<std::string> Sweep(const WorkloadSpec& spec,
                               const std::string& tree) {
  const std::string t = " tree=" + tree;
  std::vector<std::string> out;
  for (int k : spec.ks) {
    out.push_back("op=topk" + t + " k=" + std::to_string(k) +
                  " metric=symdiff answer=mean");
  }
  out.push_back("op=topk" + t + " k=" + std::to_string(spec.ks[1]) +
                " metric=footrule answer=mean");
  out.push_back("op=baseline" + t + " k=" + std::to_string(spec.ks.back()) +
                " method=prf");
  out.push_back("op=marginals" + t);
  out.push_back("op=world" + t + " answer=mean");
  return out;
}

class ZipfSampler {
 public:
  ZipfSampler(int n, double theta) : cdf_(static_cast<size_t>(n)) {
    double sum = 0.0;
    for (int i = 0; i < n; ++i) {
      sum += 1.0 / std::pow(static_cast<double>(i + 1), theta);
      cdf_[static_cast<size_t>(i)] = sum;
    }
    for (double& c : cdf_) c /= sum;
  }
  int Sample(std::mt19937_64& rng) const {
    const double u = Uniform(rng, 0.0, 1.0);
    const auto it = std::upper_bound(cdf_.begin(), cdf_.end(), u);
    return static_cast<int>(
        std::min<std::ptrdiff_t>(it - cdf_.begin(),
                                 static_cast<std::ptrdiff_t>(cdf_.size()) - 1));
  }

 private:
  std::vector<double> cdf_;
};

// warm_zipf / heavy_tail: Zipf-chosen trees (rank i is shape i, so the
// size mix of the hot set is the same for every seed), a uniformly chosen
// cheap template and k, a stats probe every kStatsEvery requests, an erank
// baseline every kErankEvery and, when spec.tails is set, one uncacheable tail
// every kTailEvery requests. Tails are placed and sized deterministically —
// alternating Kendall mean and symdiff median, round-robin over the shapes,
// k cycling — so their cost does not depend on the seed. The warm-up pass
// sends every (tree, template, k) once.
Sequence StreamSequence(const WorkloadSpec& spec, std::mt19937_64& rng,
                        int count) {
  Sequence seq;
  auto add = [](Requests* r, const std::string& line) {
    r->Add(line);
    r->EndUnit();
  };
  for (int s = 0; s < spec.num_shapes; ++s) {
    for (int id = 0; id < kNumTemplates; ++id) {
      if (id < kNumKTemplates) {
        for (int k : spec.ks) add(&seq.warmup, CheapRequest(ShapeName(s), id, k));
      } else {
        add(&seq.warmup, CheapRequest(ShapeName(s), id, 0));
      }
    }
  }
  ZipfSampler zipf(spec.num_shapes, kZipfTheta);
  int tail = 0;
  const int num_ks = static_cast<int>(spec.ks.size());
  for (int i = 0; i < count; ++i) {
    if (i % kStatsEvery == kStatsEvery - 1) {
      add(&seq.timed, "op=stats");
      continue;
    }
    if (spec.tails && i % kTailEvery == kTailEvery / 2) {
      const std::string tree = ShapeName((tail / 2) % spec.num_shapes);
      const int k = spec.ks[static_cast<size_t>(
          (tail / (2 * spec.num_shapes)) % num_ks)];
      add(&seq.timed, "op=topk tree=" + tree + " k=" + std::to_string(k) +
                          (tail % 2 == 0 ? " metric=kendall answer=mean"
                                         : " metric=symdiff answer=median"));
      ++tail;
      continue;
    }
    const int shape = zipf.Sample(rng);
    int id = static_cast<int>(Below(rng, kNumTemplates - 1));
    if (id >= kErankTemplate) ++id;  // erank has its own cadence
    if (i % kErankEvery == kErankEvery / 2) id = kErankTemplate;
    const int k = spec.ks[Below(rng, static_cast<uint64_t>(num_ks))];
    add(&seq.timed, CheapRequest(ShapeName(shape), id, k));
  }
  return seq;
}

// cold_sweep: batches walk a seeded cycle over the base shapes; every
// kLoadEvery-th batch instead loads a fresh tree and sweeps it. The
// warm-up sweeps the cycle's last shapes, which the timed cycle reaches
// last — by then the budget has evicted them, so warm-up buys no hits.
Sequence SweepSequence(const WorkloadSpec& spec, std::mt19937_64& rng,
                       int count, const std::string& dir) {
  Sequence seq;
  auto add_sweep = [&spec](Requests* r, const std::string& tree) {
    for (const std::string& line : Sweep(spec, tree)) r->Add(line);
    r->EndUnit();
  };
  const std::vector<int> cycle = Permutation(rng, spec.num_shapes);
  const int warm = std::min(16, spec.num_shapes);
  for (int i = spec.num_shapes - warm; i < spec.num_shapes; ++i) {
    add_sweep(&seq.warmup, ShapeName(cycle[static_cast<size_t>(i)]));
  }
  int next_base = 0;
  int next_fresh = 0;
  for (int b = 0; b < count; ++b) {
    if (b % kLoadEvery == kLoadEvery - 1) {
      const std::string name = "fresh" + std::to_string(next_fresh);
      seq.timed.Add("op=load name=" + name + " file=" + dir + "/fresh_" +
                    std::to_string(next_fresh) + ".tree");
      add_sweep(&seq.timed, name);
      ++next_fresh;
    } else {
      add_sweep(&seq.timed,
                ShapeName(cycle[static_cast<size_t>(next_base++ %
                                                    spec.num_shapes)]));
    }
  }
  return seq;
}

std::string WriteRequests(const std::string& path, const Requests& r) {
  std::ofstream out(path);
  for (size_t u = 0; u < r.units(); ++u) {
    for (size_t i = r.unit_begin(u); i < r.unit_begin(u + 1); ++i) {
      out << r.line(i) << '\n';
    }
    out << '\n';
  }
  out.close();
  return out ? "" : "cannot write " + path;
}

std::string ReadRequests(const std::string& path, Requests* r) {
  std::ifstream in(path);
  if (!in) return "cannot read " + path;
  bool open_unit = false;
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty()) {
      if (open_unit) r->EndUnit();
      open_unit = false;
    } else {
      r->Add(line);
      open_unit = true;
    }
  }
  if (open_unit) r->EndUnit();
  return "";
}

}  // namespace

bool LookupWorkload(const std::string& name, bool smoke, WorkloadSpec* spec) {
  WorkloadSpec s;
  s.name = name;
  if (name == "warm_zipf") {
    s.num_shapes = 64;
    s.min_keys = s.max_keys = 48;
    s.ks = {5, 6, 7};
    s.snapshot_dists = true;
    s.units_per_second = 12000;
    s.setup_reps = 7;
    if (smoke) {
      s.num_shapes = 6;
      s.min_keys = s.max_keys = 16;
      s.units_per_second = 200;
    }
  } else if (name == "cold_sweep") {
    s.batch_mode = true;
    s.num_shapes = 512;
    s.min_keys = s.max_keys = 32;
    s.ks = {4, 8, 12, 16};
    s.fresh_keys = 64;
    s.cache_budget = 256 << 10;
    s.units_per_second = 300;
    s.setup_reps = 15;
    if (smoke) {
      s.num_shapes = 12;
      s.min_keys = s.max_keys = 16;
      s.fresh_keys = 24;
      s.cache_budget = 16 << 10;
      s.units_per_second = 30;
    }
  } else if (name == "heavy_tail") {
    s.num_shapes = 16;
    s.min_keys = 24;
    s.max_keys = 32;
    s.scenarios = 4;
    s.tails = true;
    s.ks = {5, 6, 7};
    s.snapshot_dists = true;
    s.units_per_second = 2600;
    s.setup_reps = 25;
    if (smoke) {
      s.num_shapes = 4;
      s.min_keys = 10;
      s.max_keys = 12;
      s.units_per_second = 150;
    }
  } else {
    return false;
  }
  *spec = std::move(s);
  return true;
}

std::string ShapeName(int index) { return "s" + std::to_string(index); }

std::string ShapeText(uint64_t seed, int index, int num_keys, int scenarios) {
  std::mt19937_64 rng(seed * 0x9E3779B97F4A7C15ULL +
                      static_cast<uint64_t>(index));
  const int num_leaves = scenarios * num_keys;
  const std::vector<int> scores = Permutation(rng, num_leaves);
  int next_leaf = 0;
  std::string out = "(and";
  for (int first = 1; first <= num_keys; first += 4) {
    const int last = std::min(num_keys, first + 3);
    // Scenario weights: a random split of a total mass in [0.6, 1).
    std::vector<double> weights(static_cast<size_t>(scenarios));
    double sum = 0.0;
    for (double& w : weights) sum += (w = Uniform(rng, 0.5, 1.5));
    const double mass = Uniform(rng, 0.6, 1.0);
    out += " (xor";
    for (double w : weights) {
      out += " " + Prob(mass * w / sum) + " (and";
      for (int key = first; key <= last; ++key) {
        const int score = scores[static_cast<size_t>(next_leaf++)] + 1;
        out += " (xor " + Prob(Uniform(rng, 0.3, 0.95)) +
               " (leaf key=" + std::to_string(key) +
               " score=" + std::to_string(score) +
               " label=" + std::to_string(Below(rng, 4)) + "))";
      }
      out += ")";
    }
    out += ")";
  }
  return out + ")";
}

std::string GenerateInputs(const WorkloadSpec& spec, uint64_t seed,
                           int seconds, const std::string& dir) {
  // The snapshot is built through the program's own save path: insert the
  // shapes, fold the distributions the run will ask for, and capture.
  cpdb::EngineOptions engine_options;
  engine_options.num_threads = 2;
  cpdb::SchedulerOptions options;
  options.enable_metrics = false;
  cpdb::ShardedScheduler front(1, engine_options, options);
  std::vector<cpdb::ServiceRequest> folds;
  for (int s = 0; s < spec.num_shapes; ++s) {
    cpdb::Result<cpdb::AndXorTree> tree =
        cpdb::ParseTree(ShapeText(seed, s, KeysOf(spec, s), spec.scenarios));
    if (!tree.ok()) return "shape " + ShapeName(s) + ": " + tree.status().ToString();
    cpdb::Result<cpdb::CatalogEntry> entry =
        front.Insert(ShapeName(s), *std::move(tree));
    if (!entry.ok()) return entry.status().ToString();
    for (int k : spec.ks) {
      cpdb::ServiceRequest request;
      request.tree_name = ShapeName(s);
      request.k = k;
      folds.push_back(request);
    }
  }
  if (spec.snapshot_dists) {
    for (const auto& result : front.ExecuteBatch(folds)) {
      if (!result.ok()) return result.status().ToString();
    }
  }
  cpdb::Status written = cpdb::WriteCatalogSnapshotFile(
      dir + "/catalog.snap", front.BuildSnapshot(spec.snapshot_dists));
  if (!written.ok()) return written.ToString();

  std::mt19937_64 rng(seed ^ 0xC0FFEE123456789ULL);
  const int count = std::max(1, spec.units_per_second * seconds);
  Sequence seq;
  if (spec.batch_mode) {
    seq = SweepSequence(spec, rng, count, dir);
    const int fresh = count / kLoadEvery;
    for (int j = 0; j < fresh; ++j) {
      const std::string path = dir + "/fresh_" + std::to_string(j) + ".tree";
      std::ofstream out(path);
      out << ShapeText(seed, spec.num_shapes + j, spec.fresh_keys,
                       spec.scenarios)
          << '\n';
      if (!out) return "cannot write " + path;
    }
  } else {
    seq = StreamSequence(spec, rng, count);
  }
  std::string error = WriteRequests(dir + "/warmup.txt", seq.warmup);
  if (error.empty()) error = WriteRequests(dir + "/timed.txt", seq.timed);
  return error;
}

std::string ReadSequence(const std::string& dir, Sequence* out) {
  std::string error = ReadRequests(dir + "/warmup.txt", &out->warmup);
  if (error.empty()) error = ReadRequests(dir + "/timed.txt", &out->timed);
  return error;
}

void Requests::Add(const std::string& line) {
  text_ += line;
  line_start_.push_back(static_cast<uint32_t>(text_.size()));
}

void Requests::EndUnit() {
  unit_start_.push_back(static_cast<uint32_t>(lines()));
}

Requests Requests::WithSuffix(const std::string& suffix) const {
  Requests out;
  for (size_t u = 0; u < units(); ++u) {
    for (size_t i = unit_begin(u); i < unit_begin(u + 1); ++i) {
      out.Add(line(i) + suffix);
    }
    out.EndUnit();
  }
  return out;
}

}  // namespace servebench
