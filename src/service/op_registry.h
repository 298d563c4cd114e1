// Copyright 2026 The ConsensusDB Authors
//
// OpRegistry — the declarative table behind the serve protocol. Every op
// the protocol speaks is ONE OpSpec row declaring:
//
//   * its wire name (the single name↔enum map: parse, echo, error
//     messages, and the auto-generated per-op instruments all read it);
//   * its parameter schema (a strict parse hook — unknown fields, unknown
//     enum values, and out-of-range integers are errors, never defaults);
//   * its routing trait — how a sharded front-end places the request:
//       kTreeAddressed  routes by the named tree's StructKey to the
//                       owning shard (topk, world, marginals, aggregate,
//                       baseline, hardness);
//       kCatalogGlobal  executes on the front end, which computes the
//                       identity and inserts into the owning shard (load);
//       kAdmin          executes on the front end by merging per-shard
//                       state (stats, metrics);
//   * its batch phase — the position ExecuteBatch runs it in (loads
//     before queries before stats before metrics);
//   * how it executes: an execute hook against an abstract host (OpHost:
//     one shard's Engine + rank-distribution cache; AdminHost: the merged
//     front-end state), or — topk only — a slot in the per-shard
//     executor's fused consensus batch, and
//   * a deterministic response formatter.
//
// ShardedScheduler::ExecuteBatch and the per-shard executor behind it are
// generic walks of this table: adding an op means adding one row here
// (plus its core/engine computation), not editing six dispatch sites. The wire error for an unknown op enumerates
// the valid names from the table, so the message can never go stale.
//
// Determinism contract: every execute hook computes through
// schedule-deterministic Engine forms, so answers are bitwise identical
// for any thread count, shard count, or cache budget — the differential
// suite (tests/op_registry_test.cc) pins this. The offline CLI twins
// (marginals, topk, aggregate, baseline, hardness) answer through this
// table, so their bytes are the serve bytes for every input.

#ifndef CPDB_SERVICE_OP_REGISTRY_H_
#define CPDB_SERVICE_OP_REGISTRY_H_

#include <memory>
#include <string>
#include <vector>

#include "common/result.h"
#include "obs/clock.h"
#include "obs/metrics.h"
#include "service/query_scheduler.h"
#include "service/tree_catalog.h"

namespace cpdb {

/// \brief How a sharded front-end places a request (and which execute hook
/// an OpSpec provides).
enum class OpRouting {
  /// Addressed to one catalog tree by name: routed to the shard owning the
  /// tree's StructKey and executed there — through `execute_tree`, or as a
  /// slot of the fused consensus batch (`fuse_consensus_batch`).
  kTreeAddressed,
  /// Touches the catalog as a whole: executed on the front-end thread,
  /// which computes the identity and inserts into the owning shard.
  kCatalogGlobal,
  /// Introspection: executed on the front end by merging per-shard state
  /// through `execute_admin`.
  kAdmin,
};

/// \brief ExecuteBatch phase slots, in execution order. Loads first (a
/// batch is a unit of work: queries may reference trees loaded later in
/// the same batch), then queries, then stats (describing the batch that
/// just ran), then metrics (describing everything, stats probes included).
enum OpBatchPhase : int {
  kLoadPhase = 0,
  kQueryPhase = 1,
  kStatsPhase = 2,
  kMetricsPhase = 3,
};

/// \brief The execution surface a kTreeAddressed hook runs against: one
/// shard's engine and rank-distribution cache, as seen by one batch. The
/// per-shard executor inside ShardedScheduler implements it once per
/// batch, carrying the batch's fold plan.
class OpHost {
 public:
  virtual ~OpHost() = default;

  /// The engine tree-addressed hooks evaluate against.
  virtual const Engine* engine() const = 0;

  /// The rank distribution at cutoff k unconditionally — through the
  /// RankDistCache when enabled (a miss folds at the widest k the batch
  /// plans for the shape), computed fresh at k otherwise. The baseline
  /// rankings (method=global|prf) and the fused topk slots route here.
  virtual std::shared_ptr<const RankDistribution> RankDistFor(
      const CatalogEntry& entry, int k) = 0;
};

/// \brief The surface a kAdmin hook runs against: the front end's state,
/// merged across shards.
class AdminHost {
 public:
  virtual ~AdminHost() = default;

  /// The kStats answer as of now.
  virtual ServiceResponse StatsNow() = 0;

  /// The full metrics scrape, or the in-band refusal
  /// (MetricsDisabledError) when metrics are off.
  virtual Result<MetricsSnapshot> MetricsNow() = 0;
};

/// \brief One op, declaratively. The function members are stateless hooks
/// (plain function pointers — the table is immutable and shareable across
/// threads without synchronization).
struct OpSpec {
  ServiceRequest::Op op = ServiceRequest::Op::kTopK;

  /// The wire name: `op=<name>` on requests and responses, and the stem of
  /// the auto-registered instruments (cpdb_<name>_requests_total,
  /// cpdb_<name>_latency_nanoseconds).
  const char* name = "";

  OpRouting routing = OpRouting::kTreeAddressed;
  int batch_phase = kQueryPhase;

  /// Query-phase trait: the slot carries a consensus Top-k query that the
  /// per-shard executor folds into its single fused
  /// Engine::EvaluateConsensusBatch submission (rank distribution through
  /// the cache, one shared fold span). A fused row has no `execute_tree`:
  /// the batch is its only execution form. Only kTopK sets it.
  bool fuse_consensus_batch = false;

  /// Batch-plan hook: the cutoff k at which this request reads its
  /// shape's rank distribution, or 0 when it reads none. The per-shard
  /// executor folds each shape once per batch, at the widest k its slots
  /// report, and serves every slot a prefix view of that fold. Null for
  /// ops that never read one.
  int (*rank_dist_k)(const ServiceRequest& request) = nullptr;

  /// Maps a tokenized protocol line (op field already matched to this
  /// spec; trace already parsed) onto `request`. Strict: unknown fields
  /// for this op, unknown enum values, and out-of-range integers are
  /// errors.
  Status (*parse)(const RequestLine& line, ServiceRequest* request) = nullptr;

  /// Executes a kTreeAddressed op against its resolved catalog entry,
  /// recording cache/fold spans on `timing` (clk null = inert watches).
  /// Null for non-tree ops and for the fused row.
  Result<ServiceResponse> (*execute_tree)(OpHost& host,
                                          const CatalogEntry& entry,
                                          const ServiceRequest& request,
                                          const Clock* clk,
                                          ResponseTiming* timing) = nullptr;

  /// Executes a kAdmin op against the host's merged state. The caller owns
  /// whole-op timing and instrument records. Null for non-admin ops.
  Result<ServiceResponse> (*execute_admin)(AdminHost& host,
                                           const ServiceRequest& request) =
      nullptr;

  /// Appends the op's answer fields after the leading op=<name> field.
  /// Deterministic: field order and value formatting
  /// (FormatRoundTripDouble for doubles) are fixed here.
  void (*format)(const ServiceResponse& response,
                 std::vector<RequestField>* fields) = nullptr;
};

/// \brief The immutable op table, built once. Registration order is the
/// instrument-registration and documentation order: load, topk, world,
/// stats, metrics, marginals, aggregate, baseline, hardness — existing
/// ops first so historical scrape layouts keep their prefix.
class OpRegistry {
 public:
  static const OpRegistry& Get();

  /// All specs in registration order; specs()[i].op == Op(i).
  const std::vector<OpSpec>& specs() const { return specs_; }

  /// The spec for an op value (total: every enum value has a row).
  const OpSpec& spec(ServiceRequest::Op op) const {
    return specs_[static_cast<size_t>(op)];
  }

  /// The spec registered under a wire name, or nullptr.
  const OpSpec* FindByName(const std::string& name) const;

  /// "load, topk, ..., baseline or hardness" — the valid-op enumeration
  /// for the unknown-op error, derived from the table.
  const std::string& ExpectedOpsList() const { return expected_ops_; }

  /// The in-band error for an unrecognized op field value, enumerating
  /// every registered wire name.
  Status UnknownOpError(const std::string& op) const;

 private:
  OpRegistry();
  std::vector<OpSpec> specs_;
  std::string expected_ops_;
};

/// \brief Appends a finished span to `timing` — only when the stopwatch
/// was live, so untimed requests accumulate nothing.
void AddSpan(ResponseTiming* timing, const char* stage,
             const Stopwatch& stopwatch);

/// \brief The in-band refusal op=metrics answers when metrics are
/// disabled.
Status MetricsDisabledError();

}  // namespace cpdb

#endif  // CPDB_SERVICE_OP_REGISTRY_H_
