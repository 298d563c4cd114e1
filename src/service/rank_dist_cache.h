// Copyright 2026 The ConsensusDB Authors
//
// RankDistCache — memoizes the rank-distribution fold, the shared O(L^2 k)
// precompute behind every consensus Top-k metric, across queries that hit
// the same tree SHAPE. Keys are StructKeys alone: the structural key comes
// from the TreeCatalog's two-level identity (the content hash of the
// canonical orientation), so cache identity follows tree *structure* —
// never names, pointers, or commutative child order; permuted duplicates
// share one entry.
//
// Each key holds the widest distribution folded for that shape so far, and
// serves every narrower k as a RankDistribution::At view of it: the
// fold sums each Pr(r = i) in the same order at any cutoff, so the k-prefix
// of a fold at K is bitwise the fold at k. A request whose k the retained
// (or in-flight) entry covers is a hit (or coalesced); a wider request is a
// miss whose fold replaces the narrower entry. An entry folded at or beyond
// its shape's key count n is complete and covers every k (the engine folds
// at min(k, n), and ranks beyond n carry no mass — RankDistribution::At). Because the engine's fold is
// schedule-deterministic, a cached distribution is bit-for-bit the one a
// fresh computation would produce — serving from the cache can change
// latency only, never answers (tests/service_test.cc pins this for all
// four metrics; tests/cache_eviction_test.cc pins it across evictions,
// tests/sharded_service_test.cc across widened entries).
//
// A thin typed wrapper over CostLruCache (service/lru_cache.h), which
// supplies the three properties a long-lived serving process needs:
// single-flight computation (concurrent misses for one key fold once),
// cost-aware LRU eviction under a byte budget (entries are charged
// RankDistribution::ApproxBytes() — bytes, entries and eviction order are
// per shape — so a server under key churn holds bounded memory), and
// shared immutable handles that survive eviction and replacement.

#ifndef CPDB_SERVICE_RANK_DIST_CACHE_H_
#define CPDB_SERVICE_RANK_DIST_CACHE_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "common/hash.h"
#include "core/rank_distribution.h"
#include "service/lru_cache.h"

namespace cpdb {

/// \brief Thread-safe StructKey -> widest RankDistribution memo with
/// single-flight computation and byte-budgeted LRU eviction.
class RankDistCache {
 public:
  /// \brief `byte_budget` caps the charged bytes of retained entries
  /// (RankDistribution::ApproxBytes() each); kUnboundedCacheBytes (the
  /// default) never evicts, 0 retains nothing but still coalesces
  /// concurrent computes.
  explicit RankDistCache(int64_t byte_budget = kUnboundedCacheBytes);

  /// \brief The distribution for `struct_key` at cutoff k, as a view of the
  /// retained entry when it Covers(k). Otherwise `compute` runs — at most
  /// once across concurrent callers for one key — and must return a
  /// distribution with k() >= k (the caller may fold wider, to serve later
  /// requests of its batch); it replaces the retained entry under the
  /// budget. The returned handle has k() == k and stays valid after
  /// eviction, replacement or Clear (shared ownership).
  std::shared_ptr<const RankDistribution> GetOrCompute(
      StructKey struct_key, int k,
      const std::function<RankDistribution()>& compute);

  /// \brief The k-view of the retained entry, or nullptr when none is
  /// retained or it does not cover k. Does not count toward the stats and
  /// does not touch the LRU order (a probe, not a query).
  std::shared_ptr<const RankDistribution> Peek(StructKey struct_key,
                                               int k) const;

  /// \brief Retains a precomputed distribution for `struct_key` at its
  /// own k() — the warm-restart seam catalog snapshots use to seed a fresh
  /// cache. The caller vouches that `dist` is exactly what the engine would
  /// compute for that key (snapshot loading rebuilds it from values saved
  /// off a live cache, so the promise is structural). Charged and evicted
  /// like a computed entry; no hit/miss counter moves; an existing entry
  /// wins. Returns whether the distribution was retained.
  bool Seed(StructKey struct_key, std::shared_ptr<const RankDistribution> dist);

  /// \brief One retained entry: its shape and the shared distribution
  /// handle, at the widest k folded for it.
  struct RetainedEntry {
    StructKey struct_key;
    std::shared_ptr<const RankDistribution> dist;
  };

  /// \brief All retained entries in StructKey order — deterministic
  /// regardless of LRU history, which is what makes a snapshot saved from
  /// a live cache byte-stable. Handles share ownership.
  std::vector<RetainedEntry> RetainedEntries() const;

  /// \brief Counter snapshot; bytes <= byte_budget() in every snapshot.
  CacheStats stats() const;

  int64_t byte_budget() const { return cache_.byte_budget(); }

  /// \brief Drops all retained entries and resets the counters.
  void Clear();

 private:
  CostLruCache<uint64_t, RankDistribution> cache_;
};

}  // namespace cpdb

#endif  // CPDB_SERVICE_RANK_DIST_CACHE_H_
