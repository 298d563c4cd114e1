// Copyright 2026 The ConsensusDB Authors

#include "service/rank_dist_cache.h"

#include <utility>

namespace cpdb {

namespace {

// The k-view of a retained entry; the entry itself when it is exactly k
// wide, so same-k callers share one handle.
std::shared_ptr<const RankDistribution> ViewAt(
    std::shared_ptr<const RankDistribution> dist, int k) {
  if (dist == nullptr || dist->k() == k) return dist;
  return std::make_shared<const RankDistribution>(dist->Prefix(k));
}

}  // namespace

RankDistCache::RankDistCache(int64_t byte_budget)
    : cache_(byte_budget,
             [](const RankDistribution& dist) { return dist.ApproxBytes(); }) {}

std::shared_ptr<const RankDistribution> RankDistCache::GetOrCompute(
    StructKey struct_key, int k,
    const std::function<RankDistribution()>& compute) {
  return ViewAt(
      cache_.GetOrCompute(
          struct_key.value(), compute,
          [k](const RankDistribution& dist) { return dist.k() >= k; }),
      k);
}

std::shared_ptr<const RankDistribution> RankDistCache::Peek(
    StructKey struct_key, int k) const {
  std::shared_ptr<const RankDistribution> dist =
      cache_.Peek(struct_key.value());
  return dist != nullptr && dist->k() >= k ? ViewAt(std::move(dist), k)
                                           : nullptr;
}

bool RankDistCache::Seed(StructKey struct_key,
                         std::shared_ptr<const RankDistribution> dist) {
  return cache_.Put(struct_key.value(), std::move(dist));
}

std::vector<RankDistCache::RetainedEntry> RankDistCache::RetainedEntries()
    const {
  std::vector<RetainedEntry> entries;
  for (auto& [key, dist] : cache_.Entries()) {
    entries.push_back(RetainedEntry{StructKey(key), std::move(dist)});
  }
  return entries;
}

CacheStats RankDistCache::stats() const { return cache_.stats(); }

void RankDistCache::Clear() { cache_.Clear(); }

}  // namespace cpdb
