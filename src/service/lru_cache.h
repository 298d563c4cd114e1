// Copyright 2026 The ConsensusDB Authors
//
// CostLruCache — the core behind the serving layer's memo cache
// (RankDistCache): a thread-safe key -> shared_ptr<const Value> store with
//
//   * cost-aware LRU eviction under a byte budget. Each retained value is
//     charged a caller-supplied byte cost; whenever the charged total would
//     exceed the budget, least-recently-used entries are dropped until it
//     fits. The budget bounds *retained* state only — values being computed
//     or still referenced by in-flight queries live on through their
//     shared_ptr, so eviction can never invalidate a handle; and
//
//   * single-flight computation. Concurrent GetOrCompute misses for one key
//     run `compute` exactly once: the first caller computes (outside the
//     lock, so a fold fanning across the engine's thread pool never
//     serializes unrelated cache traffic), later callers block on that
//     in-flight computation and share its result. Under serve traffic the
//     duplicated O(L^2 k) fold this prevents is the difference between a
//     thundering herd recomputing a hot tree and one fold per key.
//
// Values must be deterministic functions of their key (the serving layer
// caches only engine results, which are schedule-deterministic) — that is
// what makes eviction and coalescing invisible in answers: recomputing an
// evicted entry reproduces it bit for bit, and a coalesced caller receives
// exactly the bytes it would have computed itself.

#ifndef CPDB_SERVICE_LRU_CACHE_H_
#define CPDB_SERVICE_LRU_CACHE_H_

#include <condition_variable>
#include <cstdint>
#include <functional>
#include <list>
#include <map>
#include <memory>
#include <mutex>
#include <utility>
#include <vector>

namespace cpdb {

/// \brief Byte budget meaning "never evict" (the default for schedulers
/// constructed without --cache-budget).
inline constexpr int64_t kUnboundedCacheBytes = -1;

/// \brief Counters describing cache behavior since construction (or the
/// last Clear). Every GetOrCompute call lands in exactly one of hits /
/// misses / coalesced, so the three sum to the call count.
struct CacheStats {
  int64_t hits = 0;       ///< entry was retained; served without computing
  int64_t misses = 0;     ///< this call ran `compute`
  int64_t coalesced = 0;  ///< waited on another caller's in-flight compute
  int64_t entries = 0;    ///< retained entries right now
  int64_t bytes = 0;      ///< charged bytes of retained entries right now
  int64_t evictions = 0;  ///< entries dropped to fit the byte budget
};

/// \brief Thread-safe single-flight memo with cost-aware LRU eviction.
///
/// Concurrency: all members may be called from any thread. `compute` and
/// `cost` run outside the internal lock; everything else (map updates, LRU
/// maintenance, eviction, counters) runs under it, so stats() snapshots are
/// consistent — in particular, bytes <= byte_budget() in every snapshot.
template <typename Key, typename Value>
class CostLruCache {
 public:
  /// \brief `cost(value)` is the byte charge for retaining `value`;
  /// `byte_budget` < 0 disables eviction, 0 retains nothing (the cache
  /// still coalesces concurrent computes — a pure single-flight gate).
  CostLruCache(int64_t byte_budget,
               std::function<int64_t(const Value&)> cost)
      : byte_budget_(byte_budget), cost_(std::move(cost)) {}

  /// \brief The value for `key`, invoking `compute` on a miss (at most once
  /// across concurrent callers) and retaining the result under the budget.
  /// The returned handle stays valid after eviction or Clear (shared
  /// ownership).
  ///
  /// If `compute` throws, the exception propagates to the computing caller
  /// and the in-flight record is abandoned (done, no value): coalesced
  /// waiters wake and retry as fresh callers rather than hanging on a
  /// flight that will never land — a transient failure must not wedge its
  /// key forever in a long-lived server. A waiter is counted once it is
  /// answered (as a hit, miss or coalesced), so a retry counts once too.
  ///
  /// `accept`, when set, narrows what answers this call: a retained value
  /// it rejects is a miss whose computed value replaces it (the charge
  /// moves by the difference; handles to the old value stay valid), and a
  /// caller that finds a flight in progress waits for it to land and is
  /// counted coalesced only if the landed value passes — otherwise it
  /// starts over, so there is still one flight per key. `compute` must
  /// return a value `accept` passes.
  std::shared_ptr<const Value> GetOrCompute(
      const Key& key, const std::function<Value()>& compute,
      const std::function<bool(const Value&)>& accept = nullptr) {
    std::unique_lock<std::mutex> lock(mu_);
    for (;;) {
      auto it = entries_.find(key);
      if (it != entries_.end() && (!accept || accept(*it->second.value))) {
        ++stats_.hits;
        lru_.splice(lru_.begin(), lru_, it->second.lru_it);
        return it->second.value;
      }
      auto in_flight = inflight_.find(key);
      if (in_flight != inflight_.end()) {
        // Single-flight: somebody is already computing this key. Wait for
        // their result instead of duplicating the fold; keep a handle on
        // the flight record, which outlives its inflight_ slot.
        std::shared_ptr<Flight> flight = in_flight->second;
        cv_.wait(lock, [&] { return flight->done; });
        if (flight->value != nullptr &&
            (!accept || accept(*flight->value))) {
          ++stats_.coalesced;
          return flight->value;
        }
        continue;  // threw, or landed too narrow: start over afresh
      }
      break;
    }
    ++stats_.misses;
    auto flight = std::make_shared<Flight>();
    inflight_.emplace(key, flight);
    lock.unlock();
    // Compute (and price) outside the lock: the fold may fan across a
    // thread pool and must not serialize unrelated cache traffic behind
    // it.
    std::shared_ptr<const Value> value;
    int64_t charged = 0;
    try {
      value = std::make_shared<const Value>(compute());
      charged = cost_ ? cost_(*value) : 0;
    } catch (...) {
      lock.lock();
      flight->done = true;  // value stays null: "failed", not "pending"
      inflight_.erase(key);
      cv_.notify_all();
      throw;
    }
    lock.lock();
    flight->value = value;
    flight->done = true;
    inflight_.erase(key);
    cv_.notify_all();
    // Retain under the budget. An entry whose own cost exceeds the whole
    // budget is served but never retained (retaining then instantly
    // evicting it would cycle the cache for nothing); with the budget at 0
    // that is every entry, which reduces the cache to its single-flight
    // gate. No other caller can have inserted `key` meanwhile — they would
    // have coalesced on our flight — so the only entry this can replace is
    // the one `accept` rejected.
    if (byte_budget_ < 0 || charged <= byte_budget_) {
      auto old = entries_.find(key);
      if (old != entries_.end()) {
        stats_.bytes -= old->second.bytes;
        lru_.erase(old->second.lru_it);
        entries_.erase(old);
      }
      lru_.push_front(key);
      entries_.emplace(key, Entry{value, charged, lru_.begin()});
      stats_.bytes += charged;
      stats_.entries = static_cast<int64_t>(entries_.size());
      EvictToBudgetLocked();
    }
    return value;
  }

  /// \brief The retained entry, or nullptr without computing or waiting.
  /// A probe, not a query: no stats, and the LRU order is left untouched.
  std::shared_ptr<const Value> Peek(const Key& key) const {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = entries_.find(key);
    return it == entries_.end() ? nullptr : it->second.value;
  }

  /// \brief Retains `value` for `key` without computing — the seam a warm
  /// restart uses to seed a cache from persisted state. Charged and
  /// LRU-evicted exactly like a computed entry (an oversized value is
  /// silently not retained, same as GetOrCompute), but counted in no
  /// hit/miss/coalesced counter: seeding is provisioning, not traffic.
  /// A key already retained or currently in flight is left alone (the
  /// existing value wins — it was computed by the engine this process
  /// trusts); returns whether `value` was retained.
  bool Put(const Key& key, std::shared_ptr<const Value> value) {
    if (value == nullptr) return false;
    const int64_t charged = cost_ ? cost_(*value) : 0;
    std::lock_guard<std::mutex> lock(mu_);
    if (entries_.find(key) != entries_.end() ||
        inflight_.find(key) != inflight_.end()) {
      return false;
    }
    if (byte_budget_ >= 0 && charged > byte_budget_) return false;
    lru_.push_front(key);
    entries_.emplace(key, Entry{std::move(value), charged, lru_.begin()});
    stats_.bytes += charged;
    stats_.entries = static_cast<int64_t>(entries_.size());
    EvictToBudgetLocked();
    return true;
  }

  /// \brief All retained entries in key order (deterministic: the map's
  /// order, independent of insertion or LRU history) — the enumeration a
  /// snapshot save walks. Handles share ownership, so the caller's view
  /// stays valid however the cache evicts afterwards.
  std::vector<std::pair<Key, std::shared_ptr<const Value>>> Entries() const {
    std::lock_guard<std::mutex> lock(mu_);
    std::vector<std::pair<Key, std::shared_ptr<const Value>>> entries;
    entries.reserve(entries_.size());
    for (const auto& [key, entry] : entries_) {
      entries.emplace_back(key, entry.value);
    }
    return entries;
  }

  /// \brief Counter snapshot (consistent: taken under the lock).
  CacheStats stats() const {
    std::lock_guard<std::mutex> lock(mu_);
    return stats_;
  }

  int64_t byte_budget() const { return byte_budget_; }

  /// \brief Drops all retained entries and resets the counters. In-flight
  /// computations are not interrupted: they complete, wake their waiters,
  /// and retain their (freshly charged) results.
  void Clear() {
    std::lock_guard<std::mutex> lock(mu_);
    entries_.clear();
    lru_.clear();
    stats_ = CacheStats();
  }

 private:
  struct Flight {
    bool done = false;
    std::shared_ptr<const Value> value;
  };
  struct Entry {
    std::shared_ptr<const Value> value;
    int64_t bytes = 0;
    typename std::list<Key>::iterator lru_it;
  };

  void EvictToBudgetLocked() {
    if (byte_budget_ < 0) return;
    while (stats_.bytes > byte_budget_ && !lru_.empty()) {
      auto it = entries_.find(lru_.back());
      stats_.bytes -= it->second.bytes;
      ++stats_.evictions;
      entries_.erase(it);
      lru_.pop_back();
    }
    stats_.entries = static_cast<int64_t>(entries_.size());
  }

  const int64_t byte_budget_;
  const std::function<int64_t(const Value&)> cost_;
  mutable std::mutex mu_;
  std::condition_variable cv_;
  // front = most recently used; entries_ holds the iterator for O(1) touch.
  std::list<Key> lru_;
  std::map<Key, Entry> entries_;
  std::map<Key, std::shared_ptr<Flight>> inflight_;
  CacheStats stats_;
};

}  // namespace cpdb

#endif  // CPDB_SERVICE_LRU_CACHE_H_
