// Generic byte-budgeted LRU cache behind every caching tier of the
// repository (gpu/list_cache.h, cpu/decoded_cache.h,
// cluster/result_cache.h): classic doubly-linked-list + hash-map LRU with
// O(1) lookup/insert/evict, bounded by an entry count, a byte budget, or
// both. Each tier is an instantiation whose `Size` functor,
// `std::uint64_t operator()(const Key&, const Value&) const`, gives an
// entry's resident bytes; the cache sizes every value itself, before it
// takes ownership, so no caller has to size a value it is giving away.
//
// Lifetime contract: `lookup`/`insert` return pointers into the cache. A
// later `insert` may evict the pointed-to entry, so callers must finish
// using a returned pointer before the next insert (the engines' acquire ->
// use -> commit step ordering guarantees this).
//
// The cache is a container and counts nothing: its owner counts each
// lookup, insertion and eviction where it makes it, from what `lookup`,
// `insert` and `evict_bytes` return (core::CacheCounters for the engine
// tiers, LruStats for the broker's result cache).
#pragma once

#include <cstdint>
#include <list>
#include <unordered_map>
#include <utility>

#include "util/fields.h"

namespace griffin::util {

/// hits / (hits + misses), or 0 before the first lookup.
inline double hit_rate(std::uint64_t hits, std::uint64_t misses) {
  const std::uint64_t n = hits + misses;
  return n == 0 ? 0.0 : static_cast<double>(hits) / static_cast<double>(n);
}

/// One cache's lookup counts, kept by its owner (the broker's result cache:
/// cluster::ClusterResult::cache). The bench JSON comes from fields().
struct LruStats {
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
  std::uint64_t insertions = 0;
  std::uint64_t evictions = 0;

  static constexpr auto fields() {
    using L = LruStats;
    return std::tuple{util::field("hits", &L::hits),
                      util::field("misses", &L::misses),
                      util::field("insertions", &L::insertions),
                      util::field("evictions", &L::evictions)};
  }

  double hit_rate() const { return util::hit_rate(hits, misses); }
  bool operator==(const LruStats&) const = default;
};

template <typename Key, typename Value, typename Size,
          typename Hash = std::hash<Key>>
class ByteLruCache {
 public:
  /// max_entries = 0 means no count bound; byte_budget = 0 means no byte
  /// bound. Both zero disables the cache (inserts dropped, lookups miss).
  ByteLruCache(std::size_t max_entries, std::uint64_t byte_budget)
      : max_entries_(max_entries), byte_budget_(byte_budget) {}

  bool enabled() const { return max_entries_ != 0 || byte_budget_ != 0; }

  /// True iff `value`, which the caller still owns, could ever be resident
  /// under `key`: an oversized entry would evict the whole cache and still
  /// bust the budget, so insert() drops those.
  bool fits(const Key& key, const Value& value) const {
    return fits_bytes(Size{}(key, value));
  }

  /// Returns the resident value and refreshes recency, or nullptr.
  Value* lookup(const Key& key) {
    const auto it = map_.find(key);
    if (it == map_.end()) return nullptr;
    lru_.splice(lru_.begin(), lru_, it->second);
    return &it->second->value;
  }

  /// Residency probe: no recency refresh (the scheduler asks
  /// "would this step hit?" without committing to the step).
  bool resident(const Key& key) const { return map_.contains(key); }

  /// Sizes `value`, then inserts (or replaces) it, evicting from the LRU
  /// tail until back under both bounds. Returns a pointer to the resident
  /// value, or nullptr when the entry cannot be resident (`!fits`) — the
  /// value is dropped in that case. `evicted`, when non-null, receives the
  /// number of entries evicted by this insert.
  Value* insert(const Key& key, Value value, std::uint64_t* evicted = nullptr) {
    if (evicted != nullptr) *evicted = 0;
    const std::uint64_t bytes = Size{}(key, value);
    if (!fits_bytes(bytes)) return nullptr;
    const auto it = map_.find(key);
    if (it != map_.end()) {
      bytes_ -= it->second->bytes;
      it->second->value = std::move(value);
      it->second->bytes = bytes;
      bytes_ += bytes;
      lru_.splice(lru_.begin(), lru_, it->second);
    } else {
      lru_.push_front(Entry{key, std::move(value), bytes});
      map_.emplace(lru_.front().key, lru_.begin());
      bytes_ += bytes;
    }
    evict_to_bounds(evicted);
    return &lru_.front().value;
  }

  /// Evicts LRU-tail entries until at least `min_bytes` have been freed (or
  /// the cache is empty) — the memory-pressure valve the GPU engine's OOM
  /// degradation ladder pulls (DESIGN.md §16). `entries`, when non-null,
  /// receives how many were dropped. Returns the bytes actually freed.
  std::uint64_t evict_bytes(std::uint64_t min_bytes,
                            std::uint64_t* entries = nullptr) {
    std::uint64_t freed = 0;
    std::uint64_t n = 0;
    while (freed < min_bytes && !lru_.empty()) {
      freed += lru_.back().bytes;
      bytes_ -= lru_.back().bytes;
      map_.erase(lru_.back().key);
      lru_.pop_back();
      ++n;
    }
    if (entries != nullptr) *entries = n;
    return freed;
  }

  /// Drops one entry (fault invalidation — e.g. an ECC error retiring a
  /// cached device list). Not an eviction: the entry did not age out.
  /// Returns true when something was removed.
  bool erase(const Key& key) {
    const auto it = map_.find(key);
    if (it == map_.end()) return false;
    bytes_ -= it->second->bytes;
    lru_.erase(it->second);
    map_.erase(it);
    return true;
  }

  std::size_t size() const { return lru_.size(); }
  std::uint64_t bytes() const { return bytes_; }
  std::uint64_t byte_budget() const { return byte_budget_; }

 private:
  struct Entry {
    Key key;
    Value value;
    std::uint64_t bytes = 0;
  };
  using Lru = std::list<Entry>;

  bool fits_bytes(std::uint64_t bytes) const {
    return enabled() && (byte_budget_ == 0 || bytes <= byte_budget_);
  }

  void evict_to_bounds(std::uint64_t* evicted) {
    // The `size() > 1` guard keeps the just-inserted front entry resident:
    // `fits` already proved it can live within the budget alone.
    while (over_bounds() && lru_.size() > 1) {
      bytes_ -= lru_.back().bytes;
      map_.erase(lru_.back().key);
      lru_.pop_back();
      if (evicted != nullptr) ++*evicted;
    }
  }

  bool over_bounds() const {
    return (max_entries_ != 0 && lru_.size() > max_entries_) ||
           (byte_budget_ != 0 && bytes_ > byte_budget_);
  }

  std::size_t max_entries_;
  std::uint64_t byte_budget_;
  std::uint64_t bytes_ = 0;
  Lru lru_;  // front = most recent
  std::unordered_map<Key, typename Lru::iterator, Hash> map_;
};

}  // namespace griffin::util
