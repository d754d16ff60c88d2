// Broker-side query-result cache. Web query streams are Zipf-skewed — a
// small head of popular queries recurs constantly — so caching merged top-k
// results at the broker absorbs the head before it ever touches a shard
// (saving the whole scatter/gather fan-out, not just one node's work).
//
// Keys are (term sequence, k), order-sensitive: the match set of a
// conjunctive query ignores term order, but BM25 sums per-term scores in
// query order, so "a b" and "b a" can differ in the last float bit and must
// not share an entry. k participates because a k=10 entry cannot serve a
// k=100 request. Classic LRU over a doubly linked list + hash map, O(1)
// lookup/insert/evict.
#pragma once

#include <cstdint>
#include <list>
#include <unordered_map>
#include <vector>

#include "core/query.h"

namespace griffin::cluster {

struct CacheKey {
  std::vector<index::TermId> terms;  ///< in query order
  std::uint32_t k = 0;

  bool operator==(const CacheKey& o) const = default;
};

/// Builds the (terms as given, k) key for a query.
CacheKey make_cache_key(const core::Query& q);

struct CacheKeyHash {
  std::size_t operator()(const CacheKey& key) const;
};

struct CacheStats {
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
  std::uint64_t insertions = 0;
  std::uint64_t evictions = 0;

  double hit_rate() const {
    const std::uint64_t n = hits + misses;
    return n == 0 ? 0.0 : static_cast<double>(hits) / static_cast<double>(n);
  }
};

class ResultCache {
 public:
  /// capacity = max resident entries (0 = no count bound); byte_budget
  /// bounds resident memory in bytes (0 = no byte bound) — entry sizes vary
  /// with k and term count, so a count bound alone does not actually bound
  /// broker memory. Both zero disables the cache entirely (lookups always
  /// miss, inserts are dropped).
  explicit ResultCache(std::size_t capacity, std::uint64_t byte_budget = 0)
      : capacity_(capacity), byte_budget_(byte_budget) {}

  bool enabled() const { return capacity_ != 0 || byte_budget_ != 0; }

  /// Resident bytes of one entry: key terms + scored docs + bookkeeping.
  static std::uint64_t entry_bytes(const CacheKey& key,
                                   const std::vector<core::ScoredDoc>& topk) {
    return 64 + key.terms.size() * sizeof(index::TermId) +
           topk.size() * sizeof(core::ScoredDoc);
  }

  /// Returns the cached top-k and refreshes recency, or nullptr on miss.
  const std::vector<core::ScoredDoc>* lookup(const CacheKey& key);

  /// Inserts (or refreshes) an entry, evicting least recently used entries
  /// until both the count and byte bounds hold. An entry larger than the
  /// whole byte budget is dropped.
  void insert(const CacheKey& key, std::vector<core::ScoredDoc> topk);

  std::size_t size() const { return entries_.size(); }
  std::size_t capacity() const { return capacity_; }
  /// Resident bytes across all entries.
  std::uint64_t bytes() const { return bytes_; }
  std::uint64_t byte_budget() const { return byte_budget_; }
  const CacheStats& stats() const { return stats_; }

 private:
  struct Entry {
    CacheKey key;
    std::vector<core::ScoredDoc> topk;
    std::uint64_t bytes = 0;
  };
  using Lru = std::list<Entry>;

  void evict_to_bounds();

  std::size_t capacity_;
  std::uint64_t byte_budget_;
  std::uint64_t bytes_ = 0;
  Lru lru_;  // front = most recent
  std::unordered_map<CacheKey, Lru::iterator, CacheKeyHash> entries_;
  CacheStats stats_;
};

}  // namespace griffin::cluster
