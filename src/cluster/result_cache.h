// Broker-side query-result cache. Web query streams are Zipf-skewed — a
// small head of popular queries recurs constantly — so caching merged top-k
// results at the broker absorbs the head before it ever touches a shard
// (saving the whole scatter/gather fan-out, not just one node's work).
//
// Keys are (term sequence, k), order-sensitive: the match set of a
// conjunctive query ignores term order, but BM25 sums per-term scores in
// query order, so "a b" and "b a" can differ in the last float bit and must
// not share an entry. k participates because a k=10 entry cannot serve a
// k=100 request. The LRU itself is util::ByteLruCache, shared with the
// device list cache and the host decoded cache.
#pragma once

#include <cstdint>
#include <utility>
#include <vector>

#include "core/query.h"
#include "util/lru_cache.h"

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

/// The broker's LRU of merged top-k lists, on the shared
/// util::ByteLruCache: this wrapper only sizes the entries.
class ResultCache {
 public:
  /// capacity = max resident entries (0 = no count bound); byte_budget
  /// bounds resident memory in bytes (0 = no byte bound) — entry sizes vary
  /// with k and term count, so a count bound alone does not actually bound
  /// broker memory. Both zero disables the cache entirely (lookups always
  /// miss, inserts are dropped).
  explicit ResultCache(std::size_t capacity, std::uint64_t byte_budget = 0)
      : cache_(capacity, byte_budget) {}

  bool enabled() const { return cache_.enabled(); }

  /// Resident bytes of one entry: key terms + scored docs + bookkeeping.
  static std::uint64_t entry_bytes(const CacheKey& key,
                                   const std::vector<core::ScoredDoc>& topk) {
    return 64 + key.terms.size() * sizeof(index::TermId) +
           topk.size() * sizeof(core::ScoredDoc);
  }

  /// Returns the cached top-k and refreshes recency, or nullptr on miss.
  const std::vector<core::ScoredDoc>* lookup(const CacheKey& key) {
    return cache_.lookup(key);
  }

  /// Inserts (or refreshes) an entry, evicting least recently used entries
  /// until both the count and byte bounds hold. An entry larger than the
  /// whole byte budget is dropped.
  void insert(const CacheKey& key, std::vector<core::ScoredDoc> topk) {
    const std::uint64_t bytes = entry_bytes(key, topk);
    cache_.insert(key, std::move(topk), bytes);
  }

  std::size_t size() const { return cache_.size(); }
  /// Resident bytes across all entries.
  std::uint64_t bytes() const { return cache_.bytes(); }
  std::uint64_t byte_budget() const { return cache_.byte_budget(); }
  const util::LruStats& stats() const { return cache_.stats(); }

 private:
  util::ByteLruCache<CacheKey, std::vector<core::ScoredDoc>, CacheKeyHash>
      cache_;
};

}  // namespace griffin::cluster
