// Broker-side query-result cache. Web query streams are Zipf-skewed — a
// small head of popular queries recurs constantly — so caching merged top-k
// results at the broker absorbs the head before it ever touches a shard
// (saving the whole scatter/gather fan-out, not just one node's work).
//
// Keys are (term sequence, k), order-sensitive: the match set of a
// conjunctive query ignores term order, but BM25 sums per-term scores in
// query order, so "a b" and "b a" can differ in the last float bit and must
// not share an entry. k participates because a k=10 entry cannot serve a
// k=100 request. The cache is a util::ByteLruCache, like the device list
// cache and the host decoded cache.
#pragma once

#include <cstdint>
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

/// Resident bytes of one entry: key terms + scored docs + bookkeeping.
struct ResultBytes {
  std::uint64_t operator()(const CacheKey& key,
                           const std::vector<core::ScoredDoc>& topk) const {
    return 64 + key.terms.size() * sizeof(index::TermId) +
           topk.size() * sizeof(core::ScoredDoc);
  }
};

/// The broker's LRU of merged top-k lists. Constructed as (capacity,
/// byte_budget): capacity bounds resident entries, byte_budget resident
/// bytes (0 = no bound for either) — entry sizes vary with k and term
/// count, so a count bound alone does not actually bound broker memory.
/// Both zero disables the cache entirely (lookups always miss, inserts are
/// dropped).
using ResultCache = util::ByteLruCache<CacheKey, std::vector<core::ScoredDoc>,
                                       ResultBytes, CacheKeyHash>;

}  // namespace griffin::cluster
