#include "cluster/result_cache.h"

#include "util/rng.h"

namespace griffin::cluster {

CacheKey make_cache_key(const core::Query& q) { return CacheKey{q.terms, q.k}; }

std::size_t CacheKeyHash::operator()(const CacheKey& key) const {
  std::uint64_t h = 0x6a09e667f3bcc908ULL ^ key.k;
  for (const auto t : key.terms) {
    std::uint64_t s = h ^ t;
    h = util::splitmix64(s);
  }
  return static_cast<std::size_t>(h);
}

const std::vector<core::ScoredDoc>* ResultCache::lookup(const CacheKey& key) {
  const auto it = entries_.find(key);
  if (it == entries_.end()) {
    ++stats_.misses;
    return nullptr;
  }
  ++stats_.hits;
  lru_.splice(lru_.begin(), lru_, it->second);  // refresh recency
  return &it->second->topk;
}

void ResultCache::insert(const CacheKey& key,
                         std::vector<core::ScoredDoc> topk) {
  if (!enabled()) return;
  const std::uint64_t entry_size = entry_bytes(key, topk);
  // An entry the whole budget cannot hold would evict everything and still
  // overflow; drop it instead.
  if (byte_budget_ != 0 && entry_size > byte_budget_) return;
  const auto it = entries_.find(key);
  if (it != entries_.end()) {
    bytes_ -= it->second->bytes;
    it->second->topk = std::move(topk);
    it->second->bytes = entry_size;
    bytes_ += entry_size;
    lru_.splice(lru_.begin(), lru_, it->second);
    evict_to_bounds();
    return;
  }
  lru_.push_front(Entry{key, std::move(topk), entry_size});
  entries_.emplace(lru_.front().key, lru_.begin());
  bytes_ += entry_size;
  ++stats_.insertions;
  evict_to_bounds();
}

void ResultCache::evict_to_bounds() {
  // size() > 1 keeps the just-inserted front entry: it fits alone.
  while (((capacity_ != 0 && entries_.size() > capacity_) ||
          (byte_budget_ != 0 && bytes_ > byte_budget_)) &&
         lru_.size() > 1) {
    bytes_ -= lru_.back().bytes;
    entries_.erase(lru_.back().key);
    lru_.pop_back();
    ++stats_.evictions;
  }
}

}  // namespace griffin::cluster
