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

}  // namespace griffin::cluster
