// Host decoded-postings cache: the CPU-side mirror of gpu/list_cache.h. An
// LRU of fully decoded posting lists keyed by TermId under a host-memory
// byte budget, so hot terms skip cpu::decode_all's per-element decode and
// materialization charges on later queries. Filled only where decode_all
// already runs today (skip-path probe lists, single-term queries), so a
// cold query costs exactly what it did without the cache; warm queries
// reuse the decoded vector at zero modeled cost.
#pragma once

#include <cstdint>
#include <vector>

#include "codec/block_codec.h"
#include "index/inverted_index.h"
#include "util/lru_cache.h"

namespace griffin::cpu {

/// Host footprint of a decoded list: the DocId array plus bookkeeping.
struct DecodedBytes {
  std::uint64_t operator()(index::TermId /*t*/,
                           const std::vector<codec::DocId>& docs) const {
    return 64 + docs.size() * sizeof(codec::DocId);
  }
};

/// byte_budget = 0 disables the cache; the engine builds it with no
/// entry-count bound (CpuEngineOptions::decoded_cache_bytes).
using DecodedCache = util::ByteLruCache<index::TermId,
                                        std::vector<codec::DocId>, DecodedBytes>;

}  // namespace griffin::cpu
