// Device-resident posting-list cache: an LRU of uploaded DeviceLists keyed
// by TermId, bounded by a byte budget carved out of the modeled device
// memory (GpuOptions::list_cache_bytes). The paper identifies the PCIe
// transfer as the overhead the scheduler must amortize (§2.3); GPU-resident
// inverted indexes are how follow-up systems (GENIE, GPUSparse) remove it
// for hot terms — a term whose compressed list is already on the device
// skips the payload transfer and allocation charges entirely on later
// queries.
//
// Entries hold the *compressed* list (payload blob + skip table), exactly
// what upload_list places on the device: decoded outputs stay per-query
// scratch, so the cache stores each posting once at its compressed size.
// Eviction destroys the DeviceBuffers, which un-reserves the device memory.
#pragma once

#include <cstdint>

#include "codec/block_codec.h"
#include "gpu/device_list.h"
#include "index/inverted_index.h"
#include "util/lru_cache.h"

namespace griffin::gpu {

/// Device-memory footprint of a list once uploaded: payload blob words plus
/// the packed per-block descriptors.
struct DeviceListBytes {
  std::uint64_t operator()(index::TermId /*t*/, const DeviceList& l) const {
    return l.blob.size() * sizeof(std::uint64_t) +
           l.descs.size() * sizeof(BlockDesc);
  }
};

/// byte_budget = 0 disables the cache; the GpuExecutor builds it with no
/// entry-count bound.
using DeviceListCache =
    util::ByteLruCache<index::TermId, DeviceList, DeviceListBytes>;

}  // namespace griffin::gpu
