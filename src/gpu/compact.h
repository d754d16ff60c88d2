// Stream compaction shared by the GPU intersection kernels: each launch
// block produced up to `stride` matches at temp[block * stride]; gather them
// into one contiguous device array. The per-block counts are tiny, so the
// offsets are computed on the host (one small D2H + H2D round trip), as real
// implementations commonly do. A replayed MergePath step (gpu/mergepath.h)
// makes the same allocations and copies but skips the launch: its caller
// writes the gathered matches.
#pragma once

#include <span>

#include "gpu/device_list.h"

namespace griffin::gpu {

struct CompactResult {
  simt::DeviceBuffer<DocId> data;
  std::uint64_t count = 0;
  sim::KernelStats stats;
};

CompactResult compact_segments(simt::Device& dev,
                               const simt::DeviceBuffer<DocId>& temp,
                               std::span<const std::uint32_t> counts_host,
                               std::uint32_t stride, const pcie::Link& link,
                               pcie::TransferLedger& ledger,
                               bool launch = true);

}  // namespace griffin::gpu
