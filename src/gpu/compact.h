// Stream compaction shared by the GPU intersection kernels: each launch
// block produced up to `stride` matches at temp[block * stride], in three
// planes of nblocks * stride words (the matched docIDs, each match's row on
// the probe side, and its position in the intersected list); gather them
// into one contiguous intermediate (core/rows.h): the docIDs, then the
// probe side's position columns gathered by each match's row, then the new
// positions. The per-block counts are tiny, so the offsets are computed on
// the host (one small D2H + H2D round trip), as real implementations
// commonly do. A replayed MergePath step (gpu/mergepath.h) makes the same
// allocations and copies but skips the launch: its caller writes the
// gathered matches.
#pragma once

#include <span>

#include "core/rows.h"
#include "gpu/device_list.h"

namespace griffin::gpu {

/// The probe side of an intersect as compaction gathers from it: `rows`
/// rows of an intermediate of `terms` terms, laid out as core::Rows lays
/// them out. A single decoded list has no column: a match's position in it
/// is its row, plus `first_row` when the buffer holds the list from that
/// position on.
struct ProbeRows {
  const simt::DeviceBuffer<DocId>* buf = nullptr;
  std::uint64_t rows = 0;
  std::uint32_t terms = 1;
  std::uint64_t first_row = 0;
};

struct CompactResult {
  simt::DeviceBuffer<DocId> data;
  std::uint64_t count = 0;
  sim::KernelStats stats;
};

CompactResult compact_segments(simt::Device& dev,
                               const simt::DeviceBuffer<DocId>& temp,
                               std::span<const std::uint32_t> counts_host,
                               std::uint32_t stride, ProbeRows probe,
                               const pcie::Link& link,
                               pcie::TransferLedger& ledger,
                               bool launch = true);

}  // namespace griffin::gpu
