// Parallel binary-search intersection over skip pointers (paper §3.1.2,
// first class): when the longer list is >~128x the shorter one, searching
// beats merging because most blocks of the long list need not even be
// decompressed. One thread per probe element binary-searches the skip table,
// only the marked candidate blocks are decoded (Para-EF), then each probe
// binary-searches inside its decoded block.
//
// This is also the kernel whose scattered loads and data-dependent branches
// exhibit the divergence/coalescing penalties of §2.3 — visible directly in
// its KernelStats.
#pragma once

#include "gpu/compact.h"
#include "gpu/device_list.h"
#include "gpu/mergepath.h"

namespace griffin::gpu {

/// Intersects decoded ascending probes (`np` elements of `probes` starting
/// at `probe_offset`) with a compressed EF device list. Returns matches on
/// device. If the list was uploaded with defer_payload, pass
/// deferred_payload=true and only the candidate blocks' payload transfer is
/// charged (paper §3.1.2). A nonzero probe_offset runs the kernel over a
/// suffix of a device-resident probe buffer — the GPU leg of a split
/// intersect (DESIGN.md §15) — without slicing or re-uploading it.
GpuIntersectResult binary_search_intersect(
    simt::Device& dev, const simt::DeviceBuffer<DocId>& probes,
    std::uint64_t np,
                                           const DeviceList& target,
                                           const pcie::Link& link,
                                           pcie::TransferLedger& ledger,
                                           bool deferred_payload = false,
                                           std::uint64_t probe_offset = 0);

}  // namespace griffin::gpu
