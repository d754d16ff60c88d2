// Codec-generic device decode: the one launch path for every scheme. Each
// SIMT block decodes one posting block with the body its scheme wants:
// Para-EF (paper Algorithm 1, gpu/ef_decode.cpp), the PForDelta kernel
// whose serial exception walk is the paper's negative result
// (gpu/pfor_decode.cpp), and a serial lane-0 fallback for the
// byte/selector codecs (VByte, Simple16) that have no lane-parallel
// structure — decoding those on the device is priced, not hidden, which is
// exactly what the scheduler's per-codec penalty models.
//
// Both entry points send every block through one record-or-replay step: a
// block's first decode from a device copy runs its body and records the
// counts in the DeviceList; later decodes add the recorded counts and write
// the docIDs with the host codec. Blocks whose output does not start on a
// memory segment always run their body (DESIGN.md §5).
#pragma once

#include "gpu/device_list.h"

namespace griffin::gpu {

/// Decodes posting blocks [lo, hi) of any device list into out, at
/// positions out_base + (desc.out_offset - descs[lo].out_offset) onward.
sim::KernelStats decode_range(simt::Device& dev, const DeviceList& list,
                              std::size_t lo, std::size_t hi,
                              simt::DeviceBuffer<DocId>& out,
                              std::uint64_t out_base = 0);

/// Decodes an arbitrary subset of posting blocks (ids ascending, device copy
/// in `ids_dev`, host copy in `ids`). Block ids[i] lands at out slot
/// i * codec::kBlockSize (slots are fixed-stride so callers can index them).
sim::KernelStats decode_selected(
    simt::Device& dev, const DeviceList& list,
    const simt::DeviceBuffer<std::uint32_t>& ids_dev,
    std::span<const std::uint32_t> ids, simt::DeviceBuffer<DocId>& out);

namespace detail {
// One-posting-block decode bodies, one SIMT block each, dispatched by the
// entry points above. `out_pos` is the absolute output position of the
// block's first element.
void ef_decode_one_block(simt::Block& blk, const DeviceList& list,
                         const BlockDesc& d, std::uint64_t desc_index,
                         simt::DeviceBuffer<DocId>& out, std::uint64_t out_pos);
void pfor_decode_one_block(simt::Block& blk, const DeviceList& list,
                           const BlockDesc& d, std::uint64_t desc_index,
                           simt::DeviceBuffer<DocId>& out,
                           std::uint64_t out_pos);
void serial_decode_one_block(simt::Block& blk, const DeviceList& list,
                             const BlockDesc& d, std::uint64_t desc_index,
                             simt::DeviceBuffer<DocId>& out,
                             std::uint64_t out_pos);

/// Shared tail of the gap-based bodies (all but Para-EF): inclusive-scan
/// the shared d-gaps and write the absolute docIDs (gap_i stores docid
/// delta - 1).
void scan_and_store(simt::Block& blk, const BlockDesc& d,
                    std::span<std::uint32_t> gaps, std::uint32_t n_gaps,
                    simt::DeviceBuffer<DocId>& out, std::uint64_t out_pos);
}  // namespace detail

}  // namespace griffin::gpu
