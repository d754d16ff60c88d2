// Device-resident compressed posting lists and the bit-stream access helper
// kernels use. Uploading a list moves its payload blob and a packed copy of
// its skip table across the modeled PCIe link; the host keeps the skip table
// too because the scheduler (and block-selection logic) reads it for free,
// exactly as a real host-side driver would.
#pragma once

#include <cstdint>
#include <vector>

#include "codec/block_codec.h"
#include "pcie/link.h"
#include "simt/device.h"
#include "simt/kernel.h"

namespace griffin::gpu {

using codec::DocId;

/// POD per-block descriptor as laid out in device memory: the skip entry
/// plus the tagged per-scheme header, so any codec's kernel decodes a block
/// from (desc, blob) alone.
struct BlockDesc {
  std::uint32_t first = 0;
  std::uint32_t last = 0;
  std::uint64_t bit_offset = 0;
  std::uint16_t count = 0;
  codec::BlockHeader hdr;
  /// Exclusive prefix of counts: position of the block's first posting.
  std::uint64_t out_offset = 0;
};

/// A compressed list resident in device memory.
struct DeviceList {
  codec::Scheme scheme = codec::Scheme::kEliasFano;
  std::uint32_t block_size = codec::kDefaultBlockSize;
  std::uint64_t size = 0;
  simt::DeviceBuffer<std::uint64_t> blob;
  simt::DeviceBuffer<BlockDesc> descs;
  std::vector<BlockDesc> host_descs;  ///< host mirror (skip table)

  std::size_t num_blocks() const { return host_descs.size(); }

  /// Compressed payload bytes of one block.
  std::uint64_t block_payload_bytes(std::size_t b) const {
    const std::uint64_t begin = host_descs[b].bit_offset;
    const std::uint64_t end = b + 1 < host_descs.size()
                                  ? host_descs[b + 1].bit_offset
                                  : blob.size() * 64;
    return (end - begin + 7) / 8;
  }
};

/// Uploads `list` to the device, charging allocations and transfers. With
/// defer_payload, only the skip table's transfer is charged up front — the
/// paper's high-ratio path binary-searches the skip pointers first and
/// "only transfers, decompresses, and processes those blocks" (§3.1.2); pay
/// for the selected blocks later via charge_block_payload_upload.
DeviceList upload_list(simt::Device& dev, const codec::BlockCompressedList& list,
                       const pcie::Link& link, pcie::TransferLedger& ledger,
                       bool defer_payload = false);

/// Charges the transfer of the selected blocks' payloads (deferred upload).
void charge_block_payload_upload(const DeviceList& list,
                                 std::span<const std::uint32_t> ids,
                                 const pcie::Link& link,
                                 pcie::TransferLedger& ledger);

/// In-kernel bit-stream read: `len` bits at absolute bit offset `pos` from a
/// device u64 blob. Issues one or two coalescible global loads.
std::uint64_t load_bits(simt::Thread& t,
                        const simt::DeviceBuffer<std::uint64_t>& blob,
                        std::uint64_t pos, std::uint32_t len);

}  // namespace griffin::gpu
