// Device-resident compressed posting lists and the bit-stream access helper
// kernels use. Uploading a list moves its payload blob and a packed copy of
// its skip table across the modeled PCIe link; the host keeps the skip table
// too because the scheduler (and block-selection logic) reads it for free,
// exactly as a real host-side driver would.
//
// A device copy also carries the simulator's record of each posting block's
// decode counts (DESIGN.md §5): host memory, not modeled device memory, and
// gone with the copy.
#pragma once

#include <array>
#include <cstdint>
#include <tuple>
#include <vector>

#include "codec/block_codec.h"
#include "pcie/link.h"
#include "simt/device.h"
#include "simt/kernel.h"

namespace griffin::gpu {

using codec::DocId;

/// POD per-block descriptor as laid out in device memory: the host skip
/// entry (with its tagged per-scheme header, so any codec's kernel decodes a
/// block from (desc, blob) alone) plus the block's output position.
struct BlockDesc : codec::BlockMeta {
  /// Exclusive prefix of counts: position of the block's first posting.
  std::uint64_t out_offset = 0;
};
// The skip table's H2D bytes and the descriptor loads' segments read this.
static_assert(sizeof(codec::BlockMeta) == 32 && sizeof(BlockDesc) == 40);

/// The counts one posting block's decode body added on a device copy:
/// sim::KernelStats::body_fields(), one uint32_t each (24 B per block).
class BlockDecodeRecord {
 public:
  bool recorded() const { return counts_[0] != kUnrecorded; }

  /// Stores `s`, the counts the block's first decode added.
  void record(const sim::KernelStats& s);

  /// The recorded counts (blocks and warps zero: the launch sets those).
  sim::KernelStats counts() const;

 private:
  static constexpr std::uint32_t kUnrecorded = ~std::uint32_t{0};
  static constexpr std::size_t kFields =
      std::tuple_size_v<decltype(sim::KernelStats::body_fields())>;

  std::array<std::uint32_t, kFields> counts_ = [] {
    std::array<std::uint32_t, kFields> a;
    a.fill(kUnrecorded);
    return a;
  }();
};

/// A compressed list resident in device memory.
struct DeviceList {
  codec::Scheme scheme = codec::Scheme::kEliasFano;
  std::uint64_t size = 0;
  simt::DeviceBuffer<std::uint64_t> blob;
  simt::DeviceBuffer<BlockDesc> descs;
  std::vector<BlockDesc> host_descs;  ///< host mirror (skip table)
  /// Per posting block, the counts of its first decode on this copy, sized
  /// by that decode (gpu/decode.cpp). A memo of a pure function of the
  /// copy's bytes that the const decode entry points fill, hence mutable.
  /// Simulator host memory: DeviceListBytes does not count it, and it lives
  /// and dies with the copy (cache entry, prefetch, or a query's own upload).
  mutable std::vector<BlockDecodeRecord> decode_records;

  std::size_t num_blocks() const { return host_descs.size(); }
};

/// Uploads `list` to the device, charging allocations and transfers. With
/// defer_payload, only the skip table's transfer is charged up front — the
/// paper's high-ratio path binary-searches the skip pointers first and
/// "only transfers, decompresses, and processes those blocks" (§3.1.2); pay
/// for the selected blocks later via charge_block_payload_upload.
DeviceList upload_list(simt::Device& dev,
                       const codec::BlockCompressedList& list,
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
