#include "gpu/device_list.h"

#include <cassert>
#include <cmath>
#include <type_traits>

namespace griffin::gpu {

void BlockDecodeRecord::record(const sim::KernelStats& s) {
  assert(s.blocks == 0 && s.warps == 0);
  // Each count fits below the unrecorded marker and each cycle count is
  // whole (every SIMT charge is), so counts() restores it exactly.
  auto pack = [](auto v) {
    assert(v < kUnrecorded);
    if constexpr (std::is_floating_point_v<decltype(v)>) {
      assert(v >= 0 && v == std::floor(v));
    }
    return static_cast<std::uint32_t>(v);
  };
  std::size_t i = 0;
  std::apply(
      [&](const auto&... f) { ((counts_[i++] = pack(s.*f.member)), ...); },
      sim::KernelStats::body_fields());
}

sim::KernelStats BlockDecodeRecord::counts() const {
  assert(recorded());
  sim::KernelStats s;
  std::size_t i = 0;
  std::apply([&](const auto&... f) { ((s.*f.member = counts_[i++]), ...); },
             sim::KernelStats::body_fields());
  return s;
}

DeviceList upload_list(simt::Device& dev, const codec::BlockCompressedList& list,
                       const pcie::Link& link, pcie::TransferLedger& ledger,
                       bool defer_payload) {
  DeviceList d;
  d.scheme = list.scheme();
  d.size = list.size();

  d.host_descs.reserve(list.num_blocks());
  std::uint64_t offset = 0;
  for (const codec::BlockMeta& m : list.metas()) {
    d.host_descs.push_back(BlockDesc{m, offset});
    offset += m.count;
  }
  assert(offset == d.size);

  d.blob = dev.alloc<std::uint64_t>(list.blob().size());
  ledger.add_alloc(link);
  dev.upload(d.blob, list.blob());
  if (!defer_payload) {
    ledger.add_transfer(link, list.blob().size() * 8, /*h2d=*/true);
  }

  d.descs = dev.alloc<BlockDesc>(d.host_descs.size());
  ledger.add_alloc(link);
  dev.upload(d.descs, std::span<const BlockDesc>(d.host_descs));
  ledger.add_transfer(link, d.host_descs.size() * sizeof(BlockDesc), true);
  return d;
}

void charge_block_payload_upload(const DeviceList& list,
                                 std::span<const std::uint32_t> ids,
                                 const pcie::Link& link,
                                 pcie::TransferLedger& ledger) {
  std::uint64_t bytes = 0;
  for (std::uint32_t b : ids) {
    bytes += codec::block_payload_bytes(list.host_descs, list.blob.size(), b);
  }
  if (bytes > 0) ledger.add_transfer(link, bytes, /*h2d=*/true);
}

std::uint64_t load_bits(simt::Thread& t,
                        const simt::DeviceBuffer<std::uint64_t>& blob,
                        std::uint64_t pos, std::uint32_t len) {
  if (len == 0) return 0;
  assert(len <= 64);
  const std::uint64_t word_idx = pos >> 6;
  const std::uint32_t bit_idx = static_cast<std::uint32_t>(pos & 63);
  std::uint64_t value = t.load(blob, word_idx) >> bit_idx;
  if (bit_idx + len > 64) {
    value |= t.load(blob, word_idx + 1) << (64 - bit_idx);
  }
  if (len == 64) return value;
  return value & ((std::uint64_t{1} << len) - 1);
}

}  // namespace griffin::gpu
