#include "gpu/decode.h"

#include <cassert>

#include "codec/codec.h"
#include "codec/simple16.h"
#include "simt/collectives.h"
#include "util/bits.h"

namespace griffin::gpu {

namespace detail {

void scan_and_store(simt::Block& blk, const BlockDesc& d,
                    std::span<std::uint32_t> gaps, std::uint32_t n_gaps,
                    simt::DeviceBuffer<DocId>& out, std::uint64_t out_pos) {
  if (n_gaps > 0) {
    simt::block_inclusive_scan(blk, gaps.subspan(0, n_gaps));
  }
  blk.for_each_thread([&](simt::Thread& t) {
    if (t.tid() >= d.count) return;
    DocId v = d.first;
    if (t.tid() > 0) {
      v += t.sload(std::span<const std::uint32_t>(gaps), t.tid() - 1) +
           t.tid();
    }
    t.store(out, out_pos + t.tid(), v);
  });
}

void serial_decode_one_block(simt::Block& blk, const DeviceList& list,
                             const BlockDesc& d, std::uint64_t desc_index,
                             simt::DeviceBuffer<DocId>& out,
                             std::uint64_t out_pos) {
  const std::uint32_t n_gaps = d.count > 0 ? d.count - 1u : 0u;
  auto gaps = blk.shared<std::uint32_t>(std::max<std::uint32_t>(n_gaps, 1));

  blk.for_each_thread([&](simt::Thread& t) {
    if (t.tid() == 0) (void)t.load(list.descs, desc_index);
  });

  // Byte-granular and selector-switch codecs have no lane-parallel
  // structure: lane 0 decodes the whole block while the rest of the warp
  // idles. The scheduler's per-codec penalty prices exactly this.
  blk.for_each_thread([&](simt::Thread& t) {
    if (t.tid() != 0) return;
    if (list.scheme == codec::Scheme::kVarByte) {
      std::uint64_t pos = d.bit_offset;
      for (std::uint32_t i = 0; i < n_gaps; ++i) {
        std::uint32_t v = 0;
        int shift = 0;
        for (;;) {
          const auto byte = static_cast<std::uint8_t>(
              load_bits(t, list.blob, pos, 8));
          pos += 8;
          t.charge(simt::kAluCycle);
          v |= static_cast<std::uint32_t>(byte & 0x7F) << shift;
          if ((byte & 0x80) == 0) break;
          shift += 7;
        }
        t.sstore(std::span<std::uint32_t>(gaps), i, v);
      }
    } else {  // Simple16
      std::uint32_t words[1 << 12];
      std::uint32_t decoded[1 << 12];
      assert(d.count <= (1u << 12));
      const std::uint64_t avail =
          (list.blob.size() * 64 - d.bit_offset) / 32;
      const std::uint32_t max_words = static_cast<std::uint32_t>(
          std::min<std::uint64_t>({d.count, 1u << 12, avail}));
      for (std::uint32_t i = 0; i < max_words; ++i) {
        words[i] = static_cast<std::uint32_t>(
            load_bits(t, list.blob, d.bit_offset + 32ull * i, 32));
      }
      codec::simple16_decode(std::span<const std::uint32_t>(words, max_words),
                             n_gaps, decoded);
      for (std::uint32_t i = 0; i < n_gaps; ++i) {
        t.charge(simt::kAluCycle);  // selector dispatch + shift/mask
        t.sstore(std::span<std::uint32_t>(gaps), i, decoded[i]);
      }
    }
  });

  scan_and_store(blk, d, gaps, n_gaps, out, out_pos);
}

namespace {

/// Per-scheme one-block dispatch for the generic entry points.
void decode_one_block(simt::Block& blk, const DeviceList& list,
                      const BlockDesc& d, std::uint64_t desc_index,
                      simt::DeviceBuffer<DocId>& out, std::uint64_t out_pos) {
  switch (list.scheme) {
    case codec::Scheme::kEliasFano:
      ef_decode_one_block(blk, list, d, desc_index, out, out_pos);
      break;
    case codec::Scheme::kPForDelta:
      pfor_decode_one_block(blk, list, d, desc_index, out, out_pos);
      break;
    case codec::Scheme::kVarByte:
    case codec::Scheme::kSimple16:
      serial_decode_one_block(blk, list, d, desc_index, out, out_pos);
      break;
  }
}

/// Decodes posting block `pb` of `list` to out[out_pos..]. The block's first
/// decode on this device copy runs its SIMT body and records the counts the
/// body added; a later one adds those counts and writes the docIDs with the
/// host codec. DESIGN.md §5 lists why both give the same numbers. An output
/// that does not start on a memory segment always simulates, and neither
/// reads nor writes the record.
void decode_block(const simt::Device& dev, simt::Block& blk,
                  const DeviceList& list, std::size_t pb,
                  simt::DeviceBuffer<DocId>& out, std::uint64_t out_pos) {
  const BlockDesc& d = list.host_descs[pb];
  if (out_pos * sizeof(DocId) % dev.spec().mem_transaction_bytes != 0) {
    decode_one_block(blk, list, d, pb, out, out_pos);
    return;
  }
  if (list.decode_records.empty()) {
    list.decode_records.resize(list.num_blocks());
  }
  BlockDecodeRecord& rec = list.decode_records[pb];
  if (!rec.recorded()) {
    rec.record(blk.measure([&](simt::Block& b) {
      decode_one_block(b, list, d, pb, out, out_pos);
    }));
    return;
  }
  blk.add_counts(rec.counts());
  assert(out_pos + d.count <= out.size());
  // Simulator-only host access to device storage, as Device::upload does:
  // the same blob bytes the kernel reads, decoded by the host codec.
  codec::codec_for(list.scheme)
      .decode_block(std::span<const std::uint64_t>(list.blob.raw(),
                                                   list.blob.size()),
                    d, out.raw() + out_pos);
}

}  // namespace

}  // namespace detail

sim::KernelStats decode_range(simt::Device& dev, const DeviceList& list,
                              std::size_t lo, std::size_t hi,
                              simt::DeviceBuffer<DocId>& out,
                              std::uint64_t out_base) {
  assert(lo < hi && hi <= list.num_blocks());
  // The decode records were measured under this device's GpuSpec.
  assert(list.blob.device() == &dev);
  const std::uint64_t first_off = list.host_descs[lo].out_offset;
  return simt::launch(
      dev, {static_cast<std::uint32_t>(hi - lo), codec::kBlockSize},
      [&](simt::Block& blk) {
        const std::size_t pb = lo + blk.block_id();
        detail::decode_block(
            dev, blk, list, pb, out,
            out_base + list.host_descs[pb].out_offset - first_off);
      });
}

sim::KernelStats decode_selected(
    simt::Device& dev, const DeviceList& list,
    const simt::DeviceBuffer<std::uint32_t>& ids_dev,
    std::span<const std::uint32_t> ids, simt::DeviceBuffer<DocId>& out) {
  assert(!ids.empty());
  // The decode records were measured under this device's GpuSpec.
  assert(list.blob.device() == &dev);
  return simt::launch(
      dev, {static_cast<std::uint32_t>(ids.size()), codec::kBlockSize},
      [&](simt::Block& blk) {
        // Lane 0 reads the block id to decode (mirrored on the host). This
        // load belongs to the launch, not the block, so it always simulates.
        blk.for_each_thread([&](simt::Thread& t) {
          if (t.tid() == 0) (void)t.load(ids_dev, blk.block_id());
        });
        detail::decode_block(dev, blk, list, ids[blk.block_id()], out,
                             static_cast<std::uint64_t>(blk.block_id()) *
                                 codec::kBlockSize);
      });
}

}  // namespace griffin::gpu
