// PForDelta decompression ported to the GPU — deliberately included as the
// *negative* result the paper describes (§2.3, §3.1.1): unpacking the b-bit
// slots parallelizes fine, but the exception patch chain is a linked list
// that one lane must walk serially while the rest of the warp idles, and the
// d-gap -> docID conversion needs an extra block scan. The ablation bench
// (bench/ablation_pfor_gpu) contrasts this kernel with Para-EF.
#include "gpu/decode.h"
#include "util/bits.h"

namespace griffin::gpu {

namespace detail {

void pfor_decode_one_block(simt::Block& blk, const DeviceList& list,
                           const BlockDesc& d, std::uint64_t desc_index,
                           simt::DeviceBuffer<DocId>& out,
                           std::uint64_t out_pos) {
  const codec::PForHeader ph = d.hdr.pfor();
  const std::uint32_t n_gaps = d.count > 0 ? d.count - 1u : 0u;

  auto gaps = blk.shared<std::uint32_t>(std::max<std::uint32_t>(n_gaps, 1));

  blk.for_each_thread([&](simt::Thread& t) {
    if (t.tid() == 0) (void)t.load(list.descs, desc_index);
  });

  // Parallel part: unpack the b-bit slots.
  blk.for_each_thread([&](simt::Thread& t) {
    if (t.tid() >= n_gaps) return;
    const auto slot = static_cast<std::uint32_t>(load_bits(
        t, list.blob,
        d.bit_offset + static_cast<std::uint64_t>(t.tid()) * ph.b, ph.b));
    t.sstore(std::span<std::uint32_t>(gaps), t.tid(), slot);
  });

  // Serial part: lane 0 walks the exception chain alone — every other
  // lane of the warp idles (pure divergence), and each exception value
  // is an isolated, uncoalesced global read. This is the data
  // dependence that sinks PForDelta on the GPU.
  if (ph.n_exceptions > 0) {
    const std::uint64_t exc_start = util::round_up(
        d.bit_offset + static_cast<std::uint64_t>(n_gaps) * ph.b, 32);
    blk.for_each_thread([&](simt::Thread& t) {
      if (t.tid() != 0) return;
      std::uint32_t pos = ph.first_exception;
      for (std::uint32_t k = 0; k < ph.n_exceptions; ++k) {
        const std::uint32_t dist =
            t.sload(std::span<const std::uint32_t>(gaps), pos);
        const auto value = static_cast<std::uint32_t>(
            load_bits(t, list.blob, exc_start + 32ull * k, 32));
        t.sstore(std::span<std::uint32_t>(gaps), pos, value);
        t.charge(2 * simt::kAluCycle);
        pos += dist;
      }
    });
  }

  // d-gaps -> docIDs needs a prefix sum.
  scan_and_store(blk, d, gaps, n_gaps, out, out_pos);
}

}  // namespace detail

}  // namespace griffin::gpu
