#include "gpu/compact.h"

#include <numeric>

namespace griffin::gpu {

CompactResult compact_segments(simt::Device& dev,
                               const simt::DeviceBuffer<DocId>& temp,
                               std::span<const std::uint32_t> counts_host,
                               std::uint32_t stride, ProbeRows probe,
                               const pcie::Link& link,
                               pcie::TransferLedger& ledger, bool launch) {
  CompactResult res;
  const std::size_t nblocks = counts_host.size();
  std::vector<std::uint64_t> offsets(nblocks, 0);
  std::uint64_t total = 0;
  for (std::size_t i = 0; i < nblocks; ++i) {
    offsets[i] = total;
    total += counts_host[i];
  }
  const std::uint32_t in_cols = core::Rows::columns(probe.terms);
  const std::uint32_t cols = core::Rows::columns(probe.terms + 1);
  res.count = total;
  res.data = dev.alloc<DocId>(std::max<std::uint64_t>(total * (1 + cols), 1));
  ledger.add_alloc(link);
  if (total == 0) return res;

  auto offsets_dev = dev.alloc<std::uint64_t>(nblocks);
  ledger.add_alloc(link);
  dev.upload(offsets_dev, std::span<const std::uint64_t>(offsets));
  ledger.add_transfer(link, nblocks * 8, /*h2d=*/true);
  if (!launch) return res;

  const std::uint64_t plane = nblocks * std::uint64_t{stride};
  res.stats = simt::launch(
      dev, {static_cast<std::uint32_t>(nblocks), 128}, [&](simt::Block& blk) {
        const std::uint32_t bid = blk.block_id();
        const std::uint32_t n = counts_host[bid];
        blk.for_each_thread([&](simt::Thread& t) {
          std::uint64_t base = 0;
          if (t.tid() == 0) base = t.load(offsets_dev, bid);
          (void)base;
        });
        blk.for_each_thread([&](simt::Thread& t) {
          for (std::uint32_t i = t.tid(); i < n; i += blk.dim()) {
            const std::uint64_t src = std::uint64_t{bid} * stride + i;
            const std::uint64_t dst = offsets[bid] + i;
            const DocId v = t.load(temp, src);
            const std::uint32_t row = t.load(temp, plane + src);
            const std::uint32_t pos = t.load(temp, 2 * plane + src);
            t.store(res.data, dst, v);
            // The earlier columns by the match's row; a single list's
            // position is the row itself.
            for (std::uint32_t c = 0; c < in_cols; ++c) {
              t.store(res.data, (1 + c) * total + dst,
                      t.load(*probe.buf, (1 + c) * probe.rows + row));
            }
            if (in_cols == 0) {
              t.store(res.data, total + dst,
                      static_cast<DocId>(probe.first_row + row));
            }
            t.store(res.data, cols * total + dst, pos);
            t.charge(simt::kAluCycle);
          }
        });
      });
  return res;
}

}  // namespace griffin::gpu
