#include "gpu/binary_intersect.h"

#include <cassert>

#include "gpu/decode.h"
#include "simt/collectives.h"
#include "util/bits.h"

namespace griffin::gpu {

namespace {
constexpr std::uint32_t kNoBlock = 0xFFFFFFFFu;
constexpr std::uint32_t kThreads = 128;
}  // namespace

GpuIntersectResult binary_search_intersect(
    simt::Device& dev, const simt::DeviceBuffer<DocId>& probes,
    std::uint64_t np,
                                           const DeviceList& target,
                                           const pcie::Link& link,
                                           pcie::TransferLedger& ledger,
                                           bool deferred_payload,
                                           std::uint64_t probe_offset) {
  GpuIntersectResult res;
  if (np == 0 || target.size == 0) {
    res.result = dev.alloc<DocId>(1);
    ledger.add_alloc(link);
    return res;
  }
  const std::uint32_t nb = static_cast<std::uint32_t>(target.num_blocks());

  auto probe_block = dev.alloc<std::uint32_t>(np);
  auto block_needed = dev.alloc<std::uint32_t>(nb);
  ledger.add_alloc(link);
  ledger.add_alloc(link);
  std::vector<std::uint32_t> zeros(nb, 0);
  dev.upload(block_needed, std::span<const std::uint32_t>(zeros));
  ledger.add_transfer(link, nb * 4, /*h2d=*/true);

  // --- Launch 1: per-probe binary search over the skip table. Each lane
  // probes a different region of the descriptor array: poor coalescing and
  // heavy divergence, by construction. ---
  res.stats = simt::launch(
      dev, {simt::blocks_for(np, kThreads), kThreads}, [&](simt::Block& blk) {
        blk.for_each_thread([&](simt::Thread& t) {
          if (t.gid() >= np) return;
          const DocId p = t.load(probes, probe_offset + t.gid());
          std::uint32_t lo = 0, hi = nb;
          while (lo < hi) {
            const std::uint32_t mid = (lo + hi) / 2;
            const BlockDesc d = t.load(target.descs, mid);
            t.charge(3 * simt::kAluCycle);
            if (d.last < p) {
              lo = mid + 1;
            } else {
              hi = mid;
            }
          }
          std::uint32_t found = kNoBlock;
          if (lo < nb) {
            const BlockDesc d = t.load(target.descs, lo);
            if (d.first <= p) {
              found = lo;
              t.store(block_needed, lo, 1u);
            }
          }
          t.store(probe_block, t.gid(), found);
        });
      });
  ++res.kernels;

  // --- Host: gather the candidate block ids (small flag download), then
  // decode only those blocks with Para-EF. ---
  std::vector<std::uint32_t> needed(nb);
  dev.download(std::span<std::uint32_t>(needed), block_needed);
  ledger.add_transfer(link, nb * 4, /*h2d=*/false);

  std::vector<std::uint32_t> ids;
  std::vector<std::uint32_t> slot_of_block(nb, kNoBlock);
  for (std::uint32_t i = 0; i < nb; ++i) {
    if (needed[i] != 0) {
      slot_of_block[i] = static_cast<std::uint32_t>(ids.size());
      ids.push_back(i);
    }
  }
  if (ids.empty()) {
    res.result = dev.alloc<DocId>(1);
    ledger.add_alloc(link);
    return res;
  }

  if (deferred_payload) {
    charge_block_payload_upload(target, ids, link, ledger);
  }

  auto ids_dev = dev.alloc<std::uint32_t>(ids.size());
  auto slots_dev = dev.alloc<std::uint32_t>(nb);
  auto decoded = dev.alloc<DocId>(static_cast<std::uint64_t>(ids.size()) *
                                  codec::kBlockSize);
  for (int i = 0; i < 3; ++i) ledger.add_alloc(link);
  dev.upload(ids_dev, std::span<const std::uint32_t>(ids));
  ledger.add_transfer(link, ids.size() * 4, true);
  dev.upload(slots_dev, std::span<const std::uint32_t>(slot_of_block));
  ledger.add_transfer(link, nb * 4, true);

  res.stats += decode_selected(dev, target, ids_dev, ids, decoded);
  ++res.kernels;

  // --- Launch 3: per-probe binary search inside its decoded block, with
  // block-level compaction of the matches. ---
  const std::uint32_t pblocks = simt::blocks_for(np, kThreads);
  auto temp = dev.alloc<DocId>(static_cast<std::uint64_t>(pblocks) * kThreads);
  auto block_counts = dev.alloc<std::uint32_t>(pblocks);
  ledger.add_alloc(link);
  ledger.add_alloc(link);

  sim::KernelStats search = simt::launch(
      dev, {pblocks, kThreads}, [&](simt::Block& blk) {
        auto counts = blk.shared<std::uint32_t>(blk.dim());
        std::vector<DocId> match(blk.dim(), 0);
        std::vector<bool> has(blk.dim(), false);

        blk.for_each_thread([&](simt::Thread& t) {
          std::uint32_t found = 0;
          if (t.gid() < np) {
            const DocId p = t.load(probes, probe_offset + t.gid());
            const std::uint32_t bidx = t.load(probe_block, t.gid());
            if (bidx != kNoBlock) {
              const std::uint32_t slot = t.load(slots_dev, bidx);
              const std::uint32_t n = target.host_descs[bidx].count;
              const std::uint64_t base =
                  static_cast<std::uint64_t>(slot) * codec::kBlockSize;
              std::uint32_t lo = 0, hi = n;
              while (lo < hi) {
                const std::uint32_t mid = (lo + hi) / 2;
                t.charge(2 * simt::kAluCycle);
                if (t.load(decoded, base + mid) < p) {
                  lo = mid + 1;
                } else {
                  hi = mid;
                }
              }
              if (lo < n && t.load(decoded, base + lo) == p) {
                match[t.tid()] = p;
                has[t.tid()] = true;
                found = 1;
              }
            }
          }
          t.sstore(std::span<std::uint32_t>(counts), t.tid(), found);
        });

        const std::uint32_t block_total =
            simt::block_exclusive_scan(blk, counts);

        blk.for_each_thread([&](simt::Thread& t) {
          if (has[t.tid()]) {
            const std::uint32_t off =
                t.sload(std::span<const std::uint32_t>(counts), t.tid());
            t.store(temp,
                    static_cast<std::uint64_t>(blk.block_id()) * kThreads + off,
                    match[t.tid()]);
          }
          if (t.tid() == 0) t.store(block_counts, blk.block_id(), block_total);
        });
      });
  res.stats += search;
  ++res.kernels;

  std::vector<std::uint32_t> counts_host(pblocks);
  dev.download(std::span<std::uint32_t>(counts_host), block_counts);
  ledger.add_transfer(link, pblocks * 4, false);

  CompactResult c =
      compact_segments(dev, temp, counts_host, kThreads, link, ledger);
  res.stats += c.stats;
  ++res.kernels;
  res.result = std::move(c.data);
  res.count = c.count;
  return res;
}

}  // namespace griffin::gpu
