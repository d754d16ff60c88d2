#include "gpu/mergepath.h"

#include <algorithm>
#include <cassert>

#include "simt/collectives.h"

namespace griffin::gpu {

namespace {

/// Merge-path crossing on the global arrays: smallest a such that the path
/// at diagonal `diag` passes between A[a-1] and B[diag-a]. After the search,
/// equal pairs straddling the boundary are pulled into the right-hand
/// partition so no match can be split (docIDs are unique per list, so one
/// nudge suffices).
struct Boundary {
  std::uint64_t a, b;
};

template <typename LoadA, typename LoadB>
Boundary merge_path_search(std::uint64_t diag, std::uint64_t na,
                           std::uint64_t nb, LoadA&& load_a, LoadB&& load_b,
                           simt::Thread& t) {
  std::uint64_t lo = diag > nb ? diag - nb : 0;
  std::uint64_t hi = diag < na ? diag : na;
  while (lo < hi) {
    const std::uint64_t mid = (lo + hi) / 2;
    t.charge(2 * simt::kAluCycle);
    if (load_a(mid) < load_b(diag - 1 - mid)) {
      lo = mid + 1;
    } else {
      hi = mid;
    }
  }
  Boundary r{lo, diag - lo};
  if (r.a > 0 && r.b < nb && load_a(r.a - 1) == load_b(r.b)) {
    --r.a;  // keep the equal pair together, in the right partition
  } else if (r.b > 0 && r.a < na && load_a(r.a) == load_b(r.b - 1)) {
    --r.b;
  }
  return r;
}

}  // namespace

GpuIntersectResult mergepath_intersect(simt::Device& dev,
                                       const simt::DeviceBuffer<DocId>& a,
                                       std::uint64_t na,
                                       const simt::DeviceBuffer<DocId>& b,
                                       std::uint64_t nb,
                                       const pcie::Link& link,
                                       pcie::TransferLedger& ledger,
                                       MergeTuning tuning,
                                       MergeRecord* record) {
  const std::uint32_t span = tuning.items_per_thread * tuning.threads;
  assert(span >= 2);
  // Two staging tiles of span+2 DocIds must fit the 48 KB shared budget.
  assert((span + 2) * 2 * sizeof(DocId) + 4096 <=
         dev.spec().shared_mem_per_block);
  GpuIntersectResult res;
  if (na == 0 || nb == 0) {
    res.result = dev.alloc<DocId>(1);
    ledger.add_alloc(link);
    return res;
  }
  assert(na <= a.size() && nb <= b.size());

  const std::uint64_t total = na + nb;
  const std::uint32_t nblocks =
      static_cast<std::uint32_t>(util::div_ceil(total, span));

  auto aparts = dev.alloc<std::uint64_t>(nblocks + 1);
  auto bparts = dev.alloc<std::uint64_t>(nblocks + 1);
  auto temp = dev.alloc<DocId>(static_cast<std::uint64_t>(nblocks) * span);
  auto block_counts = dev.alloc<std::uint32_t>(nblocks);
  for (int i = 0; i < 4; ++i) ledger.add_alloc(link);

  // --- After launches 1-2: offsets round trip + Launch 3: compaction. ---
  // A replay runs this tail too: the recorded block counts stand in for
  // launches 1-2, and the host writes the matches in place of launch 3.
  const bool replay = record != nullptr && record->recorded();
  const auto gather = [&] {
    std::vector<std::uint32_t> counts_host(nblocks);
    dev.download(std::span<std::uint32_t>(counts_host), block_counts);
    ledger.add_transfer(link, nblocks * 4, /*h2d=*/false);

    CompactResult c = compact_segments(dev, temp, counts_host, span, link,
                                       ledger, /*launch=*/!replay);
    ++res.kernels;
    if (replay) {
      // Simulator-only host access to device storage, as Device::upload does.
      [[maybe_unused]] const DocId* end = std::set_intersection(
          a.raw(), a.raw() + na, b.raw(), b.raw() + nb, c.data.raw());
      assert(static_cast<std::uint64_t>(end - c.data.raw()) == c.count);
    } else {
      res.stats += c.stats;
      if (record != nullptr) *record = {res.stats, std::move(counts_host)};
    }
    res.result = std::move(c.data);
    res.count = c.count;
  };
  if (replay) {
    assert(record->block_counts.size() == nblocks);
    std::copy(record->block_counts.begin(), record->block_counts.end(),
              block_counts.raw());
    res.stats = record->stats;
    res.kernels = 2;
    gather();
    return res;
  }

  // --- Launch 1: block-level partition (one thread per cross diagonal). ---
  res.stats = simt::launch(
      dev, {simt::blocks_for(nblocks + 1, 128), 128}, [&](simt::Block& blk) {
        blk.for_each_thread([&](simt::Thread& t) {
          const std::uint32_t i = t.gid();
          if (i > nblocks) return;
          const std::uint64_t diag =
              std::min<std::uint64_t>(static_cast<std::uint64_t>(i) * span,
                                      total);
          const Boundary bd = merge_path_search(
              diag, na, nb, [&](std::uint64_t k) { return t.load(a, k); },
              [&](std::uint64_t k) { return t.load(b, k); }, t);
          t.store(aparts, i, bd.a);
          t.store(bparts, i, bd.b);
        });
      });
  ++res.kernels;

  // --- Launch 2: staged merge-intersect, one block per partition. ---
  // Per-thread match registers, hoisted across blocks (simulator-speed).
  std::vector<std::vector<DocId>> matches(tuning.threads);
  sim::KernelStats merge_stats = simt::launch(
      dev, {nblocks, tuning.threads}, [&](simt::Block& blk) {
        const std::uint32_t bid = blk.block_id();

        // Shared staging (+2 covers the boundary nudges).
        auto sa = blk.shared<DocId>(span + 2);
        auto sb = blk.shared<DocId>(span + 2);
        auto counts = blk.shared<std::uint32_t>(blk.dim());

        std::uint64_t a0 = 0, a1 = 0, b0 = 0, b1 = 0;
        blk.for_each_thread([&](simt::Thread& t) {
          if (t.tid() != 0) return;
          a0 = t.load(aparts, bid);
          a1 = t.load(aparts, bid + 1);
          b0 = t.load(bparts, bid);
          b1 = t.load(bparts, bid + 1);
        });
        const std::uint64_t la = a1 - a0;
        const std::uint64_t lb = b1 - b0;
        assert(la <= span + 2 && lb <= span + 2);

        // Coalesced staging of both segments into shared memory.
        blk.for_each_thread([&](simt::Thread& t) {
          for (std::uint64_t i = t.tid(); i < la; i += blk.dim()) {
            t.sstore(sa, i, t.load(a, a0 + i));
          }
          for (std::uint64_t i = t.tid(); i < lb; i += blk.dim()) {
            t.sstore(sb, i, t.load(b, b0 + i));
          }
        });

        // Thread-level sub-partition + serial intersection in shared memory.
        for (auto& m : matches) m.clear();
        blk.for_each_thread([&](simt::Thread& t) {
          const std::uint64_t lt = la + lb;
          const std::uint64_t d0 =
              std::min<std::uint64_t>(t.tid() * tuning.items_per_thread, lt);
          // The last thread absorbs the remainder: boundary nudges can make
          // la+lb exceed dim*kItemsPerThread by one.
          const std::uint64_t d1 =
              t.tid() + 1 == blk.dim()
                  ? lt
                  : std::min<std::uint64_t>(
                        (t.tid() + 1) * static_cast<std::uint64_t>(
                                            tuning.items_per_thread),
                        lt);
          auto la_at = [&](std::uint64_t k) {
            return t.sload(std::span<const DocId>(sa), k);
          };
          auto lb_at = [&](std::uint64_t k) {
            return t.sload(std::span<const DocId>(sb), k);
          };
          const Boundary s = merge_path_search(d0, la, lb, la_at, lb_at, t);
          const Boundary e = merge_path_search(d1, la, lb, la_at, lb_at, t);
          std::uint64_t i = s.a, j = s.b;
          auto& out = matches[t.tid()];
          while (i < e.a && j < e.b) {
            const DocId va = la_at(i);
            const DocId vb = lb_at(j);
            t.charge(simt::kAluCycle);
            if (va < vb) {
              ++i;
            } else if (vb < va) {
              ++j;
            } else {
              out.push_back(va);
              ++i;
              ++j;
            }
          }
          t.sstore(std::span<std::uint32_t>(counts), t.tid(),
                   static_cast<std::uint32_t>(out.size()));
        });

        const std::uint32_t block_total =
            simt::block_exclusive_scan(blk, counts);

        // Scatter matches to the block's temp segment; store the count.
        blk.for_each_thread([&](simt::Thread& t) {
          const std::uint32_t off =
              t.sload(std::span<const std::uint32_t>(counts), t.tid());
          const auto& out = matches[t.tid()];
          for (std::size_t k = 0; k < out.size(); ++k) {
            t.store(temp,
                    static_cast<std::uint64_t>(bid) * span + off + k,
                    out[k]);
          }
          if (t.tid() == 0) t.store(block_counts, bid, block_total);
        });
      });
  res.stats += merge_stats;
  ++res.kernels;
  gather();
  return res;
}

}  // namespace griffin::gpu
