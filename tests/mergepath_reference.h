// The all-SIMT MergePath intersection: the test oracle for
// gpu::mergepath_intersect.
//
// src/gpu/mergepath.cpp counts its merge launch's staging copy and its
// sub-partition + merge region from the staged tile (DESIGN.md §5, tile
// counts). This header runs the same three launches with every region
// executed lane by lane through simt::Thread, so the simulator's WarpTally
// counts each access as the lane makes it. It shares no counting code with
// src/gpu/mergepath.cpp, so a differential test can require the two to agree
// on every KernelStats field, the matches and their positions, the launch
// count and the ledger.
#pragma once

#include <algorithm>
#include <cassert>
#include <cstdint>
#include <span>
#include <vector>

#include "gpu/mergepath.h"
#include "simt/collectives.h"

namespace griffin::gpu::reference {

struct Boundary {
  std::uint64_t a, b;
};

/// Merge-path crossing at diagonal `diag`, then the boundary nudge. The two
/// loads of every comparison are sequenced, A's before B's, because their
/// order fixes each load's ordinal.
template <typename LoadA, typename LoadB>
Boundary merge_path_search(std::uint64_t diag, std::uint64_t na,
                           std::uint64_t nb, LoadA&& load_a, LoadB&& load_b,
                           simt::Thread& t) {
  std::uint64_t lo = diag > nb ? diag - nb : 0;
  std::uint64_t hi = diag < na ? diag : na;
  while (lo < hi) {
    const std::uint64_t mid = (lo + hi) / 2;
    t.charge(2 * simt::kAluCycle);
    const DocId va = load_a(mid);
    const DocId vb = load_b(diag - 1 - mid);
    if (va < vb) {
      lo = mid + 1;
    } else {
      hi = mid;
    }
  }
  Boundary r{lo, diag - lo};
  if (r.b > 0 && r.a < na) {
    const DocId va = load_a(r.a);
    const DocId vb = load_b(r.b - 1);
    if (va == vb) --r.b;
  }
  return r;
}

/// gpu::mergepath_intersect without a record, every region simulated.
inline GpuIntersectResult mergepath_intersect(
    simt::Device& dev, const simt::DeviceBuffer<DocId>& a, std::uint64_t na,
    const simt::DeviceBuffer<DocId>& b, std::uint64_t nb,
    const pcie::Link& link, pcie::TransferLedger& ledger,
    std::uint32_t items_per_thread = kItemsPerThread,
    std::uint32_t a_terms = 1) {
  const std::uint32_t threads = kMergeBlockThreads;
  const std::uint32_t span = items_per_thread * threads;
  const ProbeRows probe{&a, na, a_terms};
  GpuIntersectResult res;
  if (na == 0 || nb == 0) {
    res.result = dev.alloc<DocId>(1);
    ledger.add_alloc(link);
    return res;
  }

  const std::uint64_t total = na + nb;
  const std::uint32_t nblocks =
      static_cast<std::uint32_t>(util::div_ceil(total, span));
  auto aparts = dev.alloc<std::uint64_t>(nblocks + 1);
  auto bparts = dev.alloc<std::uint64_t>(nblocks + 1);
  const std::uint64_t plane = static_cast<std::uint64_t>(nblocks) * span;
  auto temp = dev.alloc<DocId>(3 * plane);
  auto block_counts = dev.alloc<std::uint32_t>(nblocks);
  for (int i = 0; i < 4; ++i) ledger.add_alloc(link);

  // Launch 1: block-level partition.
  res.stats = simt::launch(
      dev, {simt::blocks_for(nblocks + 1, 128), 128}, [&](simt::Block& blk) {
        blk.for_each_thread([&](simt::Thread& t) {
          const std::uint32_t i = t.gid();
          if (i > nblocks) return;
          const std::uint64_t diag = std::min<std::uint64_t>(
              static_cast<std::uint64_t>(i) * span, total);
          const Boundary bd = merge_path_search(
              diag, na, nb, [&](std::uint64_t k) { return t.load(a, k); },
              [&](std::uint64_t k) { return t.load(b, k); }, t);
          t.store(aparts, i, bd.a);
          t.store(bparts, i, bd.b);
        });
      });
  ++res.kernels;

  // Launch 2: staged merge-intersect, one block per partition.
  struct Match {
    DocId doc;
    std::uint64_t i, j;  // indices in the staged tiles
  };
  std::vector<std::vector<Match>> matches(threads);
  res.stats += simt::launch(
      dev, {nblocks, threads}, [&](simt::Block& blk) {
        const std::uint32_t bid = blk.block_id();
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

        // Staging: lane t copies elements t, t + dim, ... of A, then of B.
        blk.for_each_thread([&](simt::Thread& t) {
          for (std::uint64_t i = t.tid(); i < la; i += blk.dim()) {
            t.sstore(sa, i, t.load(a, a0 + i));
          }
          for (std::uint64_t i = t.tid(); i < lb; i += blk.dim()) {
            t.sstore(sb, i, t.load(b, b0 + i));
          }
        });

        // Sub-partition + serial intersection in shared memory.
        for (auto& m : matches) m.clear();
        blk.for_each_thread([&](simt::Thread& t) {
          const std::uint64_t lt = la + lb;
          const std::uint64_t d0 = std::min<std::uint64_t>(
              static_cast<std::uint64_t>(t.tid()) * items_per_thread, lt);
          const std::uint64_t d1 =
              t.tid() + 1 == blk.dim()
                  ? lt
                  : std::min<std::uint64_t>(
                        static_cast<std::uint64_t>(t.tid() + 1) *
                            items_per_thread,
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
              out.push_back({va, i, j});
              ++i;
              ++j;
            }
          }
          t.sstore(std::span<std::uint32_t>(counts), t.tid(),
                   static_cast<std::uint32_t>(out.size()));
        });

        const std::uint32_t block_total =
            simt::block_exclusive_scan(blk, counts);

        blk.for_each_thread([&](simt::Thread& t) {
          const std::uint32_t off =
              t.sload(std::span<const std::uint32_t>(counts), t.tid());
          const auto& out = matches[t.tid()];
          for (std::size_t k = 0; k < out.size(); ++k) {
            const std::uint64_t seg =
                static_cast<std::uint64_t>(bid) * span + off + k;
            t.store(temp, seg, out[k].doc);
            t.store(temp, plane + seg, static_cast<DocId>(a0 + out[k].i));
            t.store(temp, 2 * plane + seg, static_cast<DocId>(b0 + out[k].j));
          }
          if (t.tid() == 0) t.store(block_counts, bid, block_total);
        });
      });
  ++res.kernels;

  // Offsets round trip + launch 3: compaction.
  std::vector<std::uint32_t> counts_host(nblocks);
  dev.download(std::span<std::uint32_t>(counts_host), block_counts);
  ledger.add_transfer(link, nblocks * 4, /*h2d=*/false);
  CompactResult c =
      compact_segments(dev, temp, counts_host, span, probe, link, ledger);
  ++res.kernels;
  res.stats += c.stats;
  res.result = std::move(c.data);
  res.count = c.count;
  return res;
}

}  // namespace griffin::gpu::reference
