// The logged SIMT analyzer: the test oracle for simt::WarpTally.
//
// The simulator folds each lane access into per-warp counts as the lane
// records it (src/simt/kernel.h). This header computes the same
// sim::KernelStats the slow, obvious way: from complete per-lane access logs,
// re-walked per region, per warp and per access ordinal after the fact. It is
// a pure function of the logs and shares no code with the simulator, so a
// differential test can require the two to agree field for field.
#pragma once

#include <algorithm>
#include <cstdint>
#include <vector>

#include "sim/gpu_cost_model.h"

namespace griffin::simt::reference {

struct GlobalAccess {
  std::uint64_t addr = 0;
  std::uint32_t bytes = 0;
};

/// Everything one lane did in one region, in issue order.
struct LaneLog {
  double alu = 0.0;  ///< charges plus the fixed per-access issue costs
  std::vector<GlobalAccess> global;         ///< atomics included
  std::vector<std::uint32_t> shared_banks;  ///< bank of each shared access
  std::vector<std::uint64_t> atomic_addrs;
};

/// One region of one block: lane t's log at index t.
using RegionLog = std::vector<LaneLog>;

/// Folds one region into `stats` (everything but blocks, warps, barriers).
inline void add_region(const RegionLog& lanes, std::uint64_t seg_bytes,
                       sim::KernelStats& stats) {
  constexpr double kAtomicReplayCycles = 8.0;
  const auto dim = static_cast<std::uint32_t>(lanes.size());
  const std::uint32_t nwarps = (dim + 31) / 32;

  // Every warp is charged the block-wide maximum lane ALU count.
  double block_max_alu = 0.0;
  for (const LaneLog& l : lanes) block_max_alu = std::max(block_max_alu, l.alu);
  stats.warp_cycles += block_max_alu * nwarps;

  for (std::uint32_t w = 0; w < nwarps; ++w) {
    const std::uint32_t lo = w * 32;
    const std::uint32_t hi = std::min(dim, lo + 32);
    std::size_t max_global = 0;
    std::size_t max_shared = 0;
    std::size_t max_atomics = 0;
    for (std::uint32_t t = lo; t < hi; ++t) {
      max_global = std::max(max_global, lanes[t].global.size());
      max_shared = std::max(max_shared, lanes[t].shared_banks.size());
      max_atomics = std::max(max_atomics, lanes[t].atomic_addrs.size());
    }

    // Coalescing: the o-th global access of every lane in the warp issues
    // together; each distinct segment touched is one transaction.
    for (std::size_t o = 0; o < max_global; ++o) {
      std::vector<std::uint64_t> segs;
      for (std::uint32_t t = lo; t < hi; ++t) {
        const auto& g = lanes[t].global;
        if (o >= g.size()) continue;
        stats.global_bytes_requested += g[o].bytes;
        const std::uint64_t s0 = g[o].addr / seg_bytes;
        const std::uint64_t s1 = (g[o].addr + g[o].bytes - 1) / seg_bytes;
        for (std::uint64_t s = s0; s <= s1; ++s) {
          if (std::find(segs.begin(), segs.end(), s) == segs.end()) {
            segs.push_back(s);
          }
        }
      }
      stats.global_transactions += segs.size();
    }

    // Atomics: the o-th atomic replays once per extra lane on its address.
    for (std::size_t o = 0; o < max_atomics; ++o) {
      std::vector<std::uint64_t> addrs;
      for (std::uint32_t t = lo; t < hi; ++t) {
        const auto& a = lanes[t].atomic_addrs;
        if (o < a.size()) addrs.push_back(a[o]);
      }
      std::sort(addrs.begin(), addrs.end());
      std::size_t max_mult = 0;
      for (std::size_t i = 0; i < addrs.size();) {
        std::size_t j = i;
        while (j < addrs.size() && addrs[j] == addrs[i]) ++j;
        max_mult = std::max(max_mult, j - i);
        i = j;
      }
      if (max_mult > 1) {
        stats.warp_cycles +=
            static_cast<double>(max_mult - 1) * kAtomicReplayCycles;
      }
    }

    // Bank conflicts: the o-th shared access serializes by the
    // most-contended of the 32 banks.
    for (std::size_t o = 0; o < max_shared; ++o) {
      std::uint32_t bank_count[32] = {};
      std::uint32_t max_mult = 0;
      for (std::uint32_t t = lo; t < hi; ++t) {
        const auto& s = lanes[t].shared_banks;
        if (o >= s.size()) continue;
        ++stats.shared_accesses;
        max_mult = std::max(max_mult, ++bank_count[s[o]]);
      }
      if (max_mult > 1) {
        stats.shared_conflict_cycles += static_cast<double>(max_mult - 1);
      }
    }
  }
}

/// The stats of a launch of `grid_blocks` blocks whose regions, over all
/// blocks in execution order, are `regions`, plus `extra_barriers` explicit
/// Block::barrier() calls.
inline sim::KernelStats analyze(const std::vector<RegionLog>& regions,
                                std::uint32_t grid_blocks,
                                std::uint32_t block_threads,
                                std::uint64_t seg_bytes,
                                std::uint64_t extra_barriers = 0) {
  sim::KernelStats stats;
  stats.blocks = grid_blocks;
  stats.warps = static_cast<std::uint64_t>(grid_blocks) *
                ((block_threads + 31) / 32);
  stats.barriers = regions.size() + extra_barriers;
  for (const RegionLog& r : regions) add_region(r, seg_bytes, stats);
  return stats;
}

}  // namespace griffin::simt::reference
