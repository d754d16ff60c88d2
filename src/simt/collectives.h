// Block-level collectives, written as block-synchronous kernel fragments so
// their simulated cost (shared-memory traffic, barriers, log-depth rounds)
// emerges from the same accounting as user kernels. Call them from a kernel
// body at block scope (between for_each_thread regions).
//
// A scan's counts depend only on its ScanShape within a launch, so the first
// scan of each shape runs the SIMT body and later ones replay its counts
// and write the prefix sum on the host (Block::scan_once, DESIGN.md §5).
#pragma once

#include <cstdint>
#include <span>

#include "simt/kernel.h"

namespace griffin::simt {

/// In-place block-wide inclusive prefix sum over a shared array of any size.
/// Three phases: per-thread chunk scan, Hillis-Steele scan of chunk sums,
/// offset add. Charges O(n) shared traffic + O(log block_dim) rounds.
void block_inclusive_scan(Block& blk, std::span<std::uint32_t> data);

/// In-place exclusive prefix sum; returns the total of the input.
std::uint32_t block_exclusive_scan(Block& blk, std::span<std::uint32_t> data);

}  // namespace griffin::simt
