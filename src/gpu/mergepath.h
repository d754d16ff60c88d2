// Load-balanced merge-based list intersection on the virtual GPU — the
// second key Griffin-GPU algorithm, built on GPU MergePath (Green, McColl &
// Bader [15]; Odeh et al. [24]) as described in the paper's §3.1.2 and
// Figures 5-6.
//
// Merging two sorted lists A and B is a monotone path through the |A|x|B|
// grid; cutting the path with evenly spaced cross diagonals yields perfectly
// balanced partitions that threads can intersect independently, with no
// synchronization during the merge. Three launches:
//   1. partition: one thread per block-level diagonal binary-searches the
//      path crossing (global loads, but only O(p log n) of them);
//   2. merge: each block stages its A/B segments into shared memory
//      (coalesced), threads sub-partition in shared and serially intersect
//      ~kItemsPerThread elements each, then a block scan compacts matches;
//   3. compact: gather per-block match segments into one contiguous
//      intermediate, with the probe side's position columns gathered by
//      each match's row and the matches' positions in B (gpu/compact.h).
//
// Launch 2 runs 128 threads in 4 full warps. Its staging copy and its
// sub-partition + merge region are counted from the staged tile instead of
// lane by lane: the staging copy in closed form per (warp, ordinal), the
// merge region from each lane's shared-access stream, generated natively in
// the order the lane makes the accesses. Both give exactly the SIMT counts
// (DESIGN.md §5, tile counts; tests/mergepath_reference.h keeps the all-SIMT
// launch as the oracle).
//
// A call given a MergeRecord that an earlier call over the same inputs
// filled replays it: the same allocations, ledger charges and host<->device
// copies in the same order, the recorded counts in place of the three
// launches, and the matches and their positions written by a host merge
// (DESIGN.md §5).
#pragma once

#include "gpu/compact.h"
#include "gpu/device_list.h"

namespace griffin::gpu {

/// Elements of A+B each thread intersects serially in the merge stage.
inline constexpr std::uint32_t kItemsPerThread = 8;
/// Threads per merge block (so one block covers 1024 items and its staging
/// fits comfortably in the 48 KB shared budget).
inline constexpr std::uint32_t kMergeBlockThreads = 128;

/// The partitioning knob, exposed for the partition-size ablation
/// (bench/ablation_partition): one merge block covers items_per_thread *
/// kMergeBlockThreads elements of A+B, which bounds the shared-memory staging
/// tiles.
struct MergeTuning {
  std::uint32_t items_per_thread = kItemsPerThread;
};

/// What one mergepath_intersect counted, for a later call over the same
/// inputs: the stats of its three launches and the per-block match counts
/// the merge launch leaves for the host (their sum is the match count).
struct MergeRecord {
  sim::KernelStats stats;
  std::vector<std::uint32_t> block_counts;

  bool recorded() const { return !block_counts.empty(); }
};

struct GpuIntersectResult {
  /// `count` rows of an intermediate one term wider than the probe side
  /// (core/rows.h).
  simt::DeviceBuffer<DocId> result;
  std::uint64_t count = 0;
  sim::KernelStats stats;  ///< merged across all launches
  std::uint32_t kernels = 0;
};

/// Intersects two decoded, ascending device arrays: `na` rows of a, an
/// intermediate of `a_terms` terms (core/rows.h: 1 for a single decoded
/// list), and `nb` docIDs of b. The result carries a's columns gathered by
/// each match's row and the matches' positions in b. Transfers for the tiny
/// offset round trip are charged to `ledger`; kernel work is returned in
/// the result. With a `record` that is already recorded, the caller vouches
/// that a, b, na, nb, a_terms and the tuning are those it was recorded
/// with, and the call replays it; with an empty one, the call simulates and
/// fills it.
GpuIntersectResult mergepath_intersect(simt::Device& dev,
                                       const simt::DeviceBuffer<DocId>& a,
                                       std::uint64_t na,
                                       const simt::DeviceBuffer<DocId>& b,
                                       std::uint64_t nb,
                                       const pcie::Link& link,
                                       pcie::TransferLedger& ledger,
                                       MergeTuning tuning = {},
                                       MergeRecord* record = nullptr,
                                       std::uint32_t a_terms = 1);

}  // namespace griffin::gpu
