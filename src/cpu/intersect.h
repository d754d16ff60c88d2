// CPU posting-list intersection (paper §2.1.2, §2.2):
//   - merge_intersect: the sequential two-pointer merge, best when the two
//     lists have comparable lengths (good locality, predictable scans);
//   - skip_intersect: probe each element of the short side into the long
//     side using the skip table (galloping + binary search), decompressing
//     only the blocks that can contain matches — best at high length ratios.
// All variants compute exact intersections and charge the CPU cost model.
#pragma once

#include <span>
#include <vector>

#include "codec/block_codec.h"
#include "cpu/decode.h"
#include "sim/cpu_cost_model.h"

namespace griffin::cpu {

/// Decoded × decoded streaming merge.
void merge_intersect(std::span<const DocId> a, std::span<const DocId> b,
                     std::vector<DocId>& out, sim::CpuCostAccumulator& acc);

/// Decoded × compressed: merge against lazily decoded blocks (every block up
/// to the exhaustion point is decoded — merges scan everything).
void merge_intersect(std::span<const DocId> a, const BlockCompressedList& b,
                     std::vector<DocId>& out, sim::CpuCostAccumulator& acc);

/// Compressed × compressed block-wise merge.
void merge_intersect(const BlockCompressedList& a, const BlockCompressedList& b,
                     std::vector<DocId>& out, sim::CpuCostAccumulator& acc);

/// Decoded probes × compressed target via skip pointers. `probes` must be
/// ascending. Only candidate blocks of `target` are decoded, each in full:
/// the paper's CPU baseline is PForDelta-based [40], which has no in-block
/// random access, and the ratio-128 crossover analysis (§3.2) assumes
/// exactly this cost.
void skip_intersect(std::span<const DocId> probes,
                    const BlockCompressedList& target, std::vector<DocId>& out,
                    sim::CpuCostAccumulator& acc);

/// Decoded probes × *decoded* target (the host decoded-postings cache holds
/// the target): the same galloping + binary search over a plain sorted
/// array. No block decode is ever charged — that is exactly what the cache
/// saves — only the search steps and the touched bytes.
void skip_intersect(std::span<const DocId> probes, std::span<const DocId> target,
                    std::vector<DocId>& out, sim::CpuCostAccumulator& acc);

/// Binary search cost helper shared by the skip variants: `steps` probe steps
/// of a branchy binary search.
void charge_binary_steps(sim::CpuCostAccumulator& acc, std::uint64_t steps);

}  // namespace griffin::cpu
