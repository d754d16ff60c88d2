// CPU posting-list intersection (paper §2.1.2, §2.2):
//   - merge_intersect: the sequential two-pointer merge, best when the two
//     lists have comparable lengths (good locality, predictable scans);
//   - skip_intersect: probe each element of the short side into the long
//     side using the skip table (galloping + binary search), decompressing
//     only the blocks that can contain matches — best at high length ratios.
// All variants compute exact intersections and charge the CPU cost model.
#pragma once

#include <functional>
#include <span>
#include <variant>
#include <vector>

#include "codec/block_codec.h"
#include "cpu/decode.h"
#include "sim/cpu_cost_model.h"

namespace griffin::cpu {

/// Where each match of an intersect sits in its two inputs, parallel to the
/// matched docIDs: its row on the probe (first) side and its position in
/// the target list. The SvS stepper gathers the intermediate's position
/// columns from them (core/rows.h).
struct MatchPositions {
  std::vector<std::uint32_t> rows;
  std::vector<std::uint32_t> pos;

  void clear() {
    rows.clear();
    pos.clear();
  }
};

/// One posting list as an intersect reads it: decoded (a span, e.g. a host
/// decoded-cache entry) or compressed (decoded block by block on demand).
using PostingView =
    std::variant<std::span<const DocId>,
                 std::reference_wrapper<const BlockCompressedList>>;

/// Streaming merge of two views. A compressed side decodes its blocks
/// lazily, in list order, each only once the previous one is used up and
/// the other side has elements left (a merge scans everything up to the
/// exhaustion point); a decoded side is one block with no decode charge.
/// Charges one merge step and sizeof(DocId) bytes per loop iteration.
/// With `at`, also emits each match's index in `a` and in `b`.
void merge_intersect(PostingView a, PostingView b, std::vector<DocId>& out,
                     sim::CpuCostAccumulator& acc,
                     MatchPositions* at = nullptr);

/// Decoded probes × compressed target via skip pointers. `probes` must be
/// ascending. Only candidate blocks of `target` are decoded, each in full:
/// the paper's CPU baseline is PForDelta-based [40], which has no in-block
/// random access, and the ratio-128 crossover analysis (§3.2) assumes
/// exactly this cost. With `at`, also emits each match's probe index and
/// its position in `target`.
void skip_intersect(std::span<const DocId> probes,
                    const BlockCompressedList& target, std::vector<DocId>& out,
                    sim::CpuCostAccumulator& acc,
                    MatchPositions* at = nullptr);

/// Decoded probes × *decoded* target (the host decoded-postings cache holds
/// the target): the same galloping + binary search over a plain sorted
/// array. No block decode is ever charged — that is exactly what the cache
/// saves — only the search steps and the touched bytes. `at` as above.
void skip_intersect(std::span<const DocId> probes,
                    std::span<const DocId> target, std::vector<DocId>& out,
                    sim::CpuCostAccumulator& acc,
                    MatchPositions* at = nullptr);

/// Binary search cost helper shared by the skip variants: `steps` probe steps
/// of a branchy binary search.
void charge_binary_steps(sim::CpuCostAccumulator& acc, std::uint64_t steps);

}  // namespace griffin::cpu
