// The pairwise SvS intersection step behind every CPU-placed plan step
// (core/executor.h dispatches to it). One stepper owns the per-pair choice
// between the sequential merge and the skip-pointer binary search (chosen by
// the length ratio, paper §2.1.2/§2.2), the per-step cost accounting, and
// the host decoded-postings cache (cpu/decoded_cache.h).
//
// Cache interplay, chosen so a cold query costs exactly what it does with
// the cache off (a zero-budget cache):
//   - skip path: the probe side is decoded via the cache (decode_all already
//     ran there, so a fill is free); the *target* is only consulted — a hit
//     switches to the decoded-array search, a miss keeps the compressed
//     skip search (decoding a long target would defeat skipping);
//   - merge path: both sides are consulted but never filled (the block-wise
//     merge never materializes a decoded list, so a fill would add cost);
//   - single-term queries decode via the cache.
// At most one cache insert happens per step, and always before any other
// returned span is taken, so spans never dangle (see util/lru_cache.h).
#pragma once

#include <span>
#include <vector>

#include "core/query.h"
#include "core/rows.h"
#include "cpu/decoded_cache.h"
#include "cpu/intersect.h"
#include "sim/cpu_cost_model.h"
#include "sim/hardware_spec.h"

namespace griffin::cpu {

/// The CPU-side merge/skip crossover (paper §2.2): skip_intersect when
/// |longer| / |shorter| >= this, merge below. The single definition shared
/// by CpuEngineOptions and the scheduler's CPU cost estimate.
inline constexpr double kDefaultSkipRatio = 32.0;

class SvsStepper {
 public:
  /// Skip-intersects when |longer| / |shorter| >= `skip_ratio`, merges
  /// otherwise. A disabled (zero-budget) `cache` charges exactly the
  /// uncached cost.
  SvsStepper(const index::InvertedIndex& idx, sim::CpuSpec spec,
             double skip_ratio, DecodedCache& cache)
      : idx_(&idx), spec_(spec), skip_ratio_(skip_ratio), cache_(&cache) {}

  // Every step below returns its host-time charge; the caller records it on
  // the timeline under the stage named here. Cache and lane counters land
  // in `m` directly.

  /// First pair of a query: both sides are full lists, |a| <= |b|. `out`
  /// carries both lists' positions. Intersect stage.
  sim::Duration first_pair(index::TermId a, index::TermId b, core::Rows& out,
                           core::QueryMetrics& m);

  /// Intersects the current (non-empty) intermediate with list t in place:
  /// partial_step over all of it. Intersect stage.
  sim::Duration next_step(core::Rows& current, index::TermId t,
                          core::QueryMetrics& m);

  /// Decodes list t whole into `out`, via the cache: one term, no column.
  /// Decode stage for a single-term query; a split first pair's probe side
  /// is Intersect stage, like the unsplit skip path's probe decode.
  sim::Duration decode_single(index::TermId t, core::Rows& out,
                              core::QueryMetrics& m);

  // ---- Co-execution support (DESIGN.md §15) ----------------------------

  /// The CPU leg of a split intersect: intersects rows [lo, hi) of `probes`
  /// with list t into `out`, which carries the probes' columns plus t's.
  /// Chooses skip vs merge by the leg's own length ratio — next_step is
  /// this over the whole intermediate — so a degenerate alpha=0 split
  /// computes exactly what the unsplit CPU step would. An empty range
  /// charges nothing. Intersect stage.
  sim::Duration partial_step(const core::Rows& probes, std::uint64_t lo,
                             std::uint64_t hi, index::TermId t, core::Rows& out,
                             core::QueryMetrics& m);

  /// Inter-step pipelining (kHostDecode): decodes list t into the decoded
  /// cache while the device runs the current step. Decode stage, charging
  /// exactly the cost a later consumer would have paid; with the cache
  /// disabled (or the list too big to fit) the decode is charged and the
  /// result discarded — the planner bet on hiding it either way. Zero when
  /// t is already cached.
  sim::Duration decode_ahead(index::TermId t, core::QueryMetrics& m);

  /// Stat-free residency probe (core::StepShape::longer_host_decoded).
  bool host_decoded(index::TermId t) const { return cache_->resident(t); }

 private:
  /// Decodes list t, serving and filling the cache when enabled. The
  /// returned span points either into the cache or into `scratch`.
  std::span<const codec::DocId> decode_via_cache(
      index::TermId t, std::vector<codec::DocId>& scratch,
      sim::CpuCostAccumulator& acc, core::QueryMetrics& m);

  /// Lookup-only (never fills): list t as the cache holds it decoded, else
  /// compressed. Counts the hit or miss when the cache is enabled.
  PostingView view(index::TermId t, core::QueryMetrics& m);

  /// probes × list t into docs_ and at_, charging `acc`: skip_intersect
  /// when |t| / |probes| >= skip_ratio_, merge_intersect below.
  void intersect(std::span<const codec::DocId> probes, index::TermId t,
                 sim::CpuCostAccumulator& acc, core::QueryMetrics& m);

  /// Builds `out` from the matches in docs_ and at_: their docIDs, the
  /// columns of `in` gathered by each match's row (offset by `lo`), and
  /// their positions in list t. Charges the column traffic to `acc`.
  void gather(const core::Rows& in, std::uint64_t lo, index::TermId t,
              core::Rows& out, sim::CpuCostAccumulator& acc) const;

  const index::InvertedIndex* idx_;
  sim::CpuSpec spec_;
  double skip_ratio_;
  DecodedCache* cache_;
  std::vector<codec::DocId> probe_scratch_;
  std::vector<codec::DocId> docs_;
  MatchPositions at_;
  core::Rows out_scratch_;
};

}  // namespace griffin::cpu
