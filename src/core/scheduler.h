// The intra-query scheduler — Griffin's first contribution (paper §3.2).
// Before each pairwise intersection it decides which processor runs the
// step. The default policy is the paper's: compare the length ratio
// λ = |longer| / |shorter| against the crossover threshold; λ below the
// threshold favors the GPU (everything must be decompressed anyway, so the
// parallel decode + MergePath win), λ at or above favors the CPU (skip
// pointers let it avoid most decompression, and there is no transfer cost).
// The default threshold equals the compression block size (128): when
// λ > block size, the short list has fewer elements than the long list has
// blocks, so skippable blocks *must* exist (the paper's Figure 9 argument).
//
// A cost-aware policy (closed-form estimates fed by the same HardwareSpec
// the engines charge against) is included as the extension the paper
// sketches ("it could be extended to support other features"), and is
// compared against the ratio rule in bench/ablation_scheduling.
#pragma once

#include <cstdint>
#include <optional>

#include "core/query.h"
#include "sim/hardware_spec.h"

namespace griffin::core {

enum class SchedulerPolicy : std::uint8_t {
  kRatioThreshold,  ///< the paper's rule: GPU iff ratio < threshold
  kCostModel,       ///< pick the processor with the lower estimated step time
  kAlwaysCpu,       ///< degenerate policies for the static baselines
  kAlwaysGpu,
  /// Degenerate co-execution policy: every intersect splits across both
  /// processors (alpha from the cost model, or forced_split_alpha). Used by
  /// the split-parity tests and the co-exec ablation.
  kAlwaysSplit,
};

/// Split only when min_alpha t_split undercuts the best single-processor
/// estimate by at least this fraction — hysteresis against splitting for
/// wins inside the cost model's noise floor.
inline constexpr double kSplitMinGain = 0.05;

/// The GPU's probe count for a split at share `alpha` of `n` probes. The
/// one rounding rule: the executor runs the partition the scheduler's
/// estimate_split priced.
std::uint64_t split_share(double alpha, std::uint64_t n);

struct SchedulerOptions {
  SchedulerPolicy policy = SchedulerPolicy::kRatioThreshold;
  /// Crossover for kRatioThreshold; the paper derives block_size (=128).
  double ratio_threshold = 128.0;
  /// Fold list residency (StepShape's *_resident bits, filled from the
  /// device list cache and the host decoded cache) into the decision:
  /// kCostModel zeroes the transfer/decode terms a resident list skips, and
  /// kRatioThreshold shifts its crossover — §3.2's λ=128 balances the GPU's
  /// transfer cost against the CPU's skip advantage, so removing the
  /// transfer (device-resident or prefetched long list) raises the
  /// crossover while a pre-decoded host list cheapens the CPU side and
  /// lowers it.
  bool residency_aware = true;
  /// Emit kPrefetch steps: while a GPU intersect runs, start the H2D of the
  /// next term's list on the copy engine (DESIGN.md §10). Read by the
  /// Planner; kAlwaysCpu plans never place GPU steps so never prefetch.
  bool prefetch = true;
  /// Three-way co-execution (DESIGN.md §15): decide() may return kSplit,
  /// dividing the probe side between both processors. kRatioThreshold
  /// generalizes its crossover into a band around it: inside it the
  /// decision falls through to the three-way cost comparison (outside it
  /// the binary ratio rule is untouched). kCostModel compares
  /// min_alpha t_split against t_cpu and t_gpu directly.
  bool split = true;
  /// kAlwaysSplit (tests/ablation): pin alpha instead of deriving it from
  /// the cost model. Negative = derive. 0 and 1 are the degenerate splits
  /// (all-CPU / all-GPU through the split machinery).
  double forced_split_alpha = -1.0;
  /// Inter-step pipelining (DESIGN.md §15): the planner marks steps with no
  /// data dependence so the executor issues them on whichever processor the
  /// current step leaves idle — kPrefetch uploads during CPU-placed
  /// intersects (the copy engine is free) and kHostDecode work-ahead during
  /// GPU-placed ones (the host core is free).
  bool pipeline_idle = true;
};

// StepShape (the scheduler's per-step input) lives in core/query.h so trace
// records can embed it without a dependency cycle.

class Scheduler {
 public:
  explicit Scheduler(SchedulerOptions opt = {}, sim::HardwareSpec hw = {})
      : opt_(opt), hw_(hw) {}

  const SchedulerOptions& options() const { return opt_; }

  /// Three-way placement (DESIGN.md §15): kCpu, kGpu, or kSplit. Pure
  /// function of the shape and the options, so trace records replay
  /// (decide(rec.shape) == rec.placement) for split steps too.
  Placement decide(const StepShape& s) const;

  /// The GPU's probe share for a kSplit decision on this shape: the
  /// throughput-proportional fraction minimizing estimate_split over a
  /// fixed alpha grid (or forced_split_alpha when pinned). Deterministic,
  /// so IntersectStep::alpha replays from the recorded shape.
  double split_alpha(const StepShape& s) const;

  /// Closed-form step-time estimates used by kCostModel (public for tests
  /// and the scheduling ablation).
  sim::Duration estimate_cpu(const StepShape& s) const;
  sim::Duration estimate_gpu(const StepShape& s) const;
  /// Estimated time of a split step at GPU share `alpha`:
  ///   max(alpha-share on the GPU + its transfers,
  ///       (1-alpha)-share on the CPU + its migration D2H).
  /// The GPU leg always prices the selective binary-search path (the only
  /// kernel the split executes) plus the probe H2D and the partial's D2H;
  /// the CPU leg reuses estimate_cpu on its share.
  sim::Duration estimate_split(const StepShape& s, double alpha) const;
  /// Estimated host-side decode time of a `n`-posting list in scheme `s`
  /// (the kHostDecode work-ahead gate: hide it under the device step only
  /// if it fits).
  sim::Duration estimate_host_decode(std::uint64_t n, codec::Scheme sc) const;

 private:
  /// {best alpha, its estimate_split} over the deterministic alpha grid.
  std::pair<double, sim::Duration> best_split(const StepShape& s) const;
  /// The selective (binary-search over skip table, candidate blocks only)
  /// GPU path priced for `ns` probes — shared by estimate_gpu's high-ratio
  /// branch and the split GPU leg.
  sim::Duration selective_gpu_time(double ns, const StepShape& s) const;
  /// The three-way comparison both policies share once a split is
  /// admissible: kSplit iff min_alpha t_split beats the better single
  /// processor by kSplitMinGain.
  Placement cost_decide(const StepShape& s, bool allow_split) const;

  SchedulerOptions opt_;
  sim::HardwareSpec hw_;
};

}  // namespace griffin::core
