// The incremental query planner (DESIGN.md §8). Wraps the Scheduler, reads
// cache residency from the two backends that own the caches, and emits the
// next physical step (core/plan.h) from the current intermediate-result
// state — the planner is where "which processor runs the next intersection"
// (paper §3.2) lives, and nowhere else. The executor (core/executor.h)
// feeds the observed intermediate size and location back in after every
// step, so plans react to the actual selectivity of the query, exactly as
// the monolithic engine loops used to.
//
// The plan state is one queue of steps decided but not yet emitted, in
// emission order. A decision is made only when the queue is empty, and
// queues one of:
//
//   single-term query        [Decode]
//   first pair / same place  [Intersect, bet?]
//   placement flip           [Transfer (migration), bet?, Intersect]
//   nothing left / empty     [Transfer D2H if on GPU, Rank]
//
// `bet` is a Prefetch or a HostDecode of the following term. A flip decides
// its Intersect once, before the migration, and never re-evaluates it at
// the new location (re-deciding could flip back and oscillate). Recovery
// hooks are queue operations: they clear the queue, un-consume a term or
// flip the queued Intersect in place.
#pragma once

#include <array>
#include <cstdint>
#include <optional>
#include <vector>

#include "core/plan.h"
#include "core/query.h"
#include "core/scheduler.h"

namespace griffin::gpu {
class GpuExecutor;
}
namespace griffin::cpu {
class SvsStepper;
}

namespace griffin::core {

class Planner {
 public:
  /// StepShape's residency bits come from stat-free probes of the two
  /// backends: `gpu`'s device list cache and in-flight prefetches
  /// (gpu/list_cache.h, DESIGN.md §10) and `svs`'s host decoded cache
  /// (cpu/decoded_cache.h). A cold (or disabled) cache reports false, which
  /// reproduces the paper rule's decisions exactly.
  Planner(const index::InvertedIndex& idx, const Scheduler& sched,
          const gpu::GpuExecutor& gpu, const cpu::SvsStepper& svs)
      : idx_(&idx), sched_(&sched), gpu_(&gpu), svs_(&svs) {}

  /// Starts planning a query: orders its terms shortest-list-first (SvS,
  /// Culpepper & Moffat [11]) and empties the queue.
  void begin(const Query& q);

  /// Emits the next step given the executed plan's current state: the
  /// intermediate result's size and location (nullopt before any step ran).
  /// Returns nullopt when the plan is complete (after RankStep).
  std::optional<PlanStep> next(std::uint64_t intermediate_count,
                               std::optional<Placement> location);

  /// Degraded execution after an injected GPU device fault (DESIGN.md §11):
  /// `step` is the GPU compute step the executor abandoned. Pins every
  /// remaining decision to the CPU, then rewinds so the same logical step
  /// is re-decided — which reuses the existing migration path to drain the
  /// (intact) device intermediate and finish the query host-side. Results
  /// stay bit-identical to the fault-free run; only the timing carries the
  /// wasted device charge.
  void degrade_to_cpu(const PlanStep& step);

  /// Rung 3 of the OOM degradation ladder (DESIGN.md §16): the executor
  /// abandoned `step` because its device allocation failed with nothing
  /// left to evict or unfuse. Rewinds like degrade_to_cpu but pins only the
  /// re-decided step to the CPU — memory pressure is transient, so later
  /// steps decide freely and may return to the device. A faulted H2D
  /// migration keeps only its queued intersect, flipped host-side (the
  /// intermediate never left the host, so nothing is re-decided).
  void degrade_step_to_cpu(const PlanStep& step);

  /// Pins every remaining decision to the CPU and clears the queue without
  /// rewinding — the split-leg fault path (DESIGN.md §16): the step
  /// completed (CPU leg + host-side redo of the GPU range), but the device
  /// is no longer trusted for this query. A split never migrates, so its
  /// side bet is all the queue can hold.
  void force_cpu();

  /// The StepShape the scheduler would decide on for intersecting an
  /// intermediate of `shorter` docs at `location` with `longer_term` — the
  /// backends fill the residency bits, and the terms consumed so far the
  /// intermediate's width, so a bet queued after a step predicts from the
  /// shape the next decision will see. Public so trace consumers (tests,
  /// the scheduling ablation) can rebuild shapes the way the planner does.
  StepShape shape_for(std::uint64_t shorter, index::TermId longer_term,
                      std::optional<Placement> location) const;

 private:
  /// Fills the empty queue with the next decision (see the table above).
  void decide(std::uint64_t intermediate_count,
              std::optional<Placement> location);

  void push(const PlanStep& step) { queue_[tail_++] = step; }
  void clear() { head_ = tail_ = 0; }

  /// Clears the queue and un-consumes the abandoned decode or intersect
  /// `step`'s term, or restarts at the first pair, so the next call to
  /// next() re-decides it.
  void rewind(const PlanStep& step);

  /// Whether the decision about to be made is pinned to the CPU (a degraded
  /// query, or the one-shot pin after an OOM re-plan, which this consumes).
  bool take_cpu_pin();

  /// Decides where `step` runs — the CPU when pinned, else the scheduler's
  /// three-way choice plus the split share.
  void place(IntersectStep& step);

  /// Queues the side bet on the following term after `step` was decided
  /// (next_term_ must already point past it): a prefetch if one pays, else
  /// a host decode if one pays. Both use only state known when the
  /// intersect is issued — a real host would enqueue the async work then,
  /// before the kernels' outcome exists — so a queued bet is emitted even
  /// if the intersect empties the intermediate.
  void queue_bet(const IntersectStep& step);

  /// Whether uploading `nxt` early pays. Device-placed (kGpu/kSplit) steps
  /// prefetch — the copy engine rides under their kernels; CPU-placed steps
  /// prefetch only when the next step is predicted to consume the list on
  /// the device (inter-step pipelining, DESIGN.md §15).
  bool prefetch_pays(const IntersectStep& step, index::TermId nxt) const;

  /// Inter-step pipelining, host side (DESIGN.md §15): after a kGpu
  /// intersect is decided the host core is idle, so decoding `nxt` ahead
  /// pays if the following step is predicted to run on the CPU and the
  /// decode fits under the device step's estimated time. Split steps keep
  /// the host busy with their own CPU leg and never work ahead.
  bool host_decode_pays(const IntersectStep& step, index::TermId nxt) const;

  const index::InvertedIndex* idx_;
  const Scheduler* sched_;
  const gpu::GpuExecutor* gpu_;
  const cpu::SvsStepper* svs_;
  /// Shortest-first; emptied once the Rank is queued (nothing left to plan).
  std::vector<index::TermId> terms_;
  std::size_t next_term_ = 0;
  /// Steps decided but not yet emitted, [head_, tail_) in emission order:
  /// at most a migration, its side bet and the intersect it feeds. Fixed
  /// storage: the queue never allocates.
  std::array<PlanStep, 3> queue_;
  std::size_t head_ = 0;
  std::size_t tail_ = 0;
  bool forced_cpu_ = false;  ///< degraded: every decision pinned to the CPU
  /// One-shot CPU pin (degrade_step_to_cpu): consumed by the next
  /// decode/intersect decision, then placements are free again.
  bool force_next_cpu_ = false;
};

}  // namespace griffin::core
