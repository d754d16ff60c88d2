// The incremental query planner (DESIGN.md §8). Wraps the Scheduler plus
// the two cache-residency probes and emits the next physical step
// (core/plan.h) from the current intermediate-result state — the planner is
// where "which processor runs the next intersection" (paper §3.2) lives,
// and nowhere else. The executor (core/executor.h) feeds the observed
// intermediate size and location back in after every step, so plans react
// to the actual selectivity of the query, exactly as the monolithic engine
// loops used to.
//
// State machine (DESIGN.md §8 has the diagram):
//
//   Start ── 1 term ──> Decode ─────────────────────────┐
//     │                                                 v
//     └─ first pair ─> Intersect ─┬─> [Transfer] ─> Intersect ... ─┐
//                                 │   (placement flip)             │
//                                 └────── result empty ────────────┤
//                                                                  v
//                               [Transfer D2H if on GPU] ──> Rank ─> done
//
// A mid-query placement flip emits the Transfer first and holds the decided
// Intersect pending — the decision is made once per step, before the
// migration, never re-evaluated after it (re-deciding with the new location
// could flip back and oscillate).
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "core/plan.h"
#include "core/query.h"
#include "core/scheduler.h"

namespace griffin::core {

/// Stat-free cache-residency probes feeding StepShape's residency bits: the
/// device-resident compressed-list cache (gpu/list_cache.h) and the host
/// decoded-postings cache (cpu/decoded_cache.h). StepExecutor implements
/// this over its two backends; a cold (or disabled) cache reports false,
/// which reproduces the paper rule's decisions exactly.
class ResidencyProbe {
 public:
  virtual ~ResidencyProbe() = default;
  virtual bool device_resident(index::TermId t) const = 0;
  virtual bool host_decoded(index::TermId t) const = 0;
  /// Term has an in-flight (or landed) kPrefetch upload this query
  /// (DESIGN.md §10); fills StepShape::longer_prefetched.
  virtual bool prefetched(index::TermId /*t*/) const { return false; }
};

class Planner {
 public:
  Planner(const index::InvertedIndex& idx, const Scheduler& sched,
          const ResidencyProbe& probe)
      : idx_(&idx), sched_(&sched), probe_(&probe) {}

  /// Starts planning a query: orders its terms shortest-list-first (SvS,
  /// Culpepper & Moffat [11]) and resets the state machine.
  void begin(const Query& q);

  /// Emits the next step given the executed plan's current state: the
  /// intermediate result's size and location (nullopt before any step ran).
  /// Returns nullopt when the plan is complete (after RankStep).
  std::optional<PlanStep> next(std::uint64_t intermediate_count,
                               std::optional<Placement> location);

  /// Degraded execution after an injected GPU device fault (DESIGN.md §11):
  /// `step` is the GPU compute step the executor abandoned. The state
  /// machine rewinds so the same logical step is re-emitted — and every
  /// placement decision from here on is forced to the CPU, which reuses the
  /// existing migration path to drain the (intact) device intermediate and
  /// finish the query host-side. Results stay bit-identical to the
  /// fault-free run; only the timing carries the wasted device charge.
  void degrade_to_cpu(const PlanStep& step);

  /// Rung 3 of the OOM degradation ladder (DESIGN.md §16): the executor
  /// abandoned `step` because its device allocation failed with nothing
  /// left to evict or unfuse. Rewinds like degrade_to_cpu but pins only the
  /// re-emitted decision to the CPU — memory pressure is transient, so
  /// later steps decide freely and may return to the device. A faulted H2D
  /// migration flips its pending intersect host-side in place (the
  /// intermediate never left the host, so no step is re-emitted at all).
  void degrade_step_to_cpu(const PlanStep& step);

  /// Pins every remaining decision to the CPU without rewinding — the
  /// split-leg fault path (DESIGN.md §16): the step completed (CPU leg +
  /// host-side redo of the GPU range), but the device is no longer trusted
  /// for this query. Also drops staged prefetch/work-ahead bets.
  void force_cpu();

  /// All placement decisions are pinned to the CPU for the rest of this
  /// query (set by degrade_to_cpu/force_cpu, cleared by begin).
  bool forced_cpu() const { return forced_cpu_; }

  /// The StepShape the scheduler would decide on for intersecting an
  /// intermediate of `shorter` docs at `location` with `longer_term` — the
  /// probes fill the residency bits. Public so trace consumers (tests, the
  /// scheduling ablation) can rebuild shapes the way the planner does.
  StepShape shape_for(std::uint64_t shorter, index::TermId longer_term,
                      std::optional<Placement> location) const;

  const Scheduler& scheduler() const { return *sched_; }

 private:
  enum class Stage : std::uint8_t {
    kStart,
    kIntersect,         ///< choose + emit the next intersect (or finish)
    kPendingIntersect,  ///< a transfer was emitted; its intersect is queued
    kDrain,             ///< emit the final D2H transfer if still on GPU
    kRank,
    kDone,
  };

  /// Called right after an intersect step is decided: if the *following*
  /// term's list is worth moving early, stage a PrefetchStep to emit on the
  /// next call. Device-placed (kGpu/kSplit) steps prefetch as before — the
  /// copy engine rides under their kernels; CPU-placed steps prefetch only
  /// under pipeline_idle and only when the next step is predicted to
  /// consume the list on the device (DESIGN.md §15). The decision uses only
  /// state known when the intersect is issued — a real host would enqueue
  /// the async copy then, before the kernels' outcome exists — so a staged
  /// prefetch is emitted even if the intersect empties the intermediate.
  void maybe_stage_prefetch(const IntersectStep& step);

  /// Inter-step pipelining, host side (DESIGN.md §15): after a kGpu
  /// intersect is decided the host core is idle, so if the *following*
  /// step is predicted to run on the CPU and the next term's host decode
  /// fits under the device step's estimated time, stage a HostDecodeStep.
  /// Split steps keep the host busy with their own CPU leg and never
  /// work-ahead.
  void maybe_stage_host_decode(const IntersectStep& step);

  const index::InvertedIndex* idx_;
  const Scheduler* sched_;
  const ResidencyProbe* probe_;
  std::vector<index::TermId> terms_;  ///< shortest-first
  std::size_t next_term_ = 0;
  Stage stage_ = Stage::kDone;
  IntersectStep pending_;  ///< valid in kPendingIntersect
  std::optional<index::TermId> staged_prefetch_;
  std::optional<index::TermId> staged_host_decode_;
  bool forced_cpu_ = false;  ///< degraded: every decision pinned to the CPU
  /// One-shot CPU pin (degrade_step_to_cpu): consumed by the next
  /// decode/intersect decision, then placements are free again.
  bool force_next_cpu_ = false;
};

}  // namespace griffin::core
