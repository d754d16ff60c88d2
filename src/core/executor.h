// The shared step executor (DESIGN.md §8): runs one physical plan step at a
// time, dispatching CPU steps to cpu::SvsStepper, GPU steps to
// gpu::GpuExecutor, and transfer steps to the PCIe link the GpuExecutor
// owns. core::HybridEngine owns the one instance per engine stack and drives
// it; which backend a step lands on is purely the planner's decision.
//
// The query's sim::Timeline is its only ledger: every charge the backends
// make is one stage-tagged op there. run() derives each step's StepRecord
// (stage split, duration, issue/start/end) from the ops the step recorded,
// and finish_query() derives the QueryMetrics stage totals from all of the
// query's ops, so per-step durations sum to the stage totals *by
// construction*.
#pragma once

#include <array>
#include <cstdint>
#include <optional>
#include <vector>

#include "core/plan.h"
#include "core/planner.h"
#include "core/query.h"
#include "cpu/bm25.h"
#include "cpu/svs_step.h"
#include "gpu/engine.h"

namespace griffin::core {

/// Wasted device time charged for an abandoned GPU step or a lost split leg
/// (the kernel ran partway before the error surfaced).
inline constexpr double kGpuFaultCostUs = 50.0;
/// OOM ladder rung 3 (DESIGN.md §16): allocator stall before the step is
/// abandoned and re-planned host-side (nothing to evict, nothing to unfuse).
inline constexpr double kOomReplanCostUs = 25.0;

/// What StepExecutor::run did with the step, and what the planner must do
/// next (DESIGN.md §11/§16). HybridEngine::advance switches on this; the two
/// abandon statuses both re-emit the step, differing only in how much of
/// the remaining plan is pinned host-side.
enum class StepStatus : std::uint8_t {
  kOk,          ///< step ran (or an optional prefetch was dropped)
  /// The step completed but the device is no longer trusted for this query
  /// (a split step's GPU leg was lost and redone host-side): the caller
  /// pins the remainder via Planner::force_cpu().
  kOkForceCpu,
  /// An injected device fault abandoned the step: wasted time charged,
  /// device caches invalidated; re-plan the whole remainder via
  /// Planner::degrade_to_cpu().
  kFaultQuery,
  /// The OOM ladder bottomed out (rung 3): the step was abandoned but the
  /// pressure is transient — re-plan just this step via
  /// Planner::degrade_step_to_cpu(); later steps decide freely.
  kFaultStep,
};

class StepExecutor : public ResidencyProbe {
 public:
  /// Ranking is unconditionally CPU-side under `rank_spec`. `injector` is
  /// the engine's fault injector (DESIGN.md §11), the same one `gpu` holds:
  /// each of its armed sites may abandon GPU compute steps (degrading the
  /// plan to the CPU) or press on device allocations; a disarmed site draws
  /// nothing. `fault_scope` is the shard id in a cluster, 0 standalone.
  StepExecutor(sim::CpuSpec rank_spec, cpu::SvsStepper& svs,
               gpu::GpuExecutor& gpu, const cpu::Bm25Scorer& scorer,
               const fault::FaultInjector& injector, std::uint32_t fault_scope)
      : rank_spec_(rank_spec),
        svs_(&svs),
        gpu_(&gpu),
        scorer_(&scorer),
        injector_(&injector),
        fault_scope_(fault_scope) {}

  /// Resets per-query state (host intermediate, device buffers) and opens
  /// the query's streams (DESIGN.md §10): one CPU stream here, one copy +
  /// one compute stream inside the GpuExecutor. By default the query owns
  /// a private timeline, which is reset. With a `shared` multi-tenant
  /// timeline (DESIGN.md §12) that timeline is left intact: the streams
  /// open at `release` (the admission time) inside a fresh accounting
  /// scope, so ops from co-admitted queries contend for the same
  /// per-resource busy clocks. The query keys fault coordinates.
  void begin_query(const Query& q, sim::Timeline* shared = nullptr,
                   sim::Duration release = {});

  /// Executes one step — the backends record its charges as stage-tagged
  /// timeline ops and count its counters into res.metrics — and appends
  /// the StepRecord derived from those ops to res.trace. The returned
  /// StepStatus tells the caller which planner recovery hook to invoke, if
  /// any — HybridEngine::advance dispatches on it.
  StepStatus run(const PlanStep& step, const Query& q, QueryResult& res);

  /// Releases device buffers (dropping unconsumed prefetches into m), then
  /// settles m's durations from the query's timeline scope: the four stage
  /// totals are its per-stage op sums, m.total its span (the critical path)
  /// and m.overlap.saved the exact serial difference, so
  /// decode + intersect + transfer + rank == total + overlap.saved in
  /// integer picoseconds.
  void finish_query(QueryMetrics& m);

  /// Current intermediate-result size, wherever it lives.
  std::uint64_t intermediate_count() const;
  /// Where the intermediate lives; nullopt before the first step.
  std::optional<Placement> location() const { return loc_; }

  // ResidencyProbe: stat-free cache probes for the planner's StepShapes.
  bool device_resident(index::TermId t) const override {
    return gpu_->device_resident(t);
  }
  bool host_decoded(index::TermId t) const override {
    return svs_->host_decoded(t);
  }
  bool prefetched(index::TermId t) const override {
    return gpu_->prefetched(t);
  }

  const sim::Timeline& timeline() const { return *tl_; }

  /// The plan frontier's completion time: when this query's latest step
  /// finishes on the shared timeline. The tenancy DeviceManager steps the
  /// lane whose frontier is earliest (min-frontier interleave).
  sim::Timeline::Event frontier() const { return frontier_; }

  /// Marks the next decode/intersect step as a member of a cross-query
  /// kernel batch of `size` queries (tenancy BatchComposer). Forwarded to
  /// the GpuExecutor's launch-overhead/warp-fill model; `group` tags the
  /// StepRecord. size <= 1 restores unbatched accounting.
  void set_batch(std::uint32_t size, std::uint64_t group);

 private:
  /// What run() needs to know about a step, read off the plan-step variant
  /// in one place (traits()): the record skeleton, the stage its recovery
  /// charges land in, and the fault sites it exposes (DESIGN.md §11/§16).
  struct StepTraits {
    StepRecord rec;  ///< kind, placement, term, shape, alpha, resource, ...
    sim::Stage stage = sim::Stage::kIntersect;  ///< where recovery lands
    bool gpu_chain = false;    ///< dispatch chains device ops off the frontier
    bool gpu_compute = false;  ///< kGpu-placed kernels (device-fault site)
    bool dev_alloc = false;    ///< allocates device memory (OOM site)
    /// The lists whose cached pages an abandon retires.
    std::array<index::TermId, 2> fault_terms{};
    std::uint8_t num_fault_terms = 0;
  };
  /// What an injected fault does to the step about to run.
  enum class FaultAction : std::uint8_t {
    kNone,
    kAbandon,       ///< device fault: re-plan the query (kFaultQuery)
    kReplan,        ///< OOM ladder rung 3: re-plan the step (kFaultStep)
    kDropPrefetch,  ///< the optional upload is lost; the plan continues
    kEvict,         ///< OOM rung 1: free cold cache bytes, then run
    kUnfuse,        ///< OOM rung 2: leave the fused batch, then run
  };

  static StepTraits traits(const PlanStep& step);
  /// Draws the step's fault coordinates and picks the recovery; counts an
  /// OOM hit into m.
  FaultAction draw_fault(const StepTraits& t, QueryMetrics& m) const;
  /// The fault-abort path of run(): charges the lost device time (or the
  /// allocator stall, when `oom`) as one compute op, resets the
  /// GpuExecutor's per-step state, counts the abandon, and marks `rec`
  /// faulted.
  void abandon_gpu_step(const StepTraits& t, bool oom, StepRecord& rec,
                        QueryMetrics& m);
  /// Executes the step on its backend and returns the new plan frontier.
  sim::Timeline::Event dispatch(const PlanStep& step, const Query& q,
                                QueryResult& res);
  /// Records `d` of host work as one CPU-stream op of `stage`.
  sim::Timeline::Event cpu_op(sim::Duration d, sim::Stage stage,
                              sim::Timeline::Event wait);
  /// Executes a kSplit intersect (DESIGN.md §15): partitions the sorted
  /// probe side at index round((1-alpha)*n) — low docID range to the CPU's
  /// SvS stepper, high range to the GPU's binary-search kernels — runs both
  /// legs concurrently on their timeline streams, and concatenates the
  /// docID-disjoint partials into a host-side intermediate (bit-identical
  /// to the unsplit result). Returns join(cpu leg, gpu leg), the new plan
  /// frontier.
  sim::Timeline::Event run_split(const IntersectStep& i, QueryMetrics& m);
  /// Draws the device fault for a split's GPU leg of `n_gpu` probes (none
  /// for an empty leg) before its kernels consume anything (DESIGN.md §16).
  /// On a hit: charges the wasted device time on the GPU chain, retires
  /// term t's cached pages, counts the lost leg and marks the step
  /// leg-faulted, returning the fault's completion; nullopt otherwise.
  std::optional<sim::Timeline::Event> lose_split_leg(index::TermId t,
                                                     std::uint64_t n_gpu,
                                                     QueryMetrics& m);
  /// The CPU leg of run_split: partial_step over the probe prefix, recorded
  /// as one CPU-stream op waiting on `ready`. Returns its completion (or
  /// `ready` unchanged for an empty leg).
  sim::Timeline::Event run_cpu_leg(std::span<const codec::DocId> probes,
                                   index::TermId t,
                                   std::vector<codec::DocId>& out,
                                   sim::Timeline::Event ready,
                                   QueryMetrics& m);
  /// Derives rec's stage split, duration and issue/start/end from the ops
  /// its step recorded: [ops0, end) of the timeline, since co-tenant steps
  /// never interleave at op granularity (the DeviceManager steps one lane
  /// at a time). A step that recorded nothing pins all three instants to
  /// the frontier.
  void settle(StepRecord& rec, std::size_t ops0) const;

  sim::CpuSpec rank_spec_;
  cpu::SvsStepper* svs_;
  gpu::GpuExecutor* gpu_;
  const cpu::Bm25Scorer* scorer_;
  const fault::FaultInjector* injector_;
  std::uint32_t fault_scope_;
  std::uint64_t query_id_ = 0;
  std::uint64_t step_index_ = 0;  ///< fault coordinate of the next step
  std::vector<codec::DocId> host_current_;  ///< valid when loc_ == kCpu
  std::optional<Placement> loc_;
  /// Private single-tenant timeline; tl_ points here unless begin_query()
  /// was handed a DeviceManager-owned shared timeline.
  sim::Timeline own_tl_;
  sim::Timeline* tl_ = &own_tl_;
  sim::Duration release_;              ///< stream open time (shared mode)
  sim::Timeline::ScopeId scope_ = 0;   ///< this query's accounting scope
  std::uint64_t batch_group_ = 0;      ///< current batch tag for records
  sim::Timeline::StreamId cpu_stream_ = 0;
  /// The plan frontier: completion of the latest step every later dependent
  /// op must wait on. GPU steps advance it through the GpuExecutor's chain;
  /// prefetch and host-decode steps deliberately leave it alone.
  sim::Timeline::Event frontier_;
  /// Set by run_split when an injected device fault killed the GPU leg
  /// (the step still completed, host-side); consumed by run(), which marks
  /// the StepRecord and returns kOkForceCpu.
  bool leg_faulted_ = false;
};

}  // namespace griffin::core
