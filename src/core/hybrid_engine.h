// Griffin: the hybrid engine (paper Figure 1(d), §3.2). A query starts on
// the processor the scheduler picks for its two shortest lists; after every
// pairwise intersection the scheduler re-evaluates with the shrunken
// intermediate result, and execution migrates (GPU -> CPU, paying the PCIe
// transfer) when the characteristics flip. Ranking always runs on the CPU.
//
// This is the only engine stack (DESIGN.md §8): one persistent GpuExecutor,
// host decoded cache, SvS stepper, BM25 scorer, scheduler, StepExecutor and
// Planner. The paper's CPU-only and GPU-only baselines (Figure 1(a)/(b))
// are this engine pinned to one processor — cpu::CpuEngine and
// gpu::GpuEngine below are constructor-only presets under the kAlwaysCpu /
// kAlwaysGpu policies — and a tenancy lane (tenancy/device_manager.h) is
// this engine driven step by step on a shared timeline.
#pragma once

#include <optional>

#include "core/executor.h"
#include "core/planner.h"
#include "core/query.h"
#include "core/scheduler.h"
#include "cpu/engine.h"
#include "gpu/engine.h"

namespace griffin::core {

struct HybridOptions {
  SchedulerOptions scheduler;
  gpu::GpuOptions gpu;
  cpu::CpuEngineOptions cpu;
  /// Fault injection (DESIGN.md §11/§16). The engine always holds an
  /// injector and reads its gpu, pcie, and oom sites; a disarmed site draws
  /// nothing, so everything disarmed (the default) executes the fault-free
  /// path bit for bit.
  fault::FaultConfig faults;
  /// Fault-coordinate scope: the shard id when this engine serves a cluster
  /// shard (cluster/broker.cpp sets it), 0 standalone.
  std::uint32_t fault_scope = 0;
};

class HybridEngine : public Engine {
 public:
  HybridEngine(const index::InvertedIndex& idx, sim::HardwareSpec hw = {},
               HybridOptions opt = {});

  // The executor, stepper and planner hold references into this object.
  HybridEngine(const HybridEngine&) = delete;
  HybridEngine& operator=(const HybridEngine&) = delete;

  /// begin(q), advance() until the plan drains, finish().
  QueryResult execute(const Query& q) override;

  // ---- Stepwise interface (the tenancy DeviceManager's lanes) ----------

  /// Starts query q (non-empty terms) and plans its first step. On a
  /// private timeline by default; with `shared`, the query opens its
  /// streams at `release` inside a fresh accounting scope of that timeline
  /// (DESIGN.md §12).
  void begin(const Query& q, sim::Timeline* shared = nullptr,
             sim::Duration release = {});

  /// The step advance() runs next; nullptr once the plan has drained.
  const PlanStep* pending() const {
    return next_.has_value() ? &*next_ : nullptr;
  }

  /// When the query's latest step completes on its timeline.
  sim::Timeline::Event frontier() const { return exec_.frontier(); }

  /// Runs the pending step as one member of a `width`-query kernel batch
  /// tagged `group` (width <= 1: unbatched), applies the planner recovery
  /// its StepStatus asks for, and plans the next step. Returns whether a
  /// step is pending.
  bool advance(std::uint32_t width = 1, std::uint64_t group = 0);

  /// Settles the query's metrics from its timeline scope and hands back
  /// the result.
  QueryResult finish();

  const Scheduler& scheduler() const { return sched_; }
  const gpu::GpuExecutor& executor() const { return gpu_; }
  const cpu::DecodedCache& decoded_cache() const { return host_cache_; }
  const fault::FaultInjector& injector() const { return injector_; }
  /// The step executor itself, for harnesses that feed it hand-built steps
  /// instead of planned ones.
  StepExecutor& step_executor() { return exec_; }

 private:
  fault::FaultInjector injector_;  ///< before gpu_/exec_: they point at it
  Scheduler sched_;
  gpu::GpuExecutor gpu_;
  cpu::DecodedCache host_cache_;
  cpu::SvsStepper svs_;  ///< after host_cache_: it points at it
  cpu::Bm25Scorer scorer_;
  StepExecutor exec_;
  Planner planner_;
  Query query_;  ///< the in-flight query
  QueryResult res_;
  std::optional<PlanStep> next_;  ///< planned, not yet run
};

}  // namespace griffin::core

namespace griffin::cpu {

/// The CPU-only engine: the "highly optimized CPU implementation" the paper
/// benchmarks Griffin against — SvS order (shortest lists first, Culpepper
/// & Moffat [11]), a per-pair merge/skip choice by length ratio, then
/// BM25 + partial_sort ranking. It is the hybrid engine under kAlwaysCpu.
class CpuEngine : public core::HybridEngine {
 public:
  CpuEngine(const index::InvertedIndex& idx, sim::CpuSpec spec = {},
            CpuEngineOptions opt = {});
};

}  // namespace griffin::cpu

namespace griffin::gpu {

/// The GPU-only engine the paper evaluates as "GPU only" in Figures 14/15
/// (Griffin-GPU, §3.1): the hybrid engine under kAlwaysGpu. Ranking still
/// runs on the CPU, per the Figure 7 finding.
class GpuEngine : public core::HybridEngine {
 public:
  GpuEngine(const index::InvertedIndex& idx, sim::HardwareSpec hw = {},
            GpuOptions opt = {}, cpu::Bm25Params bm25 = {});
};

}  // namespace griffin::gpu
