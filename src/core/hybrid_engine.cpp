#include "core/hybrid_engine.h"

#include <utility>

namespace griffin::core {

HybridEngine::HybridEngine(const index::InvertedIndex& idx,
                           sim::HardwareSpec hw, HybridOptions opt)
    : injector_(opt.faults),
      sched_(opt.scheduler, hw),
      gpu_(idx, hw, opt.gpu, injector_, opt.fault_scope),
      host_cache_(opt.cpu.decoded_cache_bytes),
      svs_(idx, hw.cpu, opt.cpu.skip_ratio, host_cache_),
      scorer_(idx, opt.cpu.bm25),
      exec_(hw.cpu, svs_, gpu_, scorer_, injector_, opt.fault_scope),
      planner_(idx, sched_, exec_) {}

QueryResult HybridEngine::execute(const Query& q) {
  if (q.terms.empty()) return {};
  begin(q);
  while (pending() != nullptr) advance();
  return finish();
}

void HybridEngine::begin(const Query& q, sim::Timeline* shared,
                         sim::Duration release) {
  query_ = q;
  res_ = QueryResult{};
  exec_.begin_query(query_, shared, release);
  planner_.begin(query_);
  next_ = planner_.next(exec_.intermediate_count(), exec_.location());
}

bool HybridEngine::advance(std::uint32_t width, std::uint64_t group) {
  exec_.set_batch(width, group);
  const StepStatus st = exec_.run(*next_, query_, res_);
  exec_.set_batch(1, 0);
  // Injected-fault recovery (DESIGN.md §11/§16), scoped to this query: a
  // fault inside a fused launch degrades only the hit member. kFaultQuery
  // pins every later decision host-side, so at most one *device* fault
  // fires per query; the step-scoped statuses leave later placements free,
  // so a query can ride the OOM ladder more than once.
  switch (st) {
    case StepStatus::kOk:
      break;
    case StepStatus::kOkForceCpu:
      planner_.force_cpu();
      break;
    case StepStatus::kFaultQuery:
      planner_.degrade_to_cpu(*next_);
      break;
    case StepStatus::kFaultStep:
      planner_.degrade_step_to_cpu(*next_);
      break;
  }
  next_ = planner_.next(exec_.intermediate_count(), exec_.location());
  return next_.has_value();
}

QueryResult HybridEngine::finish() {
  exec_.finish_query(res_.metrics);
  return std::move(res_);
}

}  // namespace griffin::core

namespace griffin::cpu {

namespace {
sim::HardwareSpec with_cpu(sim::CpuSpec spec) {
  sim::HardwareSpec hw;
  hw.cpu = spec;
  return hw;
}

core::HybridOptions cpu_only(CpuEngineOptions opt) {
  core::HybridOptions h;
  h.scheduler.policy = core::SchedulerPolicy::kAlwaysCpu;
  h.cpu = opt;
  return h;
}
}  // namespace

CpuEngine::CpuEngine(const index::InvertedIndex& idx, sim::CpuSpec spec,
                     CpuEngineOptions opt)
    : core::HybridEngine(idx, with_cpu(spec), cpu_only(opt)) {}

}  // namespace griffin::cpu

namespace griffin::gpu {

namespace {
core::HybridOptions gpu_only(GpuOptions opt, cpu::Bm25Params bm25) {
  core::HybridOptions h;
  h.scheduler.policy = core::SchedulerPolicy::kAlwaysGpu;
  h.gpu = opt;
  h.cpu.bm25 = bm25;
  return h;
}
}  // namespace

GpuEngine::GpuEngine(const index::InvertedIndex& idx, sim::HardwareSpec hw,
                     GpuOptions opt, cpu::Bm25Params bm25)
    : core::HybridEngine(idx, hw, gpu_only(opt, bm25)) {}

}  // namespace griffin::gpu
