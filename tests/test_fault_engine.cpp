// Engine-level fault handling (DESIGN.md §11/§16): an injected GPU device
// fault abandons the step, charges the wasted device time, and re-plans the
// rest of the query on the CPU — with bit-identical results; an injected
// PCIe error re-pays the transfer (bounded retry) and never corrupts data;
// injected device memory pressure climbs the OOM degradation ladder
// (evict -> unfuse -> re-plan one step) without changing a bit. And the
// golden-parity invariant: an armed injector whose faults never fire
// perturbs nothing.
#include <gtest/gtest.h>

#include "core/hybrid_engine.h"
#include "engine_test_util.h"

using namespace griffin;

namespace {

core::HybridOptions gpu_heavy_options() {
  core::HybridOptions opt;
  // Pin every schedulable step to the GPU so fault sites are guaranteed to
  // be exercised; the fault path must still fall back to the CPU.
  opt.scheduler.policy = core::SchedulerPolicy::kAlwaysGpu;
  return opt;
}

void expect_stage_identity(const core::QueryMetrics& m) {
  EXPECT_EQ(m.decode + m.intersect + m.transfer + m.rank,
            m.total + m.overlap.saved);
}

}  // namespace

TEST(FaultEngine, ArmedButSilentInjectorIsBitIdentical) {
  const auto& idx = testutil::small_index();
  core::HybridOptions plain = gpu_heavy_options();
  core::HybridOptions armed = gpu_heavy_options();
  // Armed sites (the injector is consulted) whose scripted faults point at
  // a query id the log never reaches: every decision returns false, and
  // the run must be bit-identical to a disarmed one.
  armed.faults.gpu.triggers.push_back({/*query=*/999999, /*scope=*/0});
  armed.faults.pcie.triggers.push_back({/*query=*/999999, /*scope=*/0});

  core::HybridEngine a(idx, {}, plain);
  core::HybridEngine b(idx, {}, armed);

  workload::QueryLogConfig qcfg;
  qcfg.num_queries = 40;
  qcfg.seed = 81;
  const auto log = workload::generate_query_log(
      qcfg, static_cast<std::uint32_t>(idx.num_terms()));
  for (const auto& q : log) {
    const auto ra = a.execute(q);
    const auto rb = b.execute(q);
    EXPECT_EQ(ra.metrics.total, rb.metrics.total);
    EXPECT_EQ(ra.metrics.decode, rb.metrics.decode);
    EXPECT_EQ(ra.metrics.transfer, rb.metrics.transfer);
    EXPECT_EQ(ra.metrics.gpu_kernels, rb.metrics.gpu_kernels);
    EXPECT_EQ(ra.trace.size(), rb.trace.size());
    EXPECT_FALSE(rb.metrics.faults.any());
    testutil::expect_same_topk(ra.topk, rb.topk, "armed-silent");
  }
}

TEST(FaultEngine, GpuFaultDegradesToCpuWithIdenticalResults) {
  const auto& idx = testutil::small_index();
  core::HybridOptions opt = gpu_heavy_options();
  opt.faults.gpu.triggers.push_back({/*query=*/0, /*scope=*/0});

  core::Query q;
  q.terms = {5, 15, 30};
  q.id = 0;

  core::HybridEngine faulty(idx, {}, opt);
  const auto res = faulty.execute(q);

  // Exactly one abandoned step: after the fault the whole remainder is
  // forced onto the CPU, so the (every-step) trigger never fires again.
  EXPECT_EQ(res.metrics.faults.gpu_faults, 1u);
  EXPECT_EQ(res.metrics.faults.gpu_wasted,
            sim::Duration::from_us(core::kGpuFaultCostUs));
  for (const auto p : testutil::intersect_placements(res)) {
    EXPECT_EQ(p, core::Placement::kCpu);
  }

  // The wasted time is a real trace record, flagged and summarized.
  core::TraceSummary sum;
  sum.add(res.trace);
  EXPECT_EQ(sum.faulted_steps, 1u);
  EXPECT_EQ(sum.gpu_intersects, 0u);
  bool saw_faulted = false;
  for (const auto& r : res.trace) {
    if (r.faulted) {
      saw_faulted = true;
      EXPECT_EQ(r.placement, core::Placement::kGpu);
      EXPECT_EQ(r.duration, sim::Duration::from_us(core::kGpuFaultCostUs));
    }
  }
  EXPECT_TRUE(saw_faulted);
  expect_stage_identity(res.metrics);

  // Bit-identical answer to the reference and to a fault-free engine.
  const auto want = testutil::reference_topk(idx, q);
  testutil::expect_same_topk(res.topk, want, "gpu-fault");
  core::HybridEngine clean(idx, {}, gpu_heavy_options());
  const auto ref = clean.execute(q);
  ASSERT_EQ(res.topk.size(), ref.topk.size());
  for (std::size_t i = 0; i < ref.topk.size(); ++i) {
    EXPECT_EQ(res.topk[i].doc, ref.topk[i].doc);
    EXPECT_EQ(res.topk[i].score, ref.topk[i].score);  // bit-exact
  }
  // The wasted device time is part of the query's latency.
  EXPECT_GE(res.metrics.total, res.metrics.faults.gpu_wasted);
}

TEST(FaultEngine, GpuFaultOnSingleTermQuery) {
  const auto& idx = testutil::small_index();
  core::HybridOptions opt = gpu_heavy_options();
  opt.faults.gpu.triggers.push_back({/*query=*/7, /*scope=*/0});

  core::Query q;
  q.terms = {12};
  q.id = 7;
  core::HybridEngine engine(idx, {}, opt);
  const auto res = engine.execute(q);
  EXPECT_EQ(res.metrics.faults.gpu_faults, 1u);
  const auto want = testutil::reference_topk(idx, q);
  testutil::expect_same_topk(res.topk, want, "gpu-fault-decode");
  expect_stage_identity(res.metrics);
}

TEST(FaultEngine, GpuFaultScopeGatesTheTrigger) {
  const auto& idx = testutil::small_index();
  core::HybridOptions opt = gpu_heavy_options();
  opt.faults.gpu.triggers.push_back({/*query=*/0, /*scope=*/3});
  opt.fault_scope = 1;  // this engine is not scope 3

  core::Query q;
  q.terms = {5, 15};
  core::HybridEngine engine(idx, {}, opt);
  const auto res = engine.execute(q);
  EXPECT_EQ(res.metrics.faults.gpu_faults, 0u);
  EXPECT_FALSE(res.metrics.faults.any());
}

TEST(FaultEngine, PcieErrorsRetryAndRepayTransferTime) {
  const auto& idx = testutil::small_index();
  core::HybridOptions opt = gpu_heavy_options();
  opt.faults.pcie.triggers.push_back({/*query=*/0, /*scope=*/0});

  core::Query q;
  q.terms = {5, 15, 30};
  q.id = 0;

  core::HybridEngine faulty(idx, {}, opt);
  core::HybridEngine clean(idx, {}, gpu_heavy_options());
  const auto res = faulty.execute(q);
  const auto ref = clean.execute(q);

  // Every transfer's first attempt failed and was retried: errors counted,
  // the re-paid time visible in both the counter and the transfer stage.
  EXPECT_GT(res.metrics.faults.pcie_errors, 0u);
  EXPECT_GT(res.metrics.faults.pcie_retry_time.ps(), 0);
  EXPECT_EQ(res.metrics.transfer,
            ref.metrics.transfer + res.metrics.faults.pcie_retry_time);
  EXPECT_EQ(res.metrics.faults.gpu_faults, 0u);
  expect_stage_identity(res.metrics);

  // Retries are timing-only: the answer is bit-identical.
  ASSERT_EQ(res.topk.size(), ref.topk.size());
  for (std::size_t i = 0; i < ref.topk.size(); ++i) {
    EXPECT_EQ(res.topk[i].doc, ref.topk[i].doc);
    EXPECT_EQ(res.topk[i].score, ref.topk[i].score);
  }
}

TEST(FaultEngine, PcieRetryCountIsBoundedPerTransfer) {
  const auto& idx = testutil::small_index();
  core::HybridOptions opt = gpu_heavy_options();
  opt.faults.pcie.probability = 1.0;  // every attempt fails...

  core::Query q;
  q.terms = {5, 15};
  core::HybridEngine engine(idx, {}, opt);
  const auto res = engine.execute(q);
  EXPECT_GT(res.metrics.faults.pcie_errors, 0u);

  core::HybridEngine clean(idx, {}, gpu_heavy_options());
  const auto ref = clean.execute(q);
  // ...but the link gives up retrying: the worst case pays exactly
  // kPcieMaxRetries extra copies of the clean transfer time (p = 1 makes the
  // worst case the only case).
  EXPECT_EQ(res.metrics.transfer,
            ref.metrics.transfer * double(pcie::kPcieMaxRetries + 1));
  testutil::expect_same_topk(res.topk, ref.topk, "pcie-bounded");
}

TEST(FaultEngine, ProbabilisticFaultsPreserveCorrectnessOverALog) {
  const auto& idx = testutil::small_index();
  core::HybridOptions opt = gpu_heavy_options();
  opt.faults.gpu.probability = 0.15;
  opt.faults.pcie.probability = 0.02;
  opt.faults.seed = 2026;

  core::HybridEngine engine(idx, {}, opt);
  workload::QueryLogConfig qcfg;
  qcfg.num_queries = 60;
  qcfg.seed = 82;
  const auto log = workload::generate_query_log(
      qcfg, static_cast<std::uint32_t>(idx.num_terms()));

  fault::FaultCounters total;
  for (const auto& q : log) {
    const auto res = engine.execute(q);
    total += res.metrics.faults;
    expect_stage_identity(res.metrics);
    const auto want = testutil::reference_topk(idx, q);
    testutil::expect_same_topk(res.topk, want, "probabilistic");
  }
  // The sweep actually exercised both fault sites.
  EXPECT_GT(total.gpu_faults, 0u);
  EXPECT_GT(total.pcie_errors, 0u);
  EXPECT_GT(total.gpu_wasted.ps(), 0);
}

TEST(FaultEngine, FaultRunsAreDeterministic) {
  const auto& idx = testutil::small_index();
  core::HybridOptions opt = gpu_heavy_options();
  opt.faults.gpu.probability = 0.2;
  opt.faults.pcie.probability = 0.05;
  opt.faults.seed = 5;

  workload::QueryLogConfig qcfg;
  qcfg.num_queries = 30;
  qcfg.seed = 83;
  const auto log = workload::generate_query_log(
      qcfg, static_cast<std::uint32_t>(idx.num_terms()));

  core::HybridEngine a(idx, {}, opt);
  core::HybridEngine b(idx, {}, opt);
  for (const auto& q : log) {
    const auto ra = a.execute(q);
    const auto rb = b.execute(q);
    EXPECT_EQ(ra.metrics.total, rb.metrics.total);
    EXPECT_EQ(ra.metrics.faults, rb.metrics.faults);
    EXPECT_EQ(ra.trace.size(), rb.trace.size());
  }
}

// ---- The OOM degradation ladder (DESIGN.md §16) -------------------------

TEST(FaultEngine, OomEvictsDeviceCacheAndProceedsOnTheGpu) {
  const auto& idx = testutil::small_index();
  core::HybridOptions opt = gpu_heavy_options();
  opt.faults.oom.triggers.push_back({/*query=*/1, /*scope=*/0});
  core::HybridEngine faulty(idx, {}, opt);
  core::HybridEngine clean(idx, {}, gpu_heavy_options());

  // Warm the device list cache with an unaffected query so rung 1 has
  // something to evict when the triggered query allocates.
  core::Query warm;
  warm.terms = {5, 15, 30};
  warm.id = 0;
  faulty.execute(warm);
  clean.execute(warm);

  core::Query q;
  q.terms = {5, 15, 30};
  q.id = 1;
  const auto res = faulty.execute(q);
  const auto ref = clean.execute(q);

  EXPECT_GT(res.metrics.faults.oom_faults, 0u);
  EXPECT_GT(res.metrics.faults.oom_evictions, 0u);
  EXPECT_GT(res.metrics.faults.oom_evicted_bytes, 0u);
  EXPECT_GT(res.metrics.faults.oom_recovery.ps(), 0);
  EXPECT_EQ(res.metrics.faults.gpu_faults, 0u);
  testutil::expect_stage_sums(res, "oom-rung1");

  // Rungs 1/2 recover on the device — bit-identical answer, only timing
  // and counters changed.
  ASSERT_EQ(res.topk.size(), ref.topk.size());
  for (std::size_t i = 0; i < ref.topk.size(); ++i) {
    EXPECT_EQ(res.topk[i].doc, ref.topk[i].doc);
    EXPECT_EQ(res.topk[i].score, ref.topk[i].score);
  }
}

TEST(FaultEngine, OomLadderBottomsOutToSingleStepDegrade) {
  const auto& idx = testutil::small_index();
  core::HybridOptions opt = gpu_heavy_options();
  opt.gpu.list_cache_bytes = 0;    // rung 1 has nothing to evict
  opt.scheduler.prefetch = false;  // no optional uploads drawing OOM draws
  opt.faults.oom.triggers.push_back({/*query=*/0, /*scope=*/0});

  core::Query q;
  q.terms = {5, 15, 30};
  q.id = 0;
  core::HybridEngine faulty(idx, {}, opt);
  const auto res = faulty.execute(q);

  // Sequential execution never batches, so the ladder goes straight to
  // rung 3: the hit step is abandoned and re-planned host-side; later
  // steps decide freely (and here hit the trigger again until the plan
  // finishes on the CPU).
  EXPECT_GT(res.metrics.faults.oom_faults, 0u);
  EXPECT_GT(res.metrics.faults.oom_degraded_steps, 0u);
  EXPECT_EQ(res.metrics.faults.oom_evictions, 0u);
  EXPECT_EQ(res.metrics.faults.oom_unfused, 0u);
  EXPECT_EQ(res.metrics.faults.gpu_faults, 0u);
  EXPECT_EQ(res.metrics.faults.oom_recovery,
            sim::Duration::from_us(core::kOomReplanCostUs) *
                double(res.metrics.faults.oom_degraded_steps));
  testutil::expect_stage_sums(res, "oom-rung3");

  // Every abandoned step is a faulted trace record charging exactly the
  // replan stall.
  core::TraceSummary sum;
  sum.add(res.trace);
  EXPECT_EQ(sum.faulted_steps, res.metrics.faults.oom_degraded_steps);
  for (const auto& r : res.trace) {
    if (r.faulted) {
      EXPECT_EQ(r.duration, sim::Duration::from_us(core::kOomReplanCostUs));
    }
  }

  const auto want = testutil::reference_topk(idx, q);
  testutil::expect_same_topk(res.topk, want, "oom-rung3");
}

TEST(FaultEngine, ProbabilisticOomPreservesCorrectnessOverALog) {
  const auto& idx = testutil::small_index();
  core::HybridOptions opt = gpu_heavy_options();
  opt.faults.oom.probability = 0.2;
  opt.faults.seed = 303;

  core::HybridEngine engine(idx, {}, opt);
  core::HybridEngine twin(idx, {}, opt);
  workload::QueryLogConfig qcfg;
  qcfg.num_queries = 50;
  qcfg.seed = 84;
  const auto log = workload::generate_query_log(
      qcfg, static_cast<std::uint32_t>(idx.num_terms()));

  fault::FaultCounters total;
  for (const auto& q : log) {
    const auto res = engine.execute(q);
    const auto res2 = twin.execute(q);
    EXPECT_EQ(res.metrics.total, res2.metrics.total);  // deterministic
    total += res.metrics.faults;
    testutil::expect_stage_sums(res, "oom-probabilistic");
    const auto want = testutil::reference_topk(idx, q);
    testutil::expect_same_topk(res.topk, want, "oom-probabilistic");
  }
  EXPECT_GT(total.oom_faults, 0u);
  // Both recovery modes fired somewhere in the sweep: evictions while the
  // warm cache had bytes, step degrades once it drained.
  EXPECT_GT(total.oom_evictions + total.oom_degraded_steps, 0u);
}

// ---- Manual step harness: the fault paths the planner's policies cannot
// ---- deterministically reach (device-resident split legs, lone prefetch).

namespace {

core::HybridOptions with_faults(const fault::FaultConfig& faults) {
  core::HybridOptions opt;
  opt.faults = faults;
  return opt;
}

/// An engine armed with `faults` whose StepExecutor the tests feed
/// hand-built steps straight into, bypassing its planner.
struct ManualExec {
  ManualExec(const index::InvertedIndex& idx, const fault::FaultConfig& faults)
      : engine(idx, {}, with_faults(faults)), exec(engine.step_executor()) {}

  core::HybridEngine engine;
  core::StepExecutor& exec;
};

}  // namespace

TEST(FaultEngine, SplitLegFaultOverDeviceResidentProbes) {
  const auto& idx = testutil::small_index();
  core::Query q;
  q.terms = {5, 15, 30};
  q.id = 0;

  // A probabilistic schedule that misses the first (kGpu) step and hits the
  // second (kSplit) one — found by scanning seeds, so the fault lands while
  // the intermediate is device-resident.
  fault::FaultConfig cfg;
  cfg.gpu.probability = 0.5;
  for (cfg.seed = 1;; ++cfg.seed) {
    const fault::FaultInjector probe(cfg);
    if (!probe.gpu_step_fault(0, q.id, 0) &&
        probe.gpu_step_fault(0, q.id, 1)) {
      break;
    }
  }

  ManualExec me(idx, cfg);
  core::QueryResult res;
  me.exec.begin_query(q);

  core::IntersectStep first;
  first.term = idx.list(5).size() < idx.list(15).size() ? 15 : 5;
  first.probe_term = first.term == 15 ? 5 : 15;
  first.first_pair = true;
  first.where = core::Placement::kGpu;
  ASSERT_EQ(me.exec.run(first, q, res), core::StepStatus::kOk);
  ASSERT_EQ(me.exec.location(), core::Placement::kGpu);
  ASSERT_GT(me.exec.intermediate_count(), 0u);

  core::IntersectStep split;
  split.term = 30;
  split.where = core::Placement::kSplit;
  split.alpha = 0.5;
  EXPECT_EQ(me.exec.run(split, q, res), core::StepStatus::kOkForceCpu);
  // The step completed host-side despite losing its GPU leg: the whole
  // device intermediate was drained and both ranges redone on the CPU.
  EXPECT_EQ(me.exec.location(), core::Placement::kCpu);
  EXPECT_EQ(res.metrics.faults.split_leg_faults, 1u);
  EXPECT_EQ(res.metrics.faults.gpu_faults, 1u);
  EXPECT_EQ(res.metrics.faults.gpu_wasted,
            sim::Duration::from_us(core::kGpuFaultCostUs));

  EXPECT_EQ(me.exec.run(core::RankStep{}, q, res), core::StepStatus::kOk);
  me.exec.finish_query(res.metrics);
  testutil::expect_stage_sums(res, "split-leg-device");

  // The survived-leg record counts as a normal (leg-flagged) step, not an
  // abandoned one.
  core::TraceSummary sum;
  sum.add(res.trace);
  EXPECT_EQ(sum.leg_faulted_steps, 1u);
  EXPECT_EQ(sum.faulted_steps, 0u);
  EXPECT_EQ(sum.split_intersects, 1u);

  const auto want = testutil::reference_topk(idx, q);
  testutil::expect_same_topk(res.topk, want, "split-leg-device");
}

TEST(FaultEngine, FaultedPrefetchIsDroppedWithoutPoisoningTheCache) {
  const auto& idx = testutil::small_index();
  core::Query q;
  q.terms = {5, 15, 30};
  q.id = 0;

  fault::FaultConfig cfg;
  cfg.gpu.triggers.push_back({/*query=*/0, /*scope=*/0});
  ManualExec me(idx, cfg);
  core::QueryResult res;
  me.exec.begin_query(q);

  // CPU steps never draw gpu-site coordinates; only the prefetch does.
  core::IntersectStep first;
  first.term = idx.list(5).size() < idx.list(15).size() ? 15 : 5;
  first.probe_term = first.term == 15 ? 5 : 15;
  first.first_pair = true;
  first.where = core::Placement::kCpu;
  ASSERT_EQ(me.exec.run(first, q, res), core::StepStatus::kOk);

  ASSERT_EQ(me.exec.run(core::PrefetchStep{30}, q, res),
            core::StepStatus::kOk);
  EXPECT_EQ(res.metrics.faults.prefetch_faults, 1u);
  const gpu::GpuExecutor& device = me.engine.executor();
  EXPECT_FALSE(device.prefetched(30));       // never went in flight
  EXPECT_FALSE(device.device_resident(30));  // never entered the cache
  EXPECT_EQ(res.metrics.overlap.prefetch_issued, 0u);

  // The drop is a zero-duration faulted record: nothing was charged.
  ASSERT_EQ(res.trace.size(), 2u);
  EXPECT_TRUE(res.trace[1].faulted);
  EXPECT_EQ(res.trace[1].kind, core::StepKind::kPrefetch);
  EXPECT_EQ(res.trace[1].duration, sim::Duration());

  core::IntersectStep next;
  next.term = 30;
  next.where = core::Placement::kCpu;
  ASSERT_EQ(me.exec.run(next, q, res), core::StepStatus::kOk);
  ASSERT_EQ(me.exec.run(core::RankStep{}, q, res), core::StepStatus::kOk);
  me.exec.finish_query(res.metrics);
  testutil::expect_stage_sums(res, "prefetch-drop");

  const auto want = testutil::reference_topk(idx, q);
  testutil::expect_same_topk(res.topk, want, "prefetch-drop");
}

TEST(FaultEngine, PcieErrorsDuringChunkedPrefetchUploadAreRetried) {
  // Satellite contract: a PCIe error in the middle of a chunked,
  // double-buffered prefetch upload re-pays the failed DMA (bounded retry)
  // and the prefetch machinery's salvage accounting stays conserved.
  const auto& idx = testutil::small_index();
  core::HybridOptions opt = gpu_heavy_options();  // prefetch + chunking on
  opt.faults.pcie.triggers.push_back({/*query=*/0, /*scope=*/0});

  core::Query q;
  q.terms = {5, 15, 30};
  q.id = 0;
  core::HybridEngine faulty(idx, {}, opt);
  core::HybridEngine clean(idx, {}, gpu_heavy_options());
  const auto res = faulty.execute(q);
  const auto ref = clean.execute(q);

  // The plan actually issued a prefetch, and every upload DMA (the
  // prefetch's included) failed its first attempt.
  EXPECT_GT(res.metrics.overlap.prefetch_issued, 0u);
  EXPECT_GT(res.metrics.faults.pcie_errors, 0u);
  EXPECT_GT(res.metrics.faults.pcie_retry_time.ps(), 0);
  EXPECT_EQ(res.metrics.transfer,
            ref.metrics.transfer + res.metrics.faults.pcie_retry_time);
  // Salvage conservation: every issued prefetch is either consumed by a
  // later device step or dropped (and counted) at query end.
  EXPECT_EQ(res.metrics.overlap.prefetch_issued,
            res.metrics.overlap.prefetch_used +
                res.metrics.overlap.prefetch_dropped);
  expect_stage_identity(res.metrics);

  ASSERT_EQ(res.topk.size(), ref.topk.size());
  for (std::size_t i = 0; i < ref.topk.size(); ++i) {
    EXPECT_EQ(res.topk[i].doc, ref.topk[i].doc);
    EXPECT_EQ(res.topk[i].score, ref.topk[i].score);
  }
}

TEST(FaultEngine, HybridPolicyDegradesMidQuery) {
  // Under the paper's ratio policy (not the pinned kAlwaysGpu), a fault on
  // a GPU-started query must still finish on the CPU with the right answer.
  const auto& idx = testutil::large_index();
  core::HybridOptions opt;
  opt.faults.gpu.triggers.push_back({/*query=*/0, /*scope=*/0});

  core::Query q;
  q.terms = {10, 11, 0};  // GPU start (balanced pair), then a huge list
  q.id = 0;
  core::HybridEngine engine(idx, {}, opt);
  const auto res = engine.execute(q);
  EXPECT_EQ(res.metrics.faults.gpu_faults, 1u);
  const auto want = testutil::reference_topk(idx, q);
  testutil::expect_same_topk(res.topk, want, "hybrid-degrade");
  expect_stage_identity(res.metrics);
}
