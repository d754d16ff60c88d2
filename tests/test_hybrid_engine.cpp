#include "core/hybrid_engine.h"

#include <gtest/gtest.h>

#include "engine_test_util.h"

using namespace griffin;

TEST(HybridEngine, MatchesReferenceOnQueryLog) {
  const auto& idx = testutil::small_index();
  core::HybridEngine engine(idx);

  workload::QueryLogConfig qcfg;
  qcfg.num_queries = 60;
  qcfg.seed = 33;
  const auto log = workload::generate_query_log(
      qcfg, static_cast<std::uint32_t>(idx.num_terms()));
  for (const auto& q : log) {
    const auto got = engine.execute(q);
    const auto want = testutil::reference_topk(idx, q);
    testutil::expect_same_topk(got.topk, want, "griffin");
  }
}

TEST(HybridEngine, AgreesWithCpuAndGpuEngines) {
  const auto& idx = testutil::small_index();
  core::HybridEngine hybrid(idx);
  cpu::CpuEngine cpu_engine(idx);
  gpu::GpuEngine gpu_engine(idx);

  workload::QueryLogConfig qcfg;
  qcfg.num_queries = 25;
  qcfg.seed = 34;
  const auto log = workload::generate_query_log(
      qcfg, static_cast<std::uint32_t>(idx.num_terms()));
  for (const auto& q : log) {
    const auto h = hybrid.execute(q);
    const auto c = cpu_engine.execute(q);
    const auto g = gpu_engine.execute(q);
    testutil::expect_same_topk(h.topk, c.topk, "hybrid-vs-cpu");
    testutil::expect_same_topk(h.topk, g.topk, "hybrid-vs-gpu");
    EXPECT_EQ(h.metrics.result_count, c.metrics.result_count);
  }
}

TEST(HybridEngine, StartsOnGpuForBalancedPair) {
  const auto& idx = testutil::small_index();
  core::HybridEngine engine(idx);
  core::Query q;
  q.terms = {10, 12};  // adjacent ranks: ratio close to 1
  const auto res = engine.execute(q);
  const auto placements = testutil::intersect_placements(res);
  ASSERT_EQ(placements.size(), 1u);
  EXPECT_EQ(placements[0], core::Placement::kGpu);
}

TEST(HybridEngine, StartsOnCpuForExtremeRatio) {
  const auto& idx = testutil::small_index();
  core::HybridEngine engine(idx);
  core::Query q;
  q.terms = {static_cast<index::TermId>(idx.num_terms() - 1), 0};
  ASSERT_GT(static_cast<double>(idx.list(0).size()) /
                static_cast<double>(idx.list(idx.num_terms() - 1).size()),
            128.0);
  const auto res = engine.execute(q);
  const auto placements = testutil::intersect_placements(res);
  ASSERT_EQ(placements.size(), 1u);
  EXPECT_EQ(placements[0], core::Placement::kCpu);
  EXPECT_EQ(res.metrics.migrations, 0u);
}

TEST(HybridEngine, MigratesGpuToCpuWhenIntermediateShrinks) {
  const auto& idx = testutil::large_index();
  // Prefetch off: this pins the paper's base §3.2 rule. (With prefetch on,
  // the staged upload of the huge list boosts the GPU threshold and the
  // same query legitimately stays on the device — covered below.)
  core::HybridOptions opt;
  opt.scheduler.prefetch = false;
  core::HybridEngine engine(idx, {}, opt);
  // Two balanced mid-size lists (GPU start) whose intersection is small,
  // then a huge list: the ratio explodes past 128 and the query must
  // migrate to the CPU (the paper's canonical scenario, §3.2).
  core::Query q;
  q.terms = {10, 11, 0};
  const auto res = engine.execute(q);
  const auto placements = testutil::intersect_placements(res);
  ASSERT_EQ(placements.size(), 2u);
  EXPECT_EQ(placements[0], core::Placement::kGpu);
  EXPECT_EQ(placements[1], core::Placement::kCpu);
  EXPECT_EQ(res.metrics.migrations, 1u);
  EXPECT_GT(res.metrics.transfer.ps(), 0);
  // Correctness preserved across the migration.
  const auto want = testutil::reference_topk(idx, q);
  testutil::expect_same_topk(res.topk, want, "migrated");
}

TEST(HybridEngine, PrefetchKeepsBorderlineQueryOnGpu) {
  const auto& idx = testutil::large_index();
  core::HybridEngine engine(idx);  // prefetch on by default
  core::Query q;
  q.terms = {10, 11, 0};
  const auto res = engine.execute(q);
  // The prefetch staged alongside the first intersect paid the huge list's
  // upload on the copy engine, so the boosted ratio rule keeps the second
  // intersect on the GPU: no migration, and the prefetch is consumed.
  const auto placements = testutil::intersect_placements(res);
  ASSERT_EQ(placements.size(), 2u);
  EXPECT_EQ(placements[1], core::Placement::kGpu);
  EXPECT_EQ(res.metrics.migrations, 0u);
  EXPECT_EQ(res.metrics.overlap.prefetch_issued, 1u);
  EXPECT_EQ(res.metrics.overlap.prefetch_used, 1u);
  EXPECT_EQ(res.metrics.overlap.prefetch_dropped, 0u);
  // Same documents and scores either way.
  const auto want = testutil::reference_topk(idx, q);
  testutil::expect_same_topk(res.topk, want, "prefetched");
}

TEST(HybridEngine, AlwaysCpuPolicyNeverTouchesGpu) {
  const auto& idx = testutil::small_index();
  core::HybridOptions opt;
  opt.scheduler.policy = core::SchedulerPolicy::kAlwaysCpu;
  core::HybridEngine engine(idx, {}, opt);
  core::Query q;
  q.terms = {5, 15, 30};
  const auto res = engine.execute(q);
  EXPECT_EQ(res.metrics.gpu_kernels, 0u);
  const auto placements = testutil::intersect_placements(res);
  for (const auto p : placements) {
    EXPECT_EQ(p, core::Placement::kCpu);
  }
  const auto want = testutil::reference_topk(idx, q);
  testutil::expect_same_topk(res.topk, want, "always-cpu");
}

TEST(HybridEngine, CostModelPolicyIsCorrectToo) {
  const auto& idx = testutil::small_index();
  core::HybridOptions opt;
  opt.scheduler.policy = core::SchedulerPolicy::kCostModel;
  core::HybridEngine engine(idx, {}, opt);
  workload::QueryLogConfig qcfg;
  qcfg.num_queries = 20;
  qcfg.seed = 35;
  const auto log = workload::generate_query_log(
      qcfg, static_cast<std::uint32_t>(idx.num_terms()));
  for (const auto& q : log) {
    const auto got = engine.execute(q);
    const auto want = testutil::reference_topk(idx, q);
    testutil::expect_same_topk(got.topk, want, "cost-model");
  }
}

TEST(HybridEngine, FasterThanBothStaticEnginesOnMixedQuery) {
  // The headline claim in miniature: a query whose early rounds favor the
  // GPU and late rounds favor the CPU runs fastest when it can switch
  // processors mid-query.
  const auto& idx = testutil::large_index();
  core::HybridEngine hybrid(idx);
  cpu::CpuEngine cpu_engine(idx);
  gpu::GpuEngine gpu_engine(idx);

  // Balanced mid-size first pair (GPU-friendly), then a huge list at a
  // ratio deep in CPU territory (~1400): the hybrid engine should combine
  // the best of both.
  core::Query q;
  q.terms = {30, 32, 0};
  const auto h = hybrid.execute(q);
  const auto c = cpu_engine.execute(q);
  const auto g = gpu_engine.execute(q);
  EXPECT_LE(h.metrics.total.ps(),
            static_cast<std::int64_t>(c.metrics.total.ps() * 1.05));
  EXPECT_LE(h.metrics.total.ps(),
            static_cast<std::int64_t>(g.metrics.total.ps() * 1.05));
}

TEST(HybridEngine, HostDecodeWorksAheadForTheNextCpuStep) {
  // Inter-step pipelining, host side (DESIGN.md §15). Two short, balanced
  // lists intersect on the GPU; the third is 300 times longer, so its step
  // is predicted host-side. While the device runs the first step, the idle
  // host core decodes the long list into the decoded cache, and the CPU
  // intersect that follows finds it there.
  const index::DocId universe = 1'000'000;
  std::vector<index::DocId> a, b, c;
  for (index::DocId i = 0; i < 4'800; ++i) c.push_back(200 * i);
  for (index::DocId j = 0; j < 16; ++j) a.push_back(60'000 * j);  // all in c
  for (index::DocId j = 0; j < 16; ++j) {
    b.push_back(60'000 * j + (j % 2 == 0 ? 0 : 7));  // even j: in a and c
  }
  b.push_back(999'999);
  index::InvertedIndex idx(codec::Scheme::kEliasFano);
  idx.docs().resize(universe);
  for (index::DocId d = 0; d < universe; ++d) {
    idx.docs().set_length(d, 100 + d % 97);
  }
  idx.add_list(a);
  idx.add_list(b);
  idx.add_list(c);

  core::HybridEngine engine(idx);
  core::Query q;
  q.terms = {0, 1, 2};
  q.k = 10;
  const auto res = engine.execute(q);

  std::size_t decode_at = res.trace.size();
  std::size_t intersect_at = res.trace.size();
  for (std::size_t i = 0; i < res.trace.size(); ++i) {
    const auto& r = res.trace[i];
    if (r.term != 2) continue;
    if (r.kind == core::StepKind::kHostDecode) decode_at = i;
    if (r.kind == core::StepKind::kIntersect) intersect_at = i;
  }
  const auto placements = testutil::intersect_placements(res);
  ASSERT_EQ(placements.size(), 2u);
  EXPECT_EQ(placements[0], core::Placement::kGpu);
  ASSERT_LT(intersect_at, res.trace.size());
  EXPECT_LT(decode_at, intersect_at);  // the work-ahead came first
  const auto& consumer = res.trace[intersect_at];
  EXPECT_EQ(consumer.placement, core::Placement::kCpu);
  EXPECT_TRUE(consumer.shape.longer_host_decoded);
  EXPECT_EQ(res.metrics.cache.host_hits, 1u);

  // Working ahead moves no result: the CPU engine's top-k, bit for bit.
  cpu::CpuEngine cpu_engine(idx);
  const auto want = cpu_engine.execute(q);
  ASSERT_EQ(res.topk.size(), 8u);
  ASSERT_EQ(want.topk.size(), res.topk.size());
  for (std::size_t i = 0; i < want.topk.size(); ++i) {
    EXPECT_EQ(res.topk[i].doc, want.topk[i].doc) << "rank " << i;
    EXPECT_EQ(res.topk[i].score, want.topk[i].score) << "rank " << i;
  }
}

TEST(HybridEngine, BetsPredictFromTheNextDecisionsShape) {
  // A bet queued after an intersect predicts where the next step runs from
  // Planner::shape_for. Fed the intermediate the bet predicted for, the
  // next decision must see that very shape, its row width included, and
  // place the step where the bet assumed. The planner is driven by hand at
  // an intermediate size where the width alone decides the placement: a
  // two-term intermediate migrates three words a row, a single list one.
  const auto& idx = testutil::small_index();
  core::SchedulerOptions so;
  so.policy = core::SchedulerPolicy::kCostModel;
  const core::Scheduler sched(so);
  const fault::FaultInjector injector(fault::FaultConfig{});
  const gpu::GpuExecutor gpu(idx, {}, {}, injector, 0);
  cpu::DecodedCache cache(0, 0);
  const cpu::SvsStepper svs(idx, sim::CpuSpec{}, cpu::kDefaultSkipRatio,
                            cache);
  core::Planner planner(idx, sched, gpu, svs);

  core::Query q;
  q.terms = {0, 1, 2};  // the three longest lists; term 2 is the shortest
  planner.begin(q);
  const auto first = planner.next(0, std::nullopt);
  ASSERT_TRUE(first.has_value());
  ASSERT_TRUE(std::holds_alternative<core::IntersectStep>(*first));
  const auto& pair = std::get<core::IntersectStep>(*first);
  ASSERT_TRUE(pair.first_pair);
  const auto loc = pair.where == core::Placement::kGpu ? core::Placement::kGpu
                                                       : core::Placement::kCpu;

  std::uint64_t margin = 0;
  for (std::uint64_t n = 1; n <= idx.list(pair.probe_term).size(); ++n) {
    core::StepShape wide = planner.shape_for(n, 0, loc);
    wide.terms = 2;
    core::StepShape narrow = wide;
    narrow.terms = 1;
    if (sched.decide(wide) != sched.decide(narrow)) {
      margin = n;
      break;
    }
  }
  ASSERT_GT(margin, 0u) << "no intermediate size where the width decides";
  const core::StepShape predicted = planner.shape_for(margin, 0, loc);
  EXPECT_EQ(predicted.terms, 2u);

  // Drain the first pair's bet, then decide the next step at that size.
  std::optional<core::PlanStep> step;
  do {
    step = planner.next(margin, loc);
  } while (step.has_value() &&
           !std::holds_alternative<core::IntersectStep>(*step));
  ASSERT_TRUE(step.has_value());
  const auto& next = std::get<core::IntersectStep>(*step);
  EXPECT_EQ(next.term, 0u);
  EXPECT_EQ(next.shape, predicted);
  EXPECT_EQ(next.where, sched.decide(predicted));
}
