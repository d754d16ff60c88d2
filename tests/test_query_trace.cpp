// The trace invariants the plan/execute decomposition (DESIGN.md §8)
// guarantees:
//   1. Per-step stage durations sum exactly to the QueryMetrics stage
//      totals — every op in the system belongs to some recorded step, and
//      both are derived from the same stage-tagged timeline ops
//      (testutil::expect_stage_sums).
//   2. An intersect record's placement replays from Scheduler::decide on
//      its recorded StepShape: the trace carries the scheduler's full
//      input, so decisions are auditable after the fact.
//   3. Cold caches don't perturb the plan: a fresh engine with both cache
//      tiers enabled produces the identical trace (all fields) to one with
//      them disabled.
//   4. Warm steady state is deterministic: once the caches are warm,
//      repeated executions of the same query produce identical traces.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <vector>

#include "core/hybrid_engine.h"
#include "core/scheduler.h"
#include "engine_test_util.h"

using namespace griffin;

namespace {

std::vector<core::Query> trace_log(const index::InvertedIndex& idx) {
  workload::QueryLogConfig qcfg;
  qcfg.num_queries = 20;
  qcfg.seed = 314;
  auto log = workload::generate_query_log(
      qcfg, static_cast<std::uint32_t>(idx.num_terms()));
  core::Query single;
  single.terms = {5};
  log.push_back(single);
  core::Query extreme;
  extreme.terms = {static_cast<index::TermId>(idx.num_terms() - 1), 0};
  log.push_back(extreme);
  return log;
}

void expect_identical_traces(const std::vector<core::StepRecord>& a,
                             const std::vector<core::StepRecord>& b,
                             const std::string& label) {
  ASSERT_EQ(a.size(), b.size()) << label;
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_TRUE(a[i] == b[i]) << label << " step " << i;
  }
}

core::HybridOptions caches_off_options() {
  core::HybridOptions opt;
  opt.gpu.list_cache_bytes = 0;
  opt.cpu.decoded_cache_bytes = 0;
  return opt;
}

}  // namespace

TEST(QueryTrace, StepDurationsSumToStageTotals) {
  const auto& idx = testutil::small_index();
  const auto log = trace_log(idx);

  cpu::CpuEngine cpu_engine(idx);
  gpu::GpuEngine gpu_engine(idx);
  core::HybridEngine griffin(idx);
  core::HybridOptions cost_opt;
  cost_opt.scheduler.policy = core::SchedulerPolicy::kCostModel;
  core::HybridEngine griffin_cost(idx, {}, cost_opt);

  const std::vector<std::pair<const char*, core::Engine*>> engines = {
      {"cpu", &cpu_engine},
      {"gpu", &gpu_engine},
      {"griffin", &griffin},
      {"griffin-cost", &griffin_cost},
  };
  for (const auto& [name, engine] : engines) {
    for (std::size_t i = 0; i < log.size(); ++i) {
      const auto res = engine->execute(log[i]);
      const std::string label = std::string(name) + " q" + std::to_string(i);
      testutil::expect_stage_sums(res, label);
      // Attribution: every record carries the caller-assigned query id, and
      // nothing is batch-grouped (batch groups only exist under tenancy).
      for (const auto& r : res.trace) {
        EXPECT_EQ(r.query, log[i].id) << label;
        EXPECT_EQ(r.batch_group, 0u) << label;
      }
    }
  }
}

TEST(QueryTrace, IntersectPlacementsReplayFromRecordedShapes) {
  const auto& idx = testutil::small_index();
  const auto log = trace_log(idx);

  for (const auto policy : {core::SchedulerPolicy::kRatioThreshold,
                            core::SchedulerPolicy::kCostModel}) {
    core::HybridOptions opt;
    opt.scheduler.policy = policy;
    core::HybridEngine engine(idx, {}, opt);
    // The same scheduler configuration the engine runs: the recorded shape
    // is the decision's entire input, so decide() must replay it.
    const core::Scheduler replay(opt.scheduler);
    for (const auto& q : log) {
      const auto res = engine.execute(q);
      for (const auto& rec : res.trace) {
        if (rec.kind != core::StepKind::kIntersect) continue;
        EXPECT_EQ(replay.decide(rec.shape), rec.placement)
            << "policy " << static_cast<int>(policy);
      }
    }
  }
}

TEST(QueryTrace, ColdCachesDoNotPerturbTheTrace) {
  const auto& idx = testutil::small_index();
  const auto log = trace_log(idx);
  for (std::size_t i = 0; i < log.size(); ++i) {
    // Fresh engines per query: both cache tiers are cold, so the recorded
    // plan must be identical whether the tiers exist or not.
    core::HybridEngine with_caches(idx);
    core::HybridEngine without_caches(idx, {}, caches_off_options());
    const auto a = with_caches.execute(log[i]);
    const auto b = without_caches.execute(log[i]);
    // Appended, not `"q" + std::to_string(i)`: GCC 12 reports a false
    // -Wrestrict on that temporary in Release builds.
    std::string label = "q";
    label += std::to_string(i);
    expect_identical_traces(a.trace, b.trace, label);
    EXPECT_EQ(a.metrics.total, b.metrics.total);
  }
}

TEST(QueryTrace, PrefetchNeverChangesResults) {
  // Prefetch moves bytes earlier and changes plans, never answers: the
  // top-k doc ids and the score *bits* are identical with it on and off.
  const auto& idx = testutil::small_index();
  const auto log = trace_log(idx);
  core::HybridOptions no_prefetch;
  no_prefetch.scheduler.prefetch = false;
  core::HybridEngine with(idx);
  core::HybridEngine without(idx, {}, no_prefetch);
  for (std::size_t i = 0; i < log.size(); ++i) {
    const auto a = with.execute(log[i]);
    const auto b = without.execute(log[i]);
    ASSERT_EQ(a.topk.size(), b.topk.size()) << "q" << i;
    for (std::size_t r = 0; r < a.topk.size(); ++r) {
      EXPECT_EQ(a.topk[r].doc, b.topk[r].doc) << "q" << i << " rank " << r;
      std::uint32_t xa, xb;
      std::memcpy(&xa, &a.topk[r].score, sizeof(xa));
      std::memcpy(&xb, &b.topk[r].score, sizeof(xb));
      EXPECT_EQ(xa, xb) << "q" << i << " rank " << r;  // bit-identical
    }
    testutil::expect_stage_sums(a, "prefetch-on q" + std::to_string(i));
    testutil::expect_stage_sums(b, "prefetch-off q" + std::to_string(i));
    EXPECT_EQ(b.metrics.overlap.prefetch_issued, 0u) << "q" << i;
  }
}

TEST(QueryTrace, PrefetchDroppedOnCpuMigration) {
  // Crafted three-term query: the first pair runs on the GPU (ratio 2) and
  // stages a prefetch for the third list (stage-time ratio 50 < 256), but
  // the intersection collapses to 4 docs, so the third intersect's true
  // ratio (25000) clears even the prefetch-boosted threshold (512) and the
  // query migrates to the CPU — the in-flight prefetch loses its consumer
  // and must be dropped, never used.
  index::InvertedIndex idx(codec::Scheme::kEliasFano);
  std::vector<index::DocId> a, b, c;
  for (index::DocId i = 0; i < 2000; ++i) a.push_back(i * 100);
  for (index::DocId i = 0; i < 4; ++i) b.push_back(i * 100);  // the matches
  for (index::DocId i = 0; i < 3996; ++i) b.push_back(i * 100 + 1);
  std::sort(b.begin(), b.end());
  for (index::DocId i = 0; i < 100000; ++i) c.push_back(i * 7);
  const index::DocId universe = 700000;
  idx.docs().resize(universe);
  for (index::DocId d = 0; d < universe; ++d) idx.docs().set_length(d, 1);
  idx.add_list(a);
  idx.add_list(b);
  idx.add_list(c);

  core::HybridEngine engine(idx);
  core::Query q;
  q.terms = {0, 1, 2};
  const auto res = engine.execute(q);
  const auto& m = res.metrics;
  EXPECT_EQ(m.migrations, 1u);
  const auto placements = testutil::intersect_placements(res);
  ASSERT_EQ(placements.size(), 2u);
  EXPECT_EQ(placements[0], core::Placement::kGpu);
  EXPECT_EQ(placements[1], core::Placement::kCpu);
  EXPECT_EQ(m.overlap.prefetch_issued, 1u);
  EXPECT_EQ(m.overlap.prefetch_used, 0u);
  EXPECT_EQ(m.overlap.prefetch_dropped, 1u);
  // The trace carries the prefetch step and the shape bit that set the
  // boosted threshold the migration still cleared.
  bool saw_prefetch = false, saw_boosted_shape = false;
  for (const auto& r : res.trace) {
    if (r.kind == core::StepKind::kPrefetch) {
      saw_prefetch = true;
      EXPECT_EQ(r.term, 2u);
      EXPECT_EQ(r.resource, sim::Resource::kCopyH2D);
    }
    if (r.kind == core::StepKind::kIntersect && r.shape.longer_prefetched) {
      saw_boosted_shape = true;
      EXPECT_EQ(r.placement, core::Placement::kCpu);
    }
  }
  EXPECT_TRUE(saw_prefetch);
  EXPECT_TRUE(saw_boosted_shape);
  testutil::expect_stage_sums(res, "dropped-prefetch");
  const auto want = testutil::reference_topk(idx, q);
  testutil::expect_same_topk(res.topk, want, "dropped-prefetch");
}

TEST(QueryTrace, NoOverlapOnCpuOnlyPaths) {
  // Queries that never touch the GPU have nothing to overlap: the critical
  // path *is* the serial sum, exactly.
  const auto& idx = testutil::small_index();
  const auto log = trace_log(idx);
  core::HybridOptions opt;
  opt.scheduler.policy = core::SchedulerPolicy::kAlwaysCpu;
  core::HybridEngine always_cpu(idx, {}, opt);
  cpu::CpuEngine cpu_engine(idx);
  for (const auto& q : log) {
    for (core::Engine* e :
         {static_cast<core::Engine*>(&always_cpu),
          static_cast<core::Engine*>(&cpu_engine)}) {
      const auto res = e->execute(q);
      EXPECT_EQ(res.metrics.overlap.saved.ps(), 0);
      EXPECT_EQ(res.metrics.overlap.prefetch_issued, 0u);
      EXPECT_EQ(res.metrics.overlap.h2d_busy.ps(), 0);
      EXPECT_EQ(res.metrics.overlap.d2h_busy.ps(), 0);
    }
  }
}

TEST(QueryTrace, WarmCacheTracesAreDeterministic) {
  const auto& idx = testutil::small_index();
  const auto log = trace_log(idx);
  core::HybridEngine engine(idx);
  for (const auto& q : log) engine.execute(q);  // warm both tiers

  for (std::size_t i = 0; i < log.size(); ++i) {
    const auto first = engine.execute(log[i]);
    const auto second = engine.execute(log[i]);
    expect_identical_traces(first.trace, second.trace,
                            "warm q" + std::to_string(i));
  }
}
