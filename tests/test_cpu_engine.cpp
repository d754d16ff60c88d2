#include <gtest/gtest.h>

#include "core/hybrid_engine.h"
#include "engine_test_util.h"

using namespace griffin;

TEST(CpuEngine, MatchesReferenceOnQueryLog) {
  const auto& idx = testutil::small_index();
  cpu::CpuEngine engine(idx);

  workload::QueryLogConfig qcfg;
  qcfg.num_queries = 60;
  qcfg.seed = 31;
  const auto log = workload::generate_query_log(
      qcfg, static_cast<std::uint32_t>(idx.num_terms()));
  for (const auto& q : log) {
    const auto got = engine.execute(q);
    const auto want = testutil::reference_topk(idx, q);
    testutil::expect_same_topk(got.topk, want, "cpu");
    EXPECT_EQ(got.metrics.result_count,
              testutil::reference_matches(idx, q).size());
  }
}

TEST(CpuEngine, EmptyQuery) {
  const auto& idx = testutil::small_index();
  cpu::CpuEngine engine(idx);
  const auto res = engine.execute(core::Query{});
  EXPECT_TRUE(res.topk.empty());
  EXPECT_EQ(res.metrics.result_count, 0u);
}

TEST(CpuEngine, SingleTermQuery) {
  const auto& idx = testutil::small_index();
  cpu::CpuEngine engine(idx);
  core::Query q;
  q.terms = {250};  // a rare-ish term
  q.k = 5;
  const auto got = engine.execute(q);
  const auto want = testutil::reference_topk(idx, q);
  testutil::expect_same_topk(got.topk, want, "single-term");
  EXPECT_EQ(got.metrics.result_count, idx.list(250).size());
}

TEST(CpuEngine, RepeatedTermBehavesLikeSingle) {
  const auto& idx = testutil::small_index();
  cpu::CpuEngine engine(idx);
  core::Query q;
  q.terms = {100, 100};
  const auto got = engine.execute(q);
  EXPECT_EQ(got.metrics.result_count, idx.list(100).size());
}

TEST(CpuEngine, MetricsAreAccounted) {
  const auto& idx = testutil::small_index();
  cpu::CpuEngine engine(idx);
  core::Query q;
  // Same-topic terms (ids congruent mod num_topics) so the intermediate
  // result survives both steps.
  q.terms = {0, 64, 128};
  const auto res = engine.execute(q);
  ASSERT_GT(res.metrics.result_count, 0u);
  EXPECT_GT(res.metrics.total.ps(), 0);
  EXPECT_GT(res.metrics.intersect.ps(), 0);
  const auto placements = testutil::intersect_placements(res);
  EXPECT_EQ(placements.size(), 2u);  // two pairwise steps
  for (const auto p : placements) {
    EXPECT_EQ(p, core::Placement::kCpu);
  }
  EXPECT_EQ(res.metrics.gpu_kernels, 0u);
  EXPECT_EQ(res.metrics.migrations, 0u);
  EXPECT_EQ(res.metrics.transfer.ps(), 0);
  // Stage times sum to the total.
  const auto sum = res.metrics.decode + res.metrics.intersect +
                   res.metrics.transfer + res.metrics.rank;
  EXPECT_EQ(sum.ps(), res.metrics.total.ps());
}

TEST(CpuEngine, KLimitsResults) {
  const auto& idx = testutil::small_index();
  cpu::CpuEngine engine(idx);
  core::Query q;
  q.terms = {0, 1};
  q.k = 3;
  const auto res = engine.execute(q);
  EXPECT_LE(res.topk.size(), 3u);
  if (res.metrics.result_count >= 3) {
    EXPECT_EQ(res.topk.size(), 3u);
  }
}

TEST(CpuEngine, SkipRatioOptionChangesNothingFunctionally) {
  const auto& idx = testutil::small_index();
  cpu::CpuEngineOptions always_merge;
  always_merge.skip_ratio = 1e18;
  cpu::CpuEngineOptions always_skip;
  always_skip.skip_ratio = 1.0;
  cpu::CpuEngine e1(idx, {}, always_merge);
  cpu::CpuEngine e2(idx, {}, always_skip);

  core::Query q;
  q.terms = {3, 80, 222};
  const auto r1 = e1.execute(q);
  const auto r2 = e2.execute(q);
  testutil::expect_same_topk(r1.topk, r2.topk, "merge-vs-skip");
  EXPECT_EQ(r1.metrics.result_count, r2.metrics.result_count);
}
