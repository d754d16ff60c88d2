#include <gtest/gtest.h>

#include <string>

#include "codec/codec.h"
#include "core/hybrid_engine.h"
#include "engine_test_util.h"

using namespace griffin;

TEST(GpuEngine, MatchesReferenceOnQueryLog) {
  const auto& idx = testutil::small_index();
  gpu::GpuEngine engine(idx);

  workload::QueryLogConfig qcfg;
  qcfg.num_queries = 40;
  qcfg.seed = 32;
  const auto log = workload::generate_query_log(
      qcfg, static_cast<std::uint32_t>(idx.num_terms()));
  for (const auto& q : log) {
    const auto got = engine.execute(q);
    const auto want = testutil::reference_topk(idx, q);
    testutil::expect_same_topk(got.topk, want, "gpu");
  }
}

TEST(GpuEngine, SingleTermQuery) {
  const auto& idx = testutil::small_index();
  gpu::GpuEngine engine(idx);
  core::Query q;
  q.terms = {280};
  const auto got = engine.execute(q);
  const auto want = testutil::reference_topk(idx, q);
  testutil::expect_same_topk(got.topk, want, "gpu-single");
}

TEST(GpuEngine, AllStepsRunOnGpu) {
  const auto& idx = testutil::small_index();
  gpu::GpuEngine engine(idx);
  core::Query q;
  q.terms = {1, 10, 100};
  const auto res = engine.execute(q);
  const auto placements = testutil::intersect_placements(res);
  EXPECT_EQ(placements.size(), 2u);
  for (const auto p : placements) {
    EXPECT_EQ(p, core::Placement::kGpu);
  }
  EXPECT_GT(res.metrics.gpu_kernels, 0u);
  EXPECT_GT(res.metrics.transfer.ps(), 0);
  EXPECT_GT(res.metrics.decode.ps(), 0);
  EXPECT_GT(res.metrics.intersect.ps(), 0);
  EXPECT_GT(res.metrics.rank.ps(), 0);  // ranking still happens, on CPU
}

TEST(GpuEngine, DeviceMemoryReleasedBetweenQueries) {
  const auto& idx = testutil::small_index();
  gpu::GpuEngine engine(idx);
  core::Query q;
  q.terms = {0, 1};  // the two biggest lists
  engine.execute(q);
  const auto used_after_first = engine.executor().device().used();
  for (int i = 0; i < 5; ++i) engine.execute(q);
  // No growth across repeated queries: buffers are per-query RAII.
  EXPECT_LE(engine.executor().device().used(), used_after_first + 1024);
}

TEST(GpuEngine, HighRatioQueryUsesBinaryPath) {
  const auto& idx = testutil::small_index();
  // Rarest term vs most frequent: ratio far above 128 => the binary-search
  // path uploads only candidate blocks, so transferred payload stays small.
  gpu::GpuEngine engine(idx);
  core::Query q;
  q.terms = {static_cast<index::TermId>(idx.num_terms() - 1), 0};
  const auto res = engine.execute(q);
  const auto want = testutil::reference_topk(idx, q);
  testutil::expect_same_topk(res.topk, want, "gpu-high-ratio");
}

TEST(GpuEngine, HandlesEveryCodecScheme) {
  // The device decode layer dispatches per list scheme, so the GPU engine
  // no longer demands an EF index: every codec must produce the reference
  // top-k (serial-fallback codecs just pay more simulated time).
  workload::CorpusConfig cfg = testutil::small_corpus_config();
  cfg.num_docs = 5000;
  cfg.num_terms = 20;
  workload::QueryLogConfig qcfg;
  qcfg.num_queries = 10;
  qcfg.seed = 33;
  const auto log = workload::generate_query_log(qcfg, cfg.num_terms);
  for (const codec::Scheme s : codec::all_schemes()) {
    cfg.scheme = s;
    const auto idx = workload::generate_corpus(cfg);
    gpu::GpuEngine engine(idx);
    for (const auto& q : log) {
      const auto got = engine.execute(q);
      const auto want = testutil::reference_topk(idx, q);
      const std::string tag = std::string("gpu-") + codec::scheme_name(s);
      testutil::expect_same_topk(got.topk, want, tag.c_str());
    }
  }
}
