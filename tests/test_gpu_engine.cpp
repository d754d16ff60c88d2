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

// Merge records (DESIGN.md §5): a MergePath step that intersects the same
// term set with the same list as an earlier step of its executor replays
// that step's counts. With both cache tiers off, nothing else carries state
// from one query to the next, so an engine that replays must match a fresh
// engine field for field, and so must its device's allocations and copies.
namespace {

/// Terms 0-3 hold the multiples of 2, 3, 5 and 7 below 200,000: lists of
/// comparable length whose intersections stay large, so every GPU step of
/// these tests takes the MergePath path.
const index::InvertedIndex& multiples_index() {
  static const index::InvertedIndex idx = [] {
    constexpr index::DocId kUniverse = 200'000;
    index::InvertedIndex i(codec::Scheme::kEliasFano);
    i.docs().resize(kUniverse);
    for (index::DocId d = 0; d < kUniverse; ++d) {
      i.docs().set_length(d, 100 + d % 89);
    }
    for (const index::DocId m : {2u, 3u, 5u, 7u}) {
      std::vector<index::DocId> list;
      for (index::DocId d = m; d < kUniverse; d += m) list.push_back(d);
      i.add_list(list);
    }
    return i;
  }();
  return idx;
}

core::HybridOptions replay_options(double pcie_error_probability = 0.0) {
  core::HybridOptions opt;
  opt.scheduler.policy = core::SchedulerPolicy::kAlwaysGpu;
  opt.gpu.list_cache_bytes = 0;
  opt.cpu.decoded_cache_bytes = 0;
  opt.faults.pcie.probability = pcie_error_probability;
  return opt;
}

struct DeviceTraffic {
  std::uint64_t allocs = 0, h2d = 0, d2h = 0;
  bool operator==(const DeviceTraffic&) const = default;
};

DeviceTraffic traffic(const core::HybridEngine& e) {
  const simt::Device& dev = e.executor().device();
  return {dev.alloc_count(), dev.h2d_bytes(), dev.d2h_bytes()};
}

DeviceTraffic operator-(DeviceTraffic a, const DeviceTraffic& b) {
  return {a.allocs - b.allocs, a.h2d - b.h2d, a.d2h - b.d2h};
}

core::Query query(std::uint64_t id, std::vector<index::TermId> terms) {
  core::Query q;
  q.id = id;
  q.terms = std::move(terms);
  return q;
}

}  // namespace

TEST(GpuMergeRecords, RepeatedQueryMatchesAFreshEngine) {
  const auto& idx = multiples_index();
  const core::Query q = query(7, {1, 2, 3});
  for (const double pcie : {0.0, 0.3}) {
    core::HybridEngine engine(idx, {}, replay_options(pcie));
    engine.execute(q);
    const std::size_t records = engine.executor().merge_records();
    EXPECT_EQ(records, 2u);  // ({3}, 2) and ({2, 3}, 1)
    const DeviceTraffic before = traffic(engine);
    const auto again = engine.execute(q);
    EXPECT_EQ(engine.executor().merge_records(), records);  // replayed

    core::HybridEngine fresh(idx, {}, replay_options(pcie));
    const auto want = fresh.execute(q);
    EXPECT_TRUE(again == want) << "pcie " << pcie;
    EXPECT_TRUE(traffic(engine) - before == traffic(fresh)) << "pcie " << pcie;
    EXPECT_EQ(again.metrics.gpu_kernels, want.metrics.gpu_kernels);
    if (pcie > 0.0) {
      EXPECT_GT(want.metrics.faults.pcie_errors, 0u);
    }
    testutil::expect_same_topk(again.topk, testutil::reference_topk(idx, q),
                               "replayed");
  }
}

TEST(GpuMergeRecords, SharedStepMatchesAFreshEngine) {
  const auto& idx = multiples_index();
  // Both plans start ({3}, 2): the two shortest lists, 7 and 5.
  const core::Query q1 = query(1, {1, 2, 3});
  const core::Query q2 = query(2, {0, 2, 3});
  core::HybridEngine engine(idx, {}, replay_options());
  engine.execute(q1);
  const DeviceTraffic before = traffic(engine);
  const auto got = engine.execute(q2);
  EXPECT_EQ(engine.executor().merge_records(), 3u);  // ({2, 3}, 0) is new

  core::HybridEngine fresh(idx, {}, replay_options());
  const auto want = fresh.execute(q2);
  EXPECT_EQ(fresh.executor().merge_records(), 2u);
  EXPECT_TRUE(got == want);
  EXPECT_TRUE(traffic(engine) - before == traffic(fresh));
}

TEST(GpuMergeRecords, StepAfterAnUploadedIntermediateSimulates) {
  const auto& idx = multiples_index();
  // GPU {3, 2}, then term 1 on the CPU, then back to the GPU for term 0:
  // the uploaded intermediate is the multiples of 210, not of 70, so the
  // recorded ({2, 3}, 0) step of q2 must not replay.
  const core::Query q = query(3, {0, 1, 2, 3});
  const auto run_migrating = [&](core::HybridEngine& e) {
    core::StepExecutor& exec = e.step_executor();
    core::QueryResult res;
    exec.begin_query(q);
    core::IntersectStep first;
    first.probe_term = 3;
    first.term = 2;
    first.first_pair = true;
    first.where = core::Placement::kGpu;
    core::IntersectStep on_cpu;
    on_cpu.term = 1;
    on_cpu.where = core::Placement::kCpu;
    core::IntersectStep back;
    back.term = 0;
    back.where = core::Placement::kGpu;
    const std::vector<core::PlanStep> steps = {
        first,
        core::TransferStep{core::TransferDirection::kDeviceToHost, true},
        on_cpu,
        core::TransferStep{core::TransferDirection::kHostToDevice, true},
        back,
        core::TransferStep{core::TransferDirection::kDeviceToHost, false},
        core::RankStep{}};
    for (const auto& s : steps) {
      EXPECT_EQ(exec.run(s, q, res), core::StepStatus::kOk);
    }
    exec.finish_query(res.metrics);
    return res;
  };

  core::HybridEngine engine(idx, {}, replay_options());
  engine.execute(query(2, {0, 2, 3}));  // records ({3}, 2) and ({2, 3}, 0)
  ASSERT_EQ(engine.executor().merge_records(), 2u);
  const DeviceTraffic before = traffic(engine);
  const auto got = run_migrating(engine);
  // The first pair replays; the step after the upload has no term set, so
  // it simulates and records nothing.
  EXPECT_EQ(engine.executor().merge_records(), 2u);

  core::HybridEngine fresh(idx, {}, replay_options());
  const auto want = run_migrating(fresh);
  EXPECT_EQ(fresh.executor().merge_records(), 1u);
  EXPECT_EQ(want.metrics.migrations, 2u);
  EXPECT_TRUE(got == want);
  EXPECT_TRUE(traffic(engine) - before == traffic(fresh));
  testutil::expect_same_topk(got.topk, testutil::reference_topk(idx, q),
                             "migrated");
}
