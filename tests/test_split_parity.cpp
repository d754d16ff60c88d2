// Split-execution parity (DESIGN.md §15). A kSplit intersect divides the
// probe side between both processors at a docID-disjoint cut, so
// concatenating the partials must reproduce the unsplit intersection
// exactly: same docs, same float score bits, same result counts — across
// every codec, every SIMD preset, any alpha (including the degenerate
// all-CPU / all-GPU splits through the split machinery), and whichever
// placements the real policies pick. Costs may differ; results may not.
#include <gtest/gtest.h>

#include <vector>

#include "codec/block_codec.h"
#include "codec/codec.h"
#include "core/hybrid_engine.h"
#include "engine_test_util.h"
#include "util/rng.h"
#include "workload/corpus.h"

using namespace griffin;
using codec::Scheme;
using core::HybridEngine;
using core::HybridOptions;
using core::Placement;
using core::Query;
using core::QueryResult;
using core::SchedulerPolicy;

namespace {

/// One small corpus per codec, built once per binary (same shape as
/// testutil::small_corpus_config, re-keyed by scheme).
const index::InvertedIndex& index_for(Scheme s) {
  static std::vector<std::unique_ptr<index::InvertedIndex>> cache(
      codec::kNumSchemes);
  auto& slot = cache[static_cast<std::size_t>(s)];
  if (!slot) {
    auto cfg = testutil::small_corpus_config();
    cfg.scheme = s;
    slot = std::make_unique<index::InvertedIndex>(
        workload::generate_corpus(cfg));
  }
  return *slot;
}

std::vector<sim::CpuSpec> all_specs() {
  return {sim::CpuSpec{}, sim::CpuSpec::sse4_testbed(),
          sim::CpuSpec::modern_avx2()};
}

std::vector<Query> random_queries(std::uint64_t seed, int count) {
  util::Xoshiro256 rng(seed);
  std::vector<Query> out;
  for (int i = 0; i < count; ++i) {
    Query q;
    const int nterms = 2 + static_cast<int>(rng() % 4);
    for (int t = 0; t < nterms; ++t) {
      q.terms.push_back(static_cast<index::TermId>(rng() % 300));
    }
    q.k = 10;
    out.push_back(q);
  }
  return out;
}

void expect_bit_identical(const QueryResult& got, const QueryResult& want,
                          const std::string& label) {
  EXPECT_EQ(got.metrics.result_count, want.metrics.result_count) << label;
  ASSERT_EQ(got.topk.size(), want.topk.size()) << label;
  for (std::size_t r = 0; r < want.topk.size(); ++r) {
    EXPECT_EQ(got.topk[r].doc, want.topk[r].doc) << label << " rank " << r;
    // Bitwise, not approximate: the split legs must visit docs in the same
    // order the unsplit step does, or float accumulation drifts.
    EXPECT_EQ(got.topk[r].score, want.topk[r].score) << label << " rank " << r;
  }
}

HybridOptions split_options(double forced_alpha) {
  HybridOptions opt;
  opt.scheduler.policy = SchedulerPolicy::kAlwaysSplit;
  opt.scheduler.forced_split_alpha = forced_alpha;
  return opt;
}

}  // namespace

// ---- The core parity: every-step-split vs all-CPU vs all-GPU, all codecs
// ---- x all SIMD presets, derived and degenerate alphas.

class SplitParityParam : public ::testing::TestWithParam<Scheme> {};

TEST_P(SplitParityParam, SplitMatchesCpuAndGpuAcrossPresets) {
  const Scheme scheme = GetParam();
  const auto& idx = index_for(scheme);
  const auto queries =
      random_queries(1000 + static_cast<std::uint64_t>(scheme), 8);

  for (const auto& cpu_spec : all_specs()) {
    sim::HardwareSpec hw;
    hw.cpu = cpu_spec;

    HybridOptions cpu_opt;
    cpu_opt.scheduler.policy = SchedulerPolicy::kAlwaysCpu;
    HybridEngine cpu_engine(idx, hw, cpu_opt);
    HybridOptions gpu_opt;
    gpu_opt.scheduler.policy = SchedulerPolicy::kAlwaysGpu;
    HybridEngine gpu_engine(idx, hw, gpu_opt);
    // Derived alpha plus the degenerates: alpha=0 routes every probe to the
    // CPU leg and alpha=1 to the GPU leg, still through the split machinery.
    HybridEngine split_engine(idx, hw, split_options(-1.0));
    HybridEngine split0_engine(idx, hw, split_options(0.0));
    HybridEngine split1_engine(idx, hw, split_options(1.0));
    HybridEngine splithalf_engine(idx, hw, split_options(0.5));

    for (std::size_t qi = 0; qi < queries.size(); ++qi) {
      const auto& q = queries[qi];
      const std::string tag = std::string(codec::scheme_name(scheme)) + "/" +
                              cpu_spec.vector.name + "/q" +
                              std::to_string(qi);
      const QueryResult want = cpu_engine.execute(q);
      expect_bit_identical(gpu_engine.execute(q), want, tag + "/gpu");
      expect_bit_identical(split_engine.execute(q), want, tag + "/split");
      expect_bit_identical(split0_engine.execute(q), want, tag + "/split-a0");
      expect_bit_identical(split1_engine.execute(q), want, tag + "/split-a1");
      expect_bit_identical(splithalf_engine.execute(q), want,
                           tag + "/split-a.5");
    }
  }
}

INSTANTIATE_TEST_SUITE_P(AllCodecs, SplitParityParam,
                         ::testing::ValuesIn(codec::all_schemes()));

// ---- A device fault on the GPU leg of a split (DESIGN.md §16): the CPU
// ---- leg's partial survives, the lost range is redone host-side, and the
// ---- answer stays bit-identical to the all-CPU reference — across every
// ---- codec and every SIMD preset.

class SplitLegFaultParam : public ::testing::TestWithParam<Scheme> {};

TEST_P(SplitLegFaultParam, LostGpuLegIsRedoneBitIdentically) {
  const Scheme scheme = GetParam();
  const auto& idx = index_for(scheme);
  const auto queries =
      random_queries(7000 + static_cast<std::uint64_t>(scheme), 6);

  for (const auto& cpu_spec : all_specs()) {
    sim::HardwareSpec hw;
    hw.cpu = cpu_spec;

    HybridOptions cpu_opt;
    cpu_opt.scheduler.policy = SchedulerPolicy::kAlwaysCpu;
    HybridEngine cpu_engine(idx, hw, cpu_opt);
    // Every intersect splits half/half, and the scripted trigger faults the
    // GPU leg of the first split (random_queries leaves every id 0, so the
    // trigger covers each query; after the hit the remainder is CPU-pinned,
    // so exactly one leg is ever lost per query).
    HybridOptions faulty = split_options(0.5);
    // No optional uploads: a staged prefetch would draw the same trigger
    // and add dropped-prefetch records, muddying the one-leg-lost contract.
    faulty.scheduler.prefetch = false;
    faulty.faults.gpu.triggers.push_back({/*query=*/0, /*scope=*/0});
    HybridEngine faulty_engine(idx, hw, faulty);

    for (std::size_t qi = 0; qi < queries.size(); ++qi) {
      const auto& q = queries[qi];
      const std::string tag = std::string(codec::scheme_name(scheme)) + "/" +
                              cpu_spec.vector.name + "/q" +
                              std::to_string(qi) + "/leg-fault";
      const QueryResult want = cpu_engine.execute(q);
      const QueryResult got = faulty_engine.execute(q);
      expect_bit_identical(got, want, tag);

      // The recovery really ran: one split step lost its GPU leg (flagged on
      // the trace, never as an abandoned step — the step completed), paid
      // the wasted device time, and pinned the rest of the plan host-side.
      EXPECT_EQ(got.metrics.faults.split_leg_faults, 1u) << tag;
      EXPECT_EQ(got.metrics.faults.gpu_faults, 1u) << tag;
      EXPECT_EQ(got.metrics.faults.gpu_wasted,
                sim::Duration::from_us(core::kGpuFaultCostUs))
          << tag;
      core::TraceSummary sum;
      sum.add(got.trace);
      EXPECT_EQ(sum.leg_faulted_steps, 1u) << tag;
      EXPECT_EQ(sum.faulted_steps, 0u) << tag;
      // Stage identity survives the fault accounting.
      EXPECT_EQ(got.metrics.decode + got.metrics.intersect +
                    got.metrics.transfer + got.metrics.rank,
                got.metrics.total + got.metrics.overlap.saved)
          << tag;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(AllCodecs, SplitLegFaultParam,
                         ::testing::ValuesIn(codec::all_schemes()));

// ---- Split steps really execute as splits (the parity above would pass
// ---- vacuously if kAlwaysSplit silently fell back to one processor).

TEST(SplitParity, AlwaysSplitPlacesSplitSteps) {
  const auto& idx = index_for(Scheme::kEliasFano);
  HybridEngine engine(idx, {}, split_options(0.5));
  Query q;
  q.terms = {2, 5, 9};
  q.k = 10;
  const auto res = engine.execute(q);
  std::uint64_t splits = 0;
  const auto placements = testutil::intersect_placements(res);
  for (const auto p : placements) {
    if (p == Placement::kSplit) ++splits;
  }
  EXPECT_EQ(splits, placements.size());
  EXPECT_GT(splits, 0u);
  core::TraceSummary sum;
  sum.add(res.trace);
  EXPECT_EQ(sum.split_intersects, splits);
}

// ---- Timing: a pooled device allocation (the default) costs nothing and
// ---- records no op (DESIGN.md §10), so the host core runs only the CPU
// ---- stream's ops.

TEST(SplitTiming, CpuLegStartsWhenItsProbesAreReady) {
  // Every host op starts at its issue: when its inputs are ready and the
  // CPU stream's previous op is done. That includes a forced alpha = 0.5
  // split's CPU leg, which is recorded after its GPU leg's allocations,
  // copies and kernels and must not queue behind them.
  const auto& idx = index_for(Scheme::kEliasFano);
  HybridEngine engine(idx, {}, split_options(0.5));
  const auto queries = random_queries(4242, 12);
  std::uint64_t splits = 0;
  std::uint64_t host_ops = 0;
  for (std::size_t qi = 0; qi < queries.size(); ++qi) {
    const auto res = engine.execute(queries[qi]);
    for (const auto p : testutil::intersect_placements(res)) {
      if (p == Placement::kSplit) ++splits;
    }
    for (const auto& op : engine.step_executor().timeline().ops()) {
      if (op.resource != sim::Resource::kCpu) continue;
      ++host_ops;
      EXPECT_NE(op.stage, sim::Stage::kTransfer) << "q" << qi;  // no alloc
      EXPECT_EQ(op.start.ps(), op.issue.ps()) << "q" << qi;
    }
  }
  EXPECT_GT(splits, 0u);
  EXPECT_GT(host_ops, splits);  // each split's CPU leg, and more
}

// ---- The real policies (ratio band + cost model) agree with the all-CPU
// ---- reference wherever their three-way decisions land.

TEST(SplitParity, PolicyMixesMatchCpuReference) {
  const auto& idx = index_for(Scheme::kEliasFano);
  const auto queries = random_queries(4242, 12);
  HybridOptions cpu_opt;
  cpu_opt.scheduler.policy = SchedulerPolicy::kAlwaysCpu;
  HybridEngine cpu_engine(idx, {}, cpu_opt);
  HybridEngine ratio_engine(idx, {}, {});  // default: ratio rule + band
  HybridOptions cost_opt;
  cost_opt.scheduler.policy = SchedulerPolicy::kCostModel;
  HybridEngine cost_engine(idx, {}, cost_opt);

  for (std::size_t qi = 0; qi < queries.size(); ++qi) {
    const auto& q = queries[qi];
    const QueryResult want = cpu_engine.execute(q);
    expect_bit_identical(ratio_engine.execute(q), want,
                         "ratio/q" + std::to_string(qi));
    expect_bit_identical(cost_engine.execute(q), want,
                         "cost/q" + std::to_string(qi));
  }
}
