// SIMD execution-mode parity (DESIGN.md §13). The vector presets move only
// the *charged* cycles: every decode and intersection must produce
// bit-identical output under scalar, SSE4 and AVX2 specs, the lane counters
// must obey the ceil(n/lanes) accounting invariants, and the scheduler's
// SIMD-aware crossover must order avx2 <= sse4 <= scalar.
#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "core/hybrid_engine.h"
#include "cpu/decode.h"
#include "cpu/engine.h"
#include "cpu/intersect.h"
#include "cpu/simd_cost.h"
#include "engine_test_util.h"
#include "util/rng.h"
#include "workload/corpus.h"

namespace gc = griffin::cpu;
namespace sim = griffin::sim;
using griffin::codec::BlockCompressedList;
using griffin::codec::DocId;
using griffin::codec::Scheme;

namespace {

std::vector<sim::CpuSpec> all_specs() {
  return {sim::CpuSpec{}, sim::CpuSpec::sse4_testbed(),
          sim::CpuSpec::modern_avx2()};
}

std::vector<DocId> reference_intersect(std::span<const DocId> a,
                                       std::span<const DocId> b) {
  std::vector<DocId> out;
  std::set_intersection(a.begin(), a.end(), b.begin(), b.end(),
                        std::back_inserter(out));
  return out;
}

}  // namespace

// ---- Decode parity: same docIDs out of every preset, cheaper when
// ---- vectorized.

class SimdDecodeParam : public ::testing::TestWithParam<Scheme> {};

TEST_P(SimdDecodeParam, DecodeBitIdenticalAcrossPresets) {
  const Scheme scheme = GetParam();
  griffin::util::Xoshiro256 rng(99 + static_cast<int>(scheme));
  for (const std::uint64_t n : {1ull, 127ull, 128ull, 1000ull, 40'000ull}) {
    const auto docs = griffin::workload::make_uniform_list(
        n, static_cast<DocId>(n * 24 + 64), rng);
    const auto list = BlockCompressedList::build(docs, scheme);

    std::vector<DocId> scalar_out;
    double scalar_cycles = 0.0;
    for (const auto& spec : all_specs()) {
      sim::CpuCostAccumulator acc(spec);
      std::vector<DocId> out;
      gc::decode_all(list, out, acc);
      EXPECT_EQ(out, docs) << spec.vector.name;
      if (!spec.vector.enabled) {
        scalar_out = out;
        scalar_cycles = acc.cycles();
        EXPECT_EQ(acc.simd().loops, 0u) << "scalar mode charged vector loops";
      } else {
        EXPECT_EQ(out, scalar_out) << spec.vector.name;
        if (scheme != Scheme::kSimple16) {
          EXPECT_GT(acc.simd().loops, 0u) << spec.vector.name;
          // Vectorized codecs must get cheaper once lists are long enough
          // to amortize the per-loop setup (tiny lists rightly pay *more*
          // in vector mode); Simple16's selector switch stays scalar, so
          // its charges are identical either way.
          if (n >= 128) {
            EXPECT_LT(acc.cycles(), scalar_cycles)
                << spec.vector.name << " n=" << n;
          }
        }
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Sweep, SimdDecodeParam,
                         ::testing::Values(Scheme::kPForDelta,
                                           Scheme::kEliasFano,
                                           Scheme::kVarByte,
                                           Scheme::kSimple16));

// ---- Intersection parity: all variants, shapes, and ratios.

class SimdIntersectParam
    : public ::testing::TestWithParam<std::tuple<Scheme, int, double>> {};

TEST_P(SimdIntersectParam, IntersectBitIdenticalAcrossPresets) {
  const auto [scheme, longer_size, ratio] = GetParam();
  griffin::util::Xoshiro256 rng(longer_size ^ static_cast<int>(ratio * 16));
  const auto pair = griffin::workload::make_pair_with_ratio(
      longer_size, ratio, 40'000'000, 0.35, rng);
  const auto expect = reference_intersect(pair.shorter, pair.longer);
  const auto la = BlockCompressedList::build(pair.shorter, scheme);
  const auto lb = BlockCompressedList::build(pair.longer, scheme);

  for (const auto& spec : all_specs()) {
    sim::CpuCostAccumulator acc(spec);
    std::vector<DocId> out;
    gc::merge_intersect(std::span<const DocId>(pair.shorter),
                        std::span<const DocId>(pair.longer), out, acc);
    EXPECT_EQ(out, expect) << spec.vector.name << " decoded x decoded";
    gc::merge_intersect(std::span<const DocId>(pair.shorter), lb, out, acc);
    EXPECT_EQ(out, expect) << spec.vector.name << " decoded x compressed";
    gc::merge_intersect(la, lb, out, acc);
    EXPECT_EQ(out, expect) << spec.vector.name << " compressed x compressed";
    gc::skip_intersect(pair.shorter, lb, out, acc);
    EXPECT_EQ(out, expect) << spec.vector.name << " skip compressed";
    gc::skip_intersect(pair.shorter, std::span<const DocId>(pair.longer), out,
                       acc);
    EXPECT_EQ(out, expect) << spec.vector.name << " skip decoded";
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, SimdIntersectParam,
    ::testing::Combine(::testing::Values(Scheme::kEliasFano,
                                         Scheme::kPForDelta),
                       ::testing::Values(700, 30'000),
                       ::testing::Values(1.0, 4.0, 60.0, 300.0)));

// ---- The LoopCost table: charge() and per_element() read one entry.

TEST(SimdLoopCost, ChargeAgreesWithPerElementForEveryLoop) {
  constexpr std::uint64_t n = 1024;  // a multiple of every preset's lanes
  const double nd = static_cast<double>(n);
  for (const auto& spec : all_specs()) {
    struct Loop {
      const char* name;
      gc::simd::LoopCost cost;
      bool gap_slots;  // scalar mode charges n - 1 elements
    };
    std::vector<Loop> loops = {
        {"merge", gc::simd::merge_cost(spec), false},
        {"materialize", gc::simd::materialize_cost(spec), false},
        {"pfor", gc::simd::decode_cost(spec, Scheme::kPForDelta), true},
        {"ef", gc::simd::decode_cost(spec, Scheme::kEliasFano), false},
        {"vbyte", gc::simd::decode_cost(spec, Scheme::kVarByte), false},
        {"simple16", gc::simd::decode_cost(spec, Scheme::kSimple16), false}};
    for (const Loop& l : loops) {
      sim::CpuCostAccumulator acc(spec);
      gc::simd::charge(acc, n, l.cost);
      const double per = gc::simd::per_element(spec, l.cost);
      if (!l.cost.vectorized) {
        EXPECT_DOUBLE_EQ(acc.cycles(), nd * l.cost.scalar)
            << spec.vector.name << " " << l.name;
        EXPECT_DOUBLE_EQ(per, l.cost.scalar);
      } else if (gc::simd::enabled(spec)) {
        EXPECT_DOUBLE_EQ(acc.cycles(),
                         nd * per + spec.vector.block_setup_cycles)
            << spec.vector.name << " " << l.name;
      } else {
        EXPECT_DOUBLE_EQ(acc.cycles(),
                         (l.gap_slots ? nd - 1.0 : nd) * l.cost.scalar)
            << spec.vector.name << " " << l.name;
        EXPECT_DOUBLE_EQ(per, l.cost.scalar);
      }
    }
  }
}

// ---- Lane-accounting invariants: charged vector ops == ceil(n/lanes).

TEST(SimdLaneAccounting, ChargeLoopCountsCeilNOverLanes) {
  for (const auto& spec :
       {sim::CpuSpec::sse4_testbed(), sim::CpuSpec::modern_avx2()}) {
    const auto lanes = static_cast<std::uint64_t>(spec.vector.lanes);
    for (const std::uint64_t n : {1ull, 3ull, 4ull, 8ull, 127ull, 128ull,
                                  1000ull}) {
      sim::CpuCostAccumulator acc(spec);
      gc::simd::charge_loop(acc, n, 4.0, 2.0);
      const std::uint64_t want_vops = (n + lanes - 1) / lanes;
      EXPECT_EQ(acc.simd().loops, 1u);
      EXPECT_EQ(acc.simd().vector_ops, want_vops) << n << "/" << lanes;
      EXPECT_EQ(acc.simd().useful_lanes, n);
      EXPECT_EQ(acc.simd().charged_lanes, want_vops * lanes);
      EXPECT_EQ(acc.simd().tail_elems, n % lanes);
      EXPECT_GT(acc.simd().utilization(), 0.0);
      EXPECT_LE(acc.simd().utilization(), 1.0);
      // Full vectors waste nothing; ragged tails waste exactly the unused
      // lanes of the final iteration.
      if (n % lanes == 0) {
        EXPECT_DOUBLE_EQ(acc.simd().utilization(), 1.0);
      } else {
        EXPECT_LT(acc.simd().utilization(), 1.0);
      }
      EXPECT_GT(acc.cycles(), 0.0);
    }
  }
}

TEST(SimdLaneAccounting, CountersFlowThroughEngineTrace) {
  const auto& idx = griffin::testutil::small_index();
  griffin::core::Query q;
  q.terms = {1, 2, 3};
  q.k = 10;
  gc::CpuEngine scalar_engine(idx);
  gc::CpuEngine simd_engine(idx, sim::CpuSpec::modern_avx2());
  const auto scalar_res = scalar_engine.execute(q);
  const auto simd_res = simd_engine.execute(q);

  EXPECT_EQ(scalar_res.metrics.simd.loops, 0u);
  EXPECT_GT(simd_res.metrics.simd.loops, 0u);
  EXPECT_GT(simd_res.metrics.simd.utilization(), 0.0);
  EXPECT_LE(simd_res.metrics.simd.utilization(), 1.0);

  // Step deltas must reassemble the query totals, same as the durations.
  griffin::core::TraceSummary sum;
  sum.add(simd_res.trace);
  EXPECT_EQ(sum.simd.vector_ops, simd_res.metrics.simd.vector_ops);
  EXPECT_EQ(sum.simd.useful_lanes, simd_res.metrics.simd.useful_lanes);
  EXPECT_EQ(sum.lane_utilization(), simd_res.metrics.simd.utilization());
}

// ---- Engine-level parity: identical top-k across presets.

TEST(SimdEngineParity, CpuEngineTopkBitIdentical) {
  const auto& idx = griffin::testutil::small_index();
  griffin::util::Xoshiro256 rng(7);
  for (int i = 0; i < 12; ++i) {
    griffin::core::Query q;
    const auto nterms = 2 + (i % 3);
    for (int t = 0; t < nterms; ++t) {
      q.terms.push_back(static_cast<griffin::index::TermId>(rng() % 300));
    }
    q.k = 10;
    gc::CpuEngine scalar_engine(idx);
    const auto want = scalar_engine.execute(q);
    for (const auto& spec :
         {sim::CpuSpec::sse4_testbed(), sim::CpuSpec::modern_avx2()}) {
      gc::CpuEngine engine(idx, spec);
      const auto got = engine.execute(q);
      ASSERT_EQ(got.topk.size(), want.topk.size()) << spec.vector.name;
      for (std::size_t r = 0; r < want.topk.size(); ++r) {
        EXPECT_EQ(got.topk[r].doc, want.topk[r].doc) << spec.vector.name;
        EXPECT_EQ(got.topk[r].score, want.topk[r].score) << spec.vector.name;
      }
      EXPECT_EQ(got.metrics.result_count, want.metrics.result_count);
    }
  }
}

TEST(SimdEngineParity, HybridEngineTopkBitIdentical) {
  const auto& idx = griffin::testutil::small_index();
  griffin::core::Query q;
  q.terms = {2, 5, 9};
  q.k = 10;
  griffin::core::HybridEngine scalar_engine(idx);
  const auto want = scalar_engine.execute(q);
  for (const auto& cpu_spec :
       {sim::CpuSpec::sse4_testbed(), sim::CpuSpec::modern_avx2()}) {
    sim::HardwareSpec hw;
    hw.cpu = cpu_spec;
    griffin::core::HybridEngine engine(idx, hw);
    const auto got = engine.execute(q);
    ASSERT_EQ(got.topk.size(), want.topk.size()) << cpu_spec.vector.name;
    for (std::size_t r = 0; r < want.topk.size(); ++r) {
      EXPECT_EQ(got.topk[r].doc, want.topk[r].doc) << cpu_spec.vector.name;
      EXPECT_EQ(got.topk[r].score, want.topk[r].score) << cpu_spec.vector.name;
    }
  }
}

// ---- The re-derived crossover: SIMD presets shrink the GPU-favored band,
// ---- and never push the threshold to (or below) zero.

TEST(SimdCrossover, ScaleOrdersAvx2BelowSse4BelowScalar) {
  const double scalar = gc::simd::crossover_scale(sim::CpuSpec{});
  const double sse4 = gc::simd::crossover_scale(sim::CpuSpec::sse4_testbed());
  const double avx2 = gc::simd::crossover_scale(sim::CpuSpec::modern_avx2());
  EXPECT_DOUBLE_EQ(scalar, 1.0);
  EXPECT_LT(avx2, sse4);
  EXPECT_LT(sse4, scalar);
  EXPECT_GT(avx2, 0.0);
  // The acceptance bound: the scaled threshold stays a real band, not a
  // degenerate one (the AVX2 crossover must stay above ~half the scalar
  // block-size rule so the GPU keeps the low-ratio regime).
  EXPECT_GT(128.0 * avx2, 32.0);
}

TEST(SimdCrossover, SchedulerShiftsRatioRuleWithVectorUnit) {
  griffin::core::StepShape shape;
  shape.shorter = 1'000;
  shape.longer = 100'000;  // ratio 100: GPU under the scalar lambda=128 rule
  shape.current_location = griffin::core::Placement::kGpu;

  sim::HardwareSpec scalar_hw;
  griffin::core::Scheduler scalar_sched({}, scalar_hw);
  EXPECT_EQ(scalar_sched.decide(shape), griffin::core::Placement::kGpu);

  sim::HardwareSpec avx2_hw;
  avx2_hw.cpu = sim::CpuSpec::modern_avx2();
  griffin::core::Scheduler simd_sched({}, avx2_hw);
  const double scaled =
      128.0 * gc::simd::crossover_scale(avx2_hw.cpu);
  if (scaled < 100.0) {
    EXPECT_EQ(simd_sched.decide(shape), griffin::core::Placement::kCpu);
  }
}

TEST(SimdCrossover, CostEstimateCheaperWithVectorUnit) {
  griffin::core::StepShape merge_shape;
  merge_shape.shorter = 100'000;
  merge_shape.longer = 200'000;
  griffin::core::StepShape skip_shape;
  skip_shape.shorter = 1'000;
  skip_shape.longer = 500'000;

  sim::HardwareSpec scalar_hw;
  sim::HardwareSpec simd_hw;
  simd_hw.cpu = sim::CpuSpec::sse4_testbed();
  griffin::core::Scheduler scalar_sched({}, scalar_hw);
  griffin::core::Scheduler simd_sched({}, simd_hw);
  EXPECT_LT(simd_sched.estimate_cpu(merge_shape).ps(),
            scalar_sched.estimate_cpu(merge_shape).ps());
  EXPECT_LT(simd_sched.estimate_cpu(skip_shape).ps(),
            scalar_sched.estimate_cpu(skip_shape).ps());
  // The GPU estimate is untouched by the CPU's vector unit.
  EXPECT_EQ(simd_sched.estimate_gpu(merge_shape).ps(),
            scalar_sched.estimate_gpu(merge_shape).ps());
}
