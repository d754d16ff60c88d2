#include "core/scheduler.h"

#include <gtest/gtest.h>

#include "core/rows.h"

using namespace griffin;
using core::Placement;
using core::Scheduler;
using core::SchedulerOptions;
using core::SchedulerPolicy;
using core::StepShape;

namespace {
StepShape shape(std::uint64_t shorter, std::uint64_t longer,
                std::optional<Placement> loc = std::nullopt) {
  StepShape s;
  s.shorter = shorter;
  s.longer = longer;
  s.longer_bytes = longer;  // ~1 byte/posting, fine for the estimates
  s.current_location = loc;
  return s;
}
}  // namespace

TEST(Scheduler, RatioThresholdRule) {
  Scheduler sched;  // default: ratio threshold at 128
  EXPECT_EQ(sched.decide(shape(1000, 1000)), Placement::kGpu);
  EXPECT_EQ(sched.decide(shape(1000, 127'000)), Placement::kGpu);
  EXPECT_EQ(sched.decide(shape(1000, 128'000)), Placement::kCpu);
  EXPECT_EQ(sched.decide(shape(1000, 100'000'000)), Placement::kCpu);
}

TEST(Scheduler, ThresholdIsConfigurable) {
  SchedulerOptions opt;
  opt.ratio_threshold = 4.0;
  Scheduler sched(opt);
  EXPECT_EQ(sched.decide(shape(100, 399)), Placement::kGpu);
  EXPECT_EQ(sched.decide(shape(100, 400)), Placement::kCpu);
}

TEST(Scheduler, EmptyIntermediateGoesCpu) {
  Scheduler sched;
  EXPECT_EQ(sched.decide(shape(0, 1000)), Placement::kCpu);
}

TEST(Scheduler, StaticPolicies) {
  SchedulerOptions cpu_only;
  cpu_only.policy = SchedulerPolicy::kAlwaysCpu;
  SchedulerOptions gpu_only;
  gpu_only.policy = SchedulerPolicy::kAlwaysGpu;
  EXPECT_EQ(Scheduler(cpu_only).decide(shape(10, 10)), Placement::kCpu);
  EXPECT_EQ(Scheduler(gpu_only).decide(shape(10, 1'000'000)), Placement::kGpu);
}

TEST(Scheduler, CostModelPrefersCpuForTinySteps) {
  SchedulerOptions opt;
  opt.policy = SchedulerPolicy::kCostModel;
  Scheduler sched(opt);
  // A tiny step cannot amortize kernel launches and transfers.
  EXPECT_EQ(sched.decide(shape(50, 200)), Placement::kCpu);
}

TEST(Scheduler, CostModelPrefersGpuForBigBalancedSteps) {
  SchedulerOptions opt;
  opt.policy = SchedulerPolicy::kCostModel;
  Scheduler sched(opt);
  StepShape s = shape(2'000'000, 4'000'000, Placement::kGpu);
  s.longer_bytes = 4'000'000;  // ~1 B/posting compressed
  EXPECT_EQ(sched.decide(s), Placement::kGpu);
}

TEST(Scheduler, CostEstimatesReflectMigration) {
  Scheduler sched;
  const auto gpu_stay = sched.estimate_gpu(shape(100'000, 200'000,
                                                 Placement::kGpu));
  const auto gpu_move = sched.estimate_gpu(shape(100'000, 200'000,
                                                 Placement::kCpu));
  EXPECT_LT(gpu_stay.ps(), gpu_move.ps());

  const auto cpu_stay = sched.estimate_cpu(shape(100'000, 200'000,
                                                 Placement::kCpu));
  const auto cpu_move = sched.estimate_cpu(shape(100'000, 200'000,
                                                 Placement::kGpu));
  EXPECT_LT(cpu_stay.ps(), cpu_move.ps());
}

TEST(Scheduler, DeviceResidencyRaisesRatioCrossover) {
  Scheduler sched;  // threshold 128, resident boost 4x -> 512
  StepShape s = shape(1000, 200'000);  // ratio 200: CPU when cold
  EXPECT_EQ(sched.decide(s), Placement::kCpu);
  s.longer_device_resident = true;  // no upload to pay: 200 < 512 -> GPU
  EXPECT_EQ(sched.decide(s), Placement::kGpu);

  StepShape far = shape(1000, 600'000);  // ratio 600 clears even 512
  far.longer_device_resident = true;
  EXPECT_EQ(sched.decide(far), Placement::kCpu);
}

TEST(Scheduler, HostDecodedLowersRatioCrossover) {
  Scheduler sched;  // threshold 128, host-decoded scale 0.5x -> 64
  StepShape s = shape(1000, 100'000);  // ratio 100: GPU when cold
  EXPECT_EQ(sched.decide(s), Placement::kGpu);
  s.longer_host_decoded = true;  // CPU decode already paid: 100 >= 64 -> CPU
  EXPECT_EQ(sched.decide(s), Placement::kCpu);
}

TEST(Scheduler, CostModelDropsTransferForDeviceResidentList) {
  Scheduler sched;
  const StepShape cold = shape(100'000, 200'000, Placement::kGpu);
  StepShape warm = cold;
  warm.longer_device_resident = true;
  EXPECT_LT(sched.estimate_gpu(warm).ps(), sched.estimate_gpu(cold).ps());
  // Device residency says nothing about the CPU side.
  EXPECT_EQ(sched.estimate_cpu(warm).ps(), sched.estimate_cpu(cold).ps());
}

TEST(Scheduler, CostModelDropsDecodeForHostDecodedList) {
  Scheduler sched;
  const StepShape cold = shape(1'000'000, 2'000'000, Placement::kCpu);
  StepShape warm = cold;
  warm.longer_host_decoded = true;
  EXPECT_LT(sched.estimate_cpu(warm).ps(), sched.estimate_cpu(cold).ps());
  // Host residency says nothing about the GPU side.
  EXPECT_EQ(sched.estimate_gpu(warm).ps(), sched.estimate_gpu(cold).ps());
}

TEST(Scheduler, CpuEstimateDropsSharplyAboveSkipRatio) {
  Scheduler sched;
  // Same long list; shrinking the short side below the skip threshold makes
  // the CPU estimate collapse (skip pointers avoid the decode).
  const auto merge_regime = sched.estimate_cpu(shape(1'000'000, 2'000'000));
  const auto skip_regime = sched.estimate_cpu(shape(2'000, 2'000'000));
  EXPECT_LT(skip_regime.ps() * 10, merge_regime.ps());
}

// ---- Codec-aware cost model (the codec-zoo refactor) -----------------------

namespace {
StepShape shape_with_scheme(std::uint64_t shorter, std::uint64_t longer,
                            codec::Scheme s) {
  StepShape sh = shape(shorter, longer);
  sh.longer_scheme = s;
  return sh;
}
}  // namespace

TEST(Scheduler, DefaultLongerSchemeIsEliasFano) {
  // Pre-zoo behavior is the default: shapes that never set a scheme price
  // exactly as an EF list did before the refactor.
  const StepShape s;
  EXPECT_EQ(s.longer_scheme, codec::Scheme::kEliasFano);
}

TEST(Scheduler, CpuEstimateFollowsCodecLaneModel) {
  Scheduler sched;
  // Merge regime: the long list is decoded element-by-element, so the
  // per-codec lane model dominates. Serial codecs must price higher than
  // the vector-friendly ones.
  const auto ef =
      sched.estimate_cpu(shape_with_scheme(1'000'000, 2'000'000,
                                           codec::Scheme::kEliasFano));
  const auto vbyte =
      sched.estimate_cpu(shape_with_scheme(1'000'000, 2'000'000,
                                           codec::Scheme::kVarByte));
  const auto simple16 =
      sched.estimate_cpu(shape_with_scheme(1'000'000, 2'000'000,
                                           codec::Scheme::kSimple16));
  EXPECT_LT(ef.ps(), vbyte.ps());
  // Simple16's selector dispatch never vectorizes: its estimate follows its
  // own per-element cost, not EF's.
  EXPECT_NE(ef.ps(), simple16.ps());
}

TEST(Scheduler, GpuEstimatePenalizesSerialFallbackCodecs) {
  Scheduler sched;
  // VByte and Simple16 have no lane-parallel device kernel (gpu/decode.h
  // falls back to a lane-0 loop), so their GPU estimates must exceed the
  // GPU-parallel codecs'.
  const auto ef = sched.estimate_gpu(
      shape_with_scheme(1'000'000, 2'000'000, codec::Scheme::kEliasFano));
  const auto vbyte = sched.estimate_gpu(
      shape_with_scheme(1'000'000, 2'000'000, codec::Scheme::kVarByte));
  const auto simple16 = sched.estimate_gpu(
      shape_with_scheme(1'000'000, 2'000'000, codec::Scheme::kSimple16));
  EXPECT_GT(vbyte.ps(), ef.ps());
  EXPECT_GT(simple16.ps(), ef.ps());
}

TEST(Scheduler, HighRatioTransferChargesActualCompressedBytes) {
  Scheduler sched;
  // Selective block transfer (ratio > threshold): the PCIe term scales with
  // the list's real bytes-per-posting, so a better-compressed list is
  // cheaper to place on the GPU.
  StepShape dense = shape(2'000, 2'000'000);
  dense.longer_bytes = 2'000'000 / 4;  // 2 bits/posting
  StepShape loose = dense;
  loose.longer_bytes = 2'000'000 * 4;  // 32 bits/posting
  EXPECT_LT(sched.estimate_gpu(dense).ps(), sched.estimate_gpu(loose).ps());
  // The CPU side decodes from host memory: transfer bytes are irrelevant.
  EXPECT_EQ(sched.estimate_cpu(dense).ps(), sched.estimate_cpu(loose).ps());
}

// ---- Three-way co-execution (DESIGN.md §15) --------------------------------

namespace {
/// A shape big enough to clear the 4096-probe split floor, placed like a
/// mid-query intersect: a two-term intermediate on the CPU, the compressed
/// long list at ~1 B/elem, in a collection of 2^31 documents (the smallest
/// power of two that holds the longest list these tests build, at ratio
/// 2000), so a probe matches with probability longer / 2^31.
StepShape big_shape(double ratio) {
  const std::uint64_t shorter = 1u << 20;
  StepShape s = shape(shorter, static_cast<std::uint64_t>(ratio * shorter),
                      Placement::kCpu);
  s.terms = 2;
  s.longer_density = static_cast<double>(s.longer) / 2147483648.0;
  return s;
}
}  // namespace

TEST(SchedulerSplit, RatioPolicyGeneralizesIntoABand) {
  Scheduler sched;  // defaults: threshold 128, split band [32, 512)
  // Below the band one processor dominates and the binary rule stands.
  EXPECT_EQ(sched.decide(big_shape(16.0)), Placement::kGpu);
  // Above it likewise.
  EXPECT_EQ(sched.decide(big_shape(512.0)), Placement::kCpu);
  EXPECT_EQ(sched.decide(big_shape(2000.0)), Placement::kCpu);
  // Inside the band the three-way cost comparison takes over: near the
  // lower edge the GPU still wins outright, past the crossover both
  // processors finish in comparable time and the split wins.
  EXPECT_EQ(sched.decide(big_shape(48.0)), Placement::kGpu);
  EXPECT_EQ(sched.decide(big_shape(128.0)), Placement::kSplit);
  EXPECT_EQ(sched.decide(big_shape(400.0)), Placement::kSplit);
}

TEST(SchedulerSplit, SmallProbesNeverSplit) {
  Scheduler sched;
  // Identical ratio, probe below the 4096-probe split floor: the GPU leg's
  // fixed costs have nothing to amortize over, so the binary rule stands.
  StepShape s = shape(1000, 128'000, Placement::kCpu);
  EXPECT_EQ(sched.decide(s), Placement::kCpu);
  SchedulerOptions opt;
  opt.policy = SchedulerPolicy::kCostModel;
  Scheduler cost(opt);
  EXPECT_NE(cost.decide(s), Placement::kSplit);
}

TEST(SchedulerSplit, SplitCanBeDisabled) {
  SchedulerOptions opt;
  opt.split = false;
  Scheduler sched(opt);
  EXPECT_EQ(sched.decide(big_shape(128.0)), Placement::kCpu);  // plain rule
  opt.policy = SchedulerPolicy::kCostModel;
  Scheduler cost(opt);
  EXPECT_NE(cost.decide(big_shape(128.0)), Placement::kSplit);
}

TEST(SchedulerSplit, SplitEstimateBracketsAndBeatsAtChosenAlpha) {
  Scheduler sched;
  const StepShape s = big_shape(192.0);
  ASSERT_EQ(sched.decide(s), Placement::kSplit);
  const double alpha = sched.split_alpha(s);
  EXPECT_GT(alpha, 0.0);
  EXPECT_LT(alpha, 1.0);
  const auto t_split = sched.estimate_split(s, alpha);
  const auto t_cpu = sched.estimate_cpu(s);
  const auto t_gpu = sched.estimate_gpu(s);
  const auto best = t_cpu.ps() < t_gpu.ps() ? t_cpu : t_gpu;
  // The min-gain gate: the chosen split undercuts the better single
  // processor by at least kSplitMinGain.
  EXPECT_LT(static_cast<double>(t_split.ps()),
            (1.0 - core::kSplitMinGain) * static_cast<double>(best.ps()));
  // Degenerate alphas price (at least) the full single-processor work, so
  // the grid never prefers a sham split.
  EXPECT_GE(sched.estimate_split(s, 0.0).ps(), t_cpu.ps());
}

TEST(SchedulerSplit, PartialPricedAtExpectedMatches) {
  // At alpha 1 the GPU leg is the whole estimate, and only its partial's
  // D2H reads the density: the probes' expected matches cross PCIe, each
  // row one term wider than the probe side (core::Rows::bytes).
  Scheduler sched;
  const pcie::Link link(sim::HardwareSpec{}.pcie);
  StepShape s = big_shape(128.0);
  const auto leg = [&](double density) {
    s.longer_density = density;
    return sched.estimate_split(s, 1.0).ps();
  };
  const auto d2h = [&](std::uint64_t rows) {
    const auto bytes = static_cast<double>(core::Rows::bytes(rows, 3));
    return link.transfer_time(bytes).ps();
  };
  EXPECT_EQ(leg(1.0) - leg(0.25), d2h(s.shorter) - d2h(s.shorter / 4));
  EXPECT_GT(leg(0.25), leg(0.0));
}

TEST(SchedulerSplit, AlphaIsDeterministicAndForceable) {
  Scheduler a;
  Scheduler b;
  const StepShape s = big_shape(256.0);
  EXPECT_EQ(a.split_alpha(s), b.split_alpha(s));  // pure function of shape

  SchedulerOptions opt;
  opt.forced_split_alpha = 0.25;
  Scheduler forced(opt);
  EXPECT_DOUBLE_EQ(forced.split_alpha(s), 0.25);
  opt.forced_split_alpha = 7.0;  // clamped into [0, 1]
  Scheduler clamped(opt);
  EXPECT_DOUBLE_EQ(clamped.split_alpha(s), 1.0);
}

TEST(SchedulerSplit, AlwaysSplitPolicy) {
  SchedulerOptions opt;
  opt.policy = SchedulerPolicy::kAlwaysSplit;
  Scheduler sched(opt);
  EXPECT_EQ(sched.decide(shape(10, 10)), Placement::kSplit);
  EXPECT_EQ(sched.decide(shape(0, 1000)), Placement::kCpu);  // nothing to do
}
