// The roofline models that convert counted work into simulated time.
#include "sim/cpu_cost_model.h"
#include "sim/gpu_cost_model.h"

#include <gtest/gtest.h>

#include "sim/time.h"

namespace gsim = griffin::sim;

TEST(Duration, ArithmeticAndConversions) {
  const auto a = gsim::Duration::from_us(2.0);
  const auto b = gsim::Duration::from_ns(500.0);
  EXPECT_NEAR((a + b).us(), 2.5, 1e-9);
  EXPECT_NEAR((a - b).us(), 1.5, 1e-9);
  EXPECT_NEAR((a * 3.0).us(), 6.0, 1e-9);
  EXPECT_NEAR(a / b, 4.0, 1e-9);
  EXPECT_LT(b, a);
  EXPECT_EQ(gsim::max(a, b).ps(), a.ps());
  EXPECT_NEAR(gsim::Duration::from_ms(1.5).seconds(), 0.0015, 1e-12);
  // 2.5 GHz: 2500 cycles per us.
  EXPECT_NEAR(gsim::Duration::from_cycles(2500, 2.5).us(), 1.0, 1e-6);
}

TEST(CpuCostModel, ComputeBoundVsBandwidthBound) {
  gsim::CpuSpec spec;
  {
    gsim::CpuCostAccumulator acc(spec);
    acc.add_cycles(2.5e6);  // 1 ms of compute at 2.5 GHz
    acc.add_bytes(100);
    EXPECT_NEAR(acc.time().ms(), 1.0, 1e-6);
  }
  {
    gsim::CpuCostAccumulator acc(spec);
    acc.add_cycles(10);
    acc.add_bytes(12'800'000);  // 1 ms of streaming at 12.8 GB/s
    EXPECT_NEAR(acc.time().ms(), 1.0, 1e-6);
  }
}

TEST(CpuCostModel, ConvenienceChargesMatchSpec) {
  gsim::CpuSpec spec;
  gsim::CpuCostAccumulator acc(spec);
  acc.merge_steps(10);
  EXPECT_DOUBLE_EQ(acc.cycles(), 10 * spec.merge_step_cycles);
  acc.branch_misses(2);
  EXPECT_DOUBLE_EQ(acc.cycles(),
                   10 * spec.merge_step_cycles + 2 * spec.branch_miss_cycles);
}

TEST(GpuCostModel, EmptyKernelIsLaunchOverhead) {
  gsim::GpuSpec spec;
  gsim::GpuCostModel model(spec);
  gsim::KernelStats s;
  EXPECT_NEAR(model.kernel_time(s).us(), spec.kernel_launch_us, 1e-9);
}

TEST(GpuCostModel, MemoryBoundKernel) {
  gsim::GpuSpec spec;
  gsim::GpuCostModel model(spec);
  gsim::KernelStats s;
  s.blocks = 1000;
  s.warps = 8000;  // plenty to hide latency
  s.warp_cycles = 8000.0;
  // 1.625 M transactions * 128 B = 208 MB -> 1 ms at 208 GB/s.
  s.global_transactions = 1'625'000;
  const double ms = model.kernel_time(s).ms();
  EXPECT_NEAR(ms, 1.0 + spec.kernel_launch_us * 1e-3, 0.2);
}

TEST(GpuCostModel, FewWarpsAreLatencyBound) {
  gsim::GpuSpec spec;
  gsim::GpuCostModel model(spec);
  // One warp doing 10 dependent transactions: ~10 * 400 ns exposed latency.
  gsim::KernelStats s;
  s.blocks = 1;
  s.warps = 1;
  s.warp_cycles = 100;
  s.global_transactions = 10;
  const double us = model.kernel_time(s).us();
  EXPECT_GT(us, spec.kernel_launch_us + 3.5);
  EXPECT_LT(us, spec.kernel_launch_us + 6.0);
}

TEST(GpuCostModel, DivergentKernelSlowerThanUniform) {
  gsim::GpuSpec spec;
  gsim::GpuCostModel model(spec);
  gsim::KernelStats uniform;
  uniform.blocks = 100;
  uniform.warps = 100000;
  uniform.warp_cycles = 1e7;
  gsim::KernelStats divergent = uniform;
  divergent.warp_cycles = 2e7;  // same work, half the lanes idle
  EXPECT_GT(model.kernel_time(divergent).ps(),
            model.kernel_time(uniform).ps());
}

TEST(GpuCostModel, CoalescingEfficiencyDiagnostic) {
  gsim::GpuSpec spec;
  gsim::KernelStats s;
  s.global_transactions = 10;
  s.global_bytes_requested = 1280;
  EXPECT_DOUBLE_EQ(s.coalescing_efficiency(spec), 1.0);
  s.global_bytes_requested = 128;
  EXPECT_DOUBLE_EQ(s.coalescing_efficiency(spec), 0.1);
}

TEST(GpuCostModel, StatsSum) {
  gsim::KernelStats a, b;
  a.blocks = 1;
  a.warps = 2;
  a.warp_cycles = 10;
  a.global_transactions = 5;
  a.barriers = 1;
  b.blocks = 3;
  b.warps = 4;
  b.warp_cycles = 20;
  b.global_transactions = 7;
  b.shared_accesses = 9;
  a += b;
  EXPECT_EQ(a.blocks, 4u);
  EXPECT_EQ(a.warps, 6u);
  EXPECT_DOUBLE_EQ(a.warp_cycles, 30.0);
  EXPECT_EQ(a.global_transactions, 12u);
  EXPECT_EQ(a.shared_accesses, 9u);
  EXPECT_EQ(a.barriers, 1u);
}
