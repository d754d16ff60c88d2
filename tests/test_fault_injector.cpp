// The fault injector's contract (DESIGN.md §11): decisions are pure hashes
// of (seed, site, coordinate) — deterministic, order-independent, and
// consuming nothing when a site is disarmed — plus scripted triggers and
// outages that land faults exactly where a test points.
#include "fault/fault.h"

#include <gtest/gtest.h>

using namespace griffin;

TEST(FaultInjector, DisarmedSitesNeverFire) {
  const fault::FaultConfig cfg;  // all probabilities zero, no triggers
  const fault::FaultInjector inj(cfg);
  for (std::uint64_t q = 0; q < 50; ++q) {
    EXPECT_FALSE(inj.gpu_step_fault(0, q, q % 7));
    EXPECT_FALSE(inj.pcie_error(0, q, q, 0));
    EXPECT_FALSE(inj.replica_down(0, 0, sim::Duration::from_ms(double(q))));
    EXPECT_FALSE(inj.slow(q, 0));
  }
}

TEST(FaultInjector, DecisionsAreDeterministicAndOrderFree) {
  fault::FaultConfig cfg;
  cfg.gpu.probability = 0.3;
  cfg.pcie.probability = 0.3;
  cfg.crash.probability = 0.3;
  cfg.slow.probability = 0.3;
  cfg.seed = 42;
  const fault::FaultInjector a(cfg);
  const fault::FaultInjector b(cfg);

  // Same coordinate, any order, any injector instance: same answer.
  for (std::uint64_t q = 100; q-- > 0;) {
    EXPECT_EQ(a.gpu_step_fault(1, q, 2), b.gpu_step_fault(1, q, 2));
    EXPECT_EQ(a.pcie_error(1, q, 5, 1), b.pcie_error(1, q, 5, 1));
    EXPECT_EQ(a.slow(q, 3), a.slow(q, 3));
  }
}

TEST(FaultInjector, SeedMovesTheFaultPattern) {
  fault::FaultConfig cfg;
  cfg.gpu.probability = 0.5;
  cfg.seed = 1;
  const fault::FaultInjector a(cfg);
  cfg.seed = 2;
  const fault::FaultInjector b(cfg);

  int differ = 0;
  for (std::uint64_t q = 0; q < 200; ++q) {
    differ += a.gpu_step_fault(0, q, 0) != b.gpu_step_fault(0, q, 0);
  }
  EXPECT_GT(differ, 0);
}

TEST(FaultInjector, ProbabilityControlsTheHitRate) {
  fault::FaultConfig cfg;
  cfg.gpu.probability = 0.2;
  cfg.seed = 7;
  const fault::FaultInjector inj(cfg);

  int hits = 0;
  const int n = 5000;
  for (int q = 0; q < n; ++q) hits += inj.gpu_step_fault(0, q, 0);
  const double rate = double(hits) / n;
  EXPECT_NEAR(rate, 0.2, 0.03);
}

TEST(FaultInjector, TriggersFireExactlyAtTheirCoordinate) {
  fault::FaultConfig cfg;
  cfg.gpu.triggers.push_back({/*query=*/17, /*scope=*/2});
  const fault::FaultInjector inj(cfg);

  EXPECT_TRUE(inj.gpu_step_fault(2, 17, 0));
  EXPECT_TRUE(inj.gpu_step_fault(2, 17, 9));  // every step of the pair
  EXPECT_FALSE(inj.gpu_step_fault(2, 16, 0));
  EXPECT_FALSE(inj.gpu_step_fault(1, 17, 0));  // other scope
}

TEST(FaultInjector, PcieTriggerFailsFirstAttemptOnly) {
  fault::FaultConfig cfg;
  cfg.pcie.triggers.push_back({/*query=*/3, /*scope=*/0});
  const fault::FaultInjector inj(cfg);

  EXPECT_TRUE(inj.pcie_error(0, 3, 0, 0));
  EXPECT_FALSE(inj.pcie_error(0, 3, 0, 1));  // the retry succeeds
  EXPECT_FALSE(inj.pcie_error(0, 4, 0, 0));
}

TEST(FaultInjector, ScriptedOutageIsHalfOpenInterval) {
  fault::FaultConfig cfg;
  cfg.outages.push_back({/*shard=*/1, /*replica=*/0,
                         sim::Duration::from_ms(10),
                         sim::Duration::from_ms(20)});
  const fault::FaultInjector inj(cfg);

  EXPECT_FALSE(inj.replica_down(1, 0, sim::Duration::from_ms(9.9)));
  EXPECT_TRUE(inj.replica_down(1, 0, sim::Duration::from_ms(10)));
  EXPECT_TRUE(inj.replica_down(1, 0, sim::Duration::from_ms(19.9)));
  EXPECT_FALSE(inj.replica_down(1, 0, sim::Duration::from_ms(20)));
  EXPECT_FALSE(inj.replica_down(1, 1, sim::Duration::from_ms(15)));
  EXPECT_FALSE(inj.replica_down(0, 0, sim::Duration::from_ms(15)));
}

TEST(FaultInjector, CrashWindowsRecoverAtBoundaries) {
  fault::FaultConfig cfg;
  cfg.crash.probability = 0.3;
  cfg.crash_window_ms = 10.0;
  cfg.seed = 11;
  const fault::FaultInjector inj(cfg);

  // Within one window the answer is constant; across windows it varies.
  int down_windows = 0;
  int transitions = 0;
  bool prev = false;
  for (int w = 0; w < 300; ++w) {
    const auto t0 = sim::Duration::from_ms(w * 10.0 + 0.5);
    const auto t1 = sim::Duration::from_ms(w * 10.0 + 9.5);
    const bool d0 = inj.replica_down(2, 1, t0);
    EXPECT_EQ(d0, inj.replica_down(2, 1, t1));
    down_windows += d0;
    if (w > 0 && d0 != prev) ++transitions;
    prev = d0;
  }
  EXPECT_GT(down_windows, 40);   // ~90 expected at p=0.3
  EXPECT_LT(down_windows, 160);
  EXPECT_GT(transitions, 0);  // crashes recover (and recur)
}

TEST(FaultInjector, OomSiteIsIndependentAndDeterministic) {
  fault::FaultConfig cfg;
  cfg.oom.probability = 0.3;
  cfg.gpu.probability = 0.3;
  cfg.seed = 9;
  const fault::FaultInjector a(cfg);
  const fault::FaultInjector b(cfg);

  int differ = 0;
  for (std::uint64_t q = 0; q < 300; ++q) {
    // Deterministic across instances...
    EXPECT_EQ(a.oom_fault(0, q, 1), b.oom_fault(0, q, 1));
    // ...and drawn from its own salt: the gpu site at the same coordinate
    // must not mirror it.
    differ += a.oom_fault(0, q, 1) != a.gpu_step_fault(0, q, 1);
  }
  EXPECT_GT(differ, 0);
}

TEST(FaultInjector, OomTriggersAndArming) {
  fault::FaultConfig cfg;
  cfg.oom.triggers.push_back({/*query=*/4, /*scope=*/1});
  EXPECT_TRUE(cfg.oom.armed());  // a trigger alone arms the site

  const fault::FaultInjector inj(cfg);
  EXPECT_TRUE(inj.oom_fault(1, 4, 0));
  EXPECT_TRUE(inj.oom_fault(1, 4, 7));   // every allocation of the pair
  EXPECT_FALSE(inj.oom_fault(1, 5, 0));
  EXPECT_FALSE(inj.oom_fault(0, 4, 0));  // other scope
}

TEST(FaultInjector, Clamp01IsTheValidationSemantics) {
  EXPECT_EQ(fault::clamp01(-0.5), 0.0);
  EXPECT_EQ(fault::clamp01(0.0), 0.0);
  EXPECT_EQ(fault::clamp01(0.25), 0.25);
  EXPECT_EQ(fault::clamp01(1.0), 1.0);
  EXPECT_EQ(fault::clamp01(7.0), 1.0);
}

TEST(FaultInjectorDeathTest, OutOfRangeProbabilityAsserts) {
  // >1 used to silently behave as always-fire while reporting the
  // configured rate; the injector now refuses the config at construction.
  fault::FaultConfig over;
  over.gpu.probability = 1.5;
  EXPECT_DEATH({ fault::FaultInjector inj(over); }, "probability");
  fault::FaultConfig under;
  under.oom.probability = -0.1;
  EXPECT_DEATH({ fault::FaultInjector inj(under); }, "probability");
}

TEST(FaultCounters, AccumulateAndDetect) {
  fault::FaultCounters a;
  EXPECT_FALSE(a.any());
  a.gpu_faults = 2;
  a.gpu_wasted = sim::Duration::from_us(100);
  fault::FaultCounters b;
  b.pcie_errors = 3;
  b.shed_queries = 1;
  b.pcie_retry_time = sim::Duration::from_us(7);
  a += b;
  EXPECT_TRUE(a.any());
  EXPECT_EQ(a.gpu_faults, 2u);
  EXPECT_EQ(a.pcie_errors, 3u);
  EXPECT_EQ(a.shed_queries, 1u);
  EXPECT_EQ(a.gpu_wasted, sim::Duration::from_us(100));
  EXPECT_EQ(a.pcie_retry_time, sim::Duration::from_us(7));
}
