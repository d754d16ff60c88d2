// Hedged-request edge cases: the sliding-window percentile estimator, the
// warm-up boundary, single-replica topologies (nothing to hedge into), and
// hedging's interaction with crashed replicas.
#include "cluster/hedging.h"

#include <gtest/gtest.h>

#include "cluster/broker.h"
#include "engine_test_util.h"

using namespace griffin;

namespace {

std::vector<core::Query> hedge_log(const index::InvertedIndex& idx,
                                   std::uint32_t n, std::uint64_t seed) {
  workload::QueryLogConfig qcfg;
  qcfg.num_queries = n;
  qcfg.seed = seed;
  return workload::generate_query_log(
      qcfg, static_cast<std::uint32_t>(idx.num_terms()));
}

}  // namespace

TEST(HedgeController, DisabledNeverFires) {
  cluster::HedgeController ctl(cluster::HedgeConfig{});
  for (int i = 0; i < 100; ++i) ctl.record(sim::Duration::from_ms(1));
  EXPECT_FALSE(ctl.delay().has_value());
}

TEST(HedgeController, MinSamplesWarmupBoundary) {
  cluster::HedgeConfig cfg;
  cfg.enabled = true;
  cfg.min_samples = 32;
  cluster::HedgeController ctl(cfg);

  for (std::uint32_t i = 0; i < cfg.min_samples - 1; ++i) {
    ctl.record(sim::Duration::from_ms(2));
    EXPECT_FALSE(ctl.delay().has_value()) << "sample " << i;
  }
  ctl.record(sim::Duration::from_ms(2));  // the 32nd observation
  ASSERT_TRUE(ctl.delay().has_value());
  EXPECT_DOUBLE_EQ(ctl.delay()->ms(), 2.0);
}

TEST(HedgeController, WindowBoundsMemoryAndAdapts) {
  cluster::HedgeConfig cfg;
  cfg.enabled = true;
  cfg.min_samples = 1;
  cluster::HedgeController ctl(cfg);
  const std::uint32_t w = cluster::kHedgeWindow;

  // An old slow regime...
  for (std::uint32_t i = 0; i < 3 * w; ++i) {
    ctl.record(sim::Duration::from_ms(1000));
  }
  EXPECT_EQ(ctl.window_size(), w);
  EXPECT_EQ(ctl.observations(), 3 * w);
  EXPECT_DOUBLE_EQ(ctl.delay()->ms(), 1000.0);
  // ...is fully forgotten after kHedgeWindow new observations: the estimate
  // tracks the current regime instead of being outvoted by stale history.
  for (std::uint32_t i = 0; i < w; ++i) ctl.record(sim::Duration::from_ms(1));
  EXPECT_EQ(ctl.window_size(), w);
  EXPECT_DOUBLE_EQ(ctl.delay()->ms(), 1.0);
}

TEST(HedgeController, PercentileMatchesNearestRank) {
  cluster::HedgeConfig cfg;
  cfg.enabled = true;
  cfg.min_samples = 1;
  cfg.percentile = 50.0;
  cluster::HedgeController ctl(cfg);
  for (int v : {10, 20, 30, 40}) ctl.record(sim::Duration::from_ms(v));
  // Nearest-rank p50 of {10,20,30,40}: rank ceil(0.5*4)=2 -> 20.
  EXPECT_DOUBLE_EQ(ctl.delay()->ms(), 20.0);
}

TEST(Hedging, SingleReplicaTopologyNeverHedges) {
  const auto& idx = testutil::small_index();
  const auto log = hedge_log(idx, 150, 71);

  cluster::ClusterConfig cfg;
  cfg.num_shards = 4;
  cfg.replicas_per_shard = 1;  // nowhere to send a hedge
  cfg.arrival_qps = 100.0;
  cfg.seed = 3;
  cfg.hedge.enabled = true;
  cfg.hedge.min_samples = 10;
  cfg.faults.slow.probability = 0.2;  // plenty of would-be hedge triggers
  cfg.faults.slow_factor = 20.0;

  cluster::ClusterBroker broker(idx, cfg);
  const auto res = broker.run(log);
  EXPECT_EQ(res.hedge.issued, 0u);
  EXPECT_EQ(res.hedge.won, 0u);
  EXPECT_GT(res.faults.slow_replicas, 0u);  // stragglers did fire
  EXPECT_EQ(res.response_ms.count(), log.size());
}

TEST(Hedging, CrashedSecondarySuppressesHedges) {
  const auto& idx = testutil::small_index();
  const auto log = hedge_log(idx, 200, 72);

  cluster::ClusterConfig cfg;
  cfg.num_shards = 2;
  cfg.replicas_per_shard = 2;
  cfg.arrival_qps = 100.0;
  cfg.seed = 4;
  cfg.hedge.enabled = true;
  cfg.hedge.percentile = 90.0;
  cfg.hedge.min_samples = 20;
  cfg.faults.slow.probability = 0.15;
  cfg.faults.slow_factor = 25.0;

  cluster::ClusterBroker live(idx, cfg);
  const auto with_replicas = live.run(log);
  EXPECT_GT(with_replicas.hedge.issued, 0u);

  // Every secondary is down for the whole run: the broker must not hedge
  // into a dead replica (the hedge would never return).
  auto dead = cfg;
  for (std::uint32_t s = 0; s < cfg.num_shards; ++s) {
    dead.faults.outages.push_back({s, 1, sim::Duration::from_ms(0),
                                   sim::Duration::from_seconds(3600)});
  }
  cluster::ClusterBroker crashed(idx, dead);
  const auto without = crashed.run(log);
  EXPECT_EQ(without.hedge.issued, 0u);
  EXPECT_EQ(without.hedge.won, 0u);
  // Primaries are all up, so answers still arrive — just unhedged.
  EXPECT_EQ(without.response_ms.count(), log.size());
  EXPECT_EQ(without.faults.degraded_queries, 0u);
}

TEST(Hedging, HedgingStillCutsTailWithWindowedEstimator) {
  // The pre-window behavior cut the straggler tail (test_cluster_sim); the
  // windowed estimator must preserve that headline effect.
  const auto& idx = testutil::small_index();
  const auto log = hedge_log(idx, 300, 73);

  cluster::ClusterConfig cfg;
  cfg.num_shards = 4;
  cfg.replicas_per_shard = 2;
  cfg.arrival_qps = 150.0;
  cfg.seed = 7;
  cfg.faults.slow.probability = 0.08;
  cfg.faults.slow_factor = 25.0;

  cluster::ClusterBroker plain(idx, cfg);
  const auto without = plain.run(log);

  auto hedged_cfg = cfg;
  hedged_cfg.hedge.enabled = true;
  hedged_cfg.hedge.percentile = 90.0;
  hedged_cfg.hedge.min_samples = 40;
  cluster::ClusterBroker hedged(idx, hedged_cfg);
  const auto with = hedged.run(log);

  EXPECT_GT(with.hedge.issued, 0u);
  EXPECT_GT(with.hedge.won, 0u);
  EXPECT_LT(with.response_ms.percentile(99),
            without.response_ms.percentile(99) * 0.8);
}
