// Timed cluster behavior: seeded determinism, hedged requests beating
// injected stragglers at the tail, and the broker result cache absorbing a
// Zipf-skewed query stream.
#include "cluster/broker.h"

#include <gtest/gtest.h>

#include "engine_test_util.h"

using namespace griffin;

namespace {

std::vector<core::Query> sim_log(const index::InvertedIndex& idx,
                                 std::uint32_t n, std::uint64_t seed) {
  workload::QueryLogConfig qcfg;
  qcfg.num_queries = n;
  qcfg.seed = seed;
  return workload::generate_query_log(
      qcfg, static_cast<std::uint32_t>(idx.num_terms()));
}

cluster::ClusterConfig base_config() {
  cluster::ClusterConfig cfg;
  cfg.num_shards = 4;
  cfg.replicas_per_shard = 2;
  cfg.arrival_qps = 150.0;
  cfg.seed = 7;
  return cfg;
}

}  // namespace

TEST(ClusterSim, DeterministicPerSeed) {
  const auto& idx = testutil::small_index();
  const auto log = sim_log(idx, 120, 61);
  auto cfg = base_config();
  cfg.hedge.enabled = true;
  cfg.cache_capacity = 64;
  cfg.faults.slow.probability = 0.05;

  cluster::ClusterBroker a(idx, cfg);
  cluster::ClusterBroker b(idx, cfg);
  const auto ra = a.run(log);
  const auto rb = b.run(log);
  EXPECT_DOUBLE_EQ(ra.response_ms.mean(), rb.response_ms.mean());
  EXPECT_DOUBLE_EQ(ra.response_ms.percentile(99),
                   rb.response_ms.percentile(99));
  EXPECT_EQ(ra.hedge.issued, rb.hedge.issued);
  EXPECT_EQ(ra.hedge.won, rb.hedge.won);
  EXPECT_EQ(ra.cache.hits, rb.cache.hits);
  ASSERT_EQ(ra.shard_utilization.size(), rb.shard_utilization.size());
  for (std::size_t s = 0; s < ra.shard_utilization.size(); ++s) {
    EXPECT_DOUBLE_EQ(ra.shard_utilization[s], rb.shard_utilization[s]);
  }
}

TEST(ClusterSim, HedgingCutsTailUnderStragglers) {
  const auto& idx = testutil::small_index();
  const auto log = sim_log(idx, 300, 62);

  auto cfg = base_config();
  cfg.faults.slow.probability = 0.08;
  cfg.faults.slow_factor = 25.0;

  cluster::ClusterBroker plain(idx, cfg);
  const auto without = plain.run(log);

  cfg.hedge.enabled = true;
  cfg.hedge.percentile = 90.0;
  cfg.hedge.min_samples = 40;
  cluster::ClusterBroker hedged(idx, cfg);
  const auto with = hedged.run(log);

  EXPECT_GT(with.hedge.issued, 0u);
  EXPECT_GT(with.hedge.won, 0u);
  // The tail collapses: stragglers get re-served by an idle replica.
  EXPECT_LT(with.response_ms.percentile(99),
            without.response_ms.percentile(99) * 0.8);
  // The median is not made worse by hedging overhead.
  EXPECT_LT(with.response_ms.percentile(50),
            without.response_ms.percentile(50) * 1.2);
}

TEST(ClusterSim, ResultCacheAbsorbsZipfHead) {
  const auto& idx = testutil::small_index();

  workload::QueryLogConfig base;
  base.seed = 63;
  workload::RepeatedLogConfig rep;
  rep.num_queries = 400;
  rep.unique_queries = 50;
  rep.popularity_zipf_s = 1.1;
  rep.seed = 64;
  const auto stream = workload::generate_repeated_query_log(
      base, rep, static_cast<std::uint32_t>(idx.num_terms()));

  auto cfg = base_config();
  cluster::ClusterBroker uncached(idx, cfg);
  const auto cold = uncached.run(stream);

  cfg.cache_capacity = 128;
  cluster::ClusterBroker cached(idx, cfg);
  const auto warm = cached.run(stream);

  EXPECT_EQ(warm.cache.hits + warm.cache.misses, stream.size());
  EXPECT_GT(warm.cache.hit_rate(), 0.3);
  EXPECT_EQ(warm.cache_hits_served, warm.cache.hits);
  // Hits answer in microseconds instead of a full scatter-gather.
  EXPECT_LT(warm.response_ms.mean(), cold.response_ms.mean() * 0.8);
  EXPECT_LT(warm.response_ms.percentile(50), cold.response_ms.percentile(50));
}

TEST(ClusterSim, UtilizationAndDepthAreSane) {
  const auto& idx = testutil::small_index();
  const auto log = sim_log(idx, 150, 65);
  auto cfg = base_config();
  cluster::ClusterBroker broker(idx, cfg);
  const auto res = broker.run(log);

  ASSERT_EQ(res.shard_utilization.size(), 4u);
  for (const double u : res.shard_utilization) {
    EXPECT_GE(u, 0.0);
    EXPECT_LE(u, 1.0);
    EXPECT_GT(u, 0.0);  // every shard served work
  }
  EXPECT_GE(res.max_queue_depth, 1u);
  EXPECT_GT(res.horizon.ps(), 0);
  EXPECT_EQ(res.response_ms.count(), log.size());
  // Response includes the network round trip and the critical shard path.
  EXPECT_GE(res.response_ms.percentile(50),
            res.shard_critical_ms.percentile(50));
  EXPECT_GE(res.response_ms.percentile(50), cluster::kNetRtt.ms());
}

TEST(ClusterSim, MoreShardsShrinkCriticalServiceTime) {
  // Scaling sanity: with per-shard sub-lists ~1/N the size, the service
  // time of list-bound queries through an idle cluster shrinks as shards
  // are added. Cheap queries are dominated by fixed per-query costs (kernel
  // launches, ranking) that don't shard — and copy/compute overlap
  // (DESIGN.md §10) hides most of what used to scale with list length — so
  // the claim holds for the mean and the tail, not the median.
  const auto& idx = testutil::large_index();
  const auto log = sim_log(idx, 60, 66);
  auto cfg = base_config();
  cfg.arrival_qps = 20.0;  // light load: no queueing, pure service scaling

  cfg.num_shards = 1;
  cluster::ClusterBroker one(idx, cfg);
  const auto r1 = one.run(log);

  cfg.num_shards = 8;
  cluster::ClusterBroker eight(idx, cfg);
  const auto r8 = eight.run(log);

  EXPECT_LT(r8.shard_critical_ms.mean(), r1.shard_critical_ms.mean());
  EXPECT_LT(r8.shard_critical_ms.percentile(90),
            r1.shard_critical_ms.percentile(90) * 0.5);
}
