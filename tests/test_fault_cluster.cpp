// Cluster-level fault handling (DESIGN.md §11): replica crashes and
// failover, the per-replica circuit breaker, per-shard deadlines, and the
// degraded partial gather. The load-bearing invariants: a query the broker
// answers *non-degraded* returns bits identical to a fault-free run no
// matter how many retries/failovers served it, and every degraded query is
// counted and carries coverage < 1.
#include <gtest/gtest.h>

#include "cluster/broker.h"
#include "engine_test_util.h"

using namespace griffin;

namespace {

std::vector<core::Query> fault_log(const index::InvertedIndex& idx,
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
  cfg.arrival_qps = 50.0;
  cfg.seed = 9;
  cfg.record_outcomes = true;
  return cfg;
}

/// An outage spanning any realistic run horizon.
fault::Outage forever(std::uint32_t shard, std::uint32_t replica) {
  return {shard, replica, sim::Duration::from_ms(0),
          sim::Duration::from_seconds(3600)};
}

void expect_same_outcome_topk(const cluster::QueryOutcome& got,
                              const cluster::QueryOutcome& want) {
  ASSERT_EQ(got.topk.size(), want.topk.size());
  for (std::size_t i = 0; i < want.topk.size(); ++i) {
    EXPECT_EQ(got.topk[i].doc, want.topk[i].doc);
    EXPECT_EQ(got.topk[i].score, want.topk[i].score);  // bit-exact
  }
}

}  // namespace

TEST(FaultCluster, FailoverServesFullResultsWhenPrimaryIsDown) {
  const auto& idx = testutil::small_index();
  const auto log = fault_log(idx, 40, 91);

  auto cfg = base_config();
  cluster::ClusterBroker clean(idx, cfg);
  const auto ref = clean.run(log);

  cfg.faults.outages.push_back(forever(/*shard=*/0, /*replica=*/0));
  cluster::ClusterBroker broker(idx, cfg);
  const auto res = broker.run(log);

  // Every query failed over shard 0's primary onto its replica: full
  // coverage, zero degradation, and bit-identical answers.
  EXPECT_EQ(res.faults.replica_failures, log.size());
  EXPECT_EQ(res.faults.failovers, log.size());
  EXPECT_EQ(res.faults.degraded_queries, 0u);
  EXPECT_EQ(res.faults.shards_dropped, 0u);
  EXPECT_DOUBLE_EQ(res.mean_coverage(), 1.0);
  EXPECT_DOUBLE_EQ(res.min_coverage, 1.0);
  EXPECT_GT(res.faults.backoff_time.ps(), 0);
  ASSERT_EQ(res.outcomes.size(), ref.outcomes.size());
  for (std::size_t i = 0; i < ref.outcomes.size(); ++i) {
    EXPECT_FALSE(res.outcomes[i].degraded);
    expect_same_outcome_topk(res.outcomes[i], ref.outcomes[i]);
  }
  // The detour is not free: crash detection + backoff push latency up.
  EXPECT_GT(res.response_ms.mean(), ref.response_ms.mean());
}

TEST(FaultCluster, LosingEveryReplicaDegradesCoverage) {
  const auto& idx = testutil::small_index();
  const auto log = fault_log(idx, 30, 92);

  auto cfg = base_config();
  cfg.faults.outages.push_back(forever(0, 0));
  cfg.faults.outages.push_back(forever(0, 1));
  cluster::ClusterBroker broker(idx, cfg);
  const auto res = broker.run(log);

  // Shard 0 never answers: every query gathers 3 of 4 shards.
  EXPECT_EQ(res.faults.degraded_queries, log.size());
  EXPECT_EQ(res.faults.shards_dropped, log.size());
  EXPECT_DOUBLE_EQ(res.mean_coverage(), 0.75);
  EXPECT_DOUBLE_EQ(res.min_coverage, 0.75);
  EXPECT_EQ(res.gathered_queries, log.size());
  EXPECT_EQ(res.response_ms.count(), log.size());  // still answered
  for (const auto& o : res.outcomes) {
    EXPECT_TRUE(o.degraded);
    EXPECT_DOUBLE_EQ(o.coverage, 0.75);
  }
}

TEST(FaultCluster, DegradedResultsAreNeverCached) {
  const auto& idx = testutil::small_index();
  // The same query twice: a degraded answer must not seed the result cache
  // and be replayed at the repeat.
  auto log = fault_log(idx, 1, 93);
  log.push_back(log[0]);
  log[1].id = 1;

  auto cfg = base_config();
  cfg.cache_capacity = 16;
  cfg.faults.outages.push_back(forever(0, 0));
  cfg.faults.outages.push_back(forever(0, 1));
  cluster::ClusterBroker broker(idx, cfg);
  const auto res = broker.run(log);

  ASSERT_EQ(res.outcomes.size(), 2u);
  EXPECT_TRUE(res.outcomes[0].degraded);
  EXPECT_TRUE(res.outcomes[1].degraded);  // re-gathered, not replayed
  EXPECT_FALSE(res.outcomes[1].cache_hit);
  EXPECT_EQ(res.cache_hits_served, 0u);
  EXPECT_EQ(res.cache.hits, 0u);

  // Control: fault-free, the repeat is a cache hit.
  auto clean = base_config();
  clean.cache_capacity = 16;
  cluster::ClusterBroker cached(idx, clean);
  const auto ref = cached.run(log);
  EXPECT_EQ(ref.cache_hits_served, 1u);
  ASSERT_EQ(ref.outcomes.size(), 2u);
  EXPECT_TRUE(ref.outcomes[1].cache_hit);
}

TEST(FaultCluster, DeadlineDropsTheSlowedShard) {
  const auto& idx = testutil::small_index();
  const std::uint32_t n = 30;
  const auto log = fault_log(idx, n, 94);

  auto cfg = base_config();
  cfg.arrival_qps = 20.0;  // light load: critical path ~= service time
  cluster::ClusterBroker clean(idx, cfg);
  const auto ref = clean.run(log);
  const double max_crit_ms = ref.shard_critical_ms.percentile(100);

  // Slow the last query's shard-2 primary 200x; a deadline comfortably
  // above every fault-free critical path then catches exactly that shard.
  auto faulty = cfg;
  faulty.shard_deadline = sim::Duration::from_ms(max_crit_ms * 3.0);
  faulty.faults.slow.triggers.push_back({/*query=*/n - 1, /*scope=*/2});
  faulty.faults.slow_factor = 200.0;
  cluster::ClusterBroker broker(idx, faulty);
  const auto res = broker.run(log);

  EXPECT_EQ(res.faults.slow_replicas, 1u);
  EXPECT_EQ(res.faults.deadline_misses, 1u);
  EXPECT_EQ(res.faults.degraded_queries, 1u);
  EXPECT_DOUBLE_EQ(res.min_coverage, 0.75);
  ASSERT_EQ(res.outcomes.size(), n);
  EXPECT_TRUE(res.outcomes[n - 1].degraded);
  for (std::size_t i = 0; i + 1 < n; ++i) {
    EXPECT_FALSE(res.outcomes[i].degraded) << "query " << i;
    expect_same_outcome_topk(res.outcomes[i], ref.outcomes[i]);
  }
  // The dropped shard caps the query's critical path at the deadline.
  EXPECT_LE(res.shard_critical_ms.percentile(100),
            faulty.shard_deadline.ms() * 1.0001);
}

TEST(FaultCluster, BreakerShortCircuitsAPersistentlyDeadPrimary) {
  const auto& idx = testutil::small_index();
  const auto log = fault_log(idx, 60, 95);

  auto cfg = base_config();
  cfg.faults.outages.push_back(forever(0, 0));
  cluster::ClusterBroker plain(idx, cfg);
  const auto without = plain.run(log);

  auto breaker_cfg = cfg;
  breaker_cfg.breaker.enabled = true;
  breaker_cfg.breaker.open_duration = sim::Duration::from_seconds(30);
  cluster::ClusterBroker guarded(idx, breaker_cfg);
  const auto with = guarded.run(log);

  // After three crash detections the breaker opens and later queries skip
  // the dead primary without paying the crash-detect timeout + backoff.
  EXPECT_EQ(with.faults.breaker_opens, 1u);
  EXPECT_GT(with.faults.breaker_short_circuits, 0u);
  EXPECT_LT(with.faults.replica_failures, without.faults.replica_failures);
  EXPECT_LT(with.faults.backoff_time.ps(), without.faults.backoff_time.ps());
  EXPECT_LT(with.response_ms.mean(), without.response_ms.mean());
  // Failover still answers everything in full.
  EXPECT_EQ(with.faults.degraded_queries, 0u);
  EXPECT_DOUBLE_EQ(with.mean_coverage(), 1.0);
}

TEST(FaultCluster, CircuitBreakerStateMachine) {
  static_assert(cluster::kBreakerFailureThreshold == 3);
  cluster::BreakerConfig cfg;
  cfg.enabled = true;
  cfg.open_duration = sim::Duration::from_ms(10);
  cluster::CircuitBreaker br(cfg);

  const auto t = [](double ms) { return sim::Duration::from_ms(ms); };
  using State = cluster::CircuitBreaker::State;

  EXPECT_TRUE(br.allow(t(0)));
  EXPECT_FALSE(br.record_failure(t(0)));  // 1 of 3
  EXPECT_TRUE(br.allow(t(0.5)));
  EXPECT_FALSE(br.record_failure(t(0.5)));  // 2 of 3
  EXPECT_EQ(br.state(t(0.5)), State::kClosed);
  EXPECT_TRUE(br.allow(t(1)));
  EXPECT_TRUE(br.record_failure(t(1)));  // threshold: opens
  EXPECT_EQ(br.state(t(2)), State::kOpen);
  EXPECT_FALSE(br.allow(t(5)));

  // After open_duration: half-open, one probe allowed.
  EXPECT_EQ(br.state(t(11)), State::kHalfOpen);
  EXPECT_TRUE(br.allow(t(11)));
  EXPECT_TRUE(br.record_failure(t(11)));  // failed probe re-opens
  EXPECT_FALSE(br.allow(t(15)));

  EXPECT_EQ(br.state(t(22)), State::kHalfOpen);
  br.record_success();  // successful probe closes
  EXPECT_EQ(br.state(t(22)), State::kClosed);
  EXPECT_TRUE(br.allow(t(22)));

  // Disabled breakers never block.
  cluster::CircuitBreaker off{};
  EXPECT_FALSE(off.record_failure(t(0)));
  EXPECT_FALSE(off.record_failure(t(0)));
  EXPECT_FALSE(off.record_failure(t(0)));
  EXPECT_TRUE(off.allow(t(0)));
}

TEST(FaultCluster, NonDegradedQueriesMatchFaultFreeBitsUnderCrashChurn) {
  const auto& idx = testutil::small_index();
  const auto log = fault_log(idx, 80, 97);

  auto cfg = base_config();
  cluster::ClusterBroker clean(idx, cfg);
  const auto ref = clean.run(log);

  auto churn = cfg;
  churn.faults.crash_probability = 0.25;
  churn.faults.crash_window_ms = 20.0;
  cluster::ClusterBroker broker(idx, churn);
  const auto res = broker.run(log);

  EXPECT_GT(res.faults.replica_failures, 0u);
  ASSERT_EQ(res.outcomes.size(), ref.outcomes.size());
  std::size_t full = 0;
  for (std::size_t i = 0; i < res.outcomes.size(); ++i) {
    if (res.outcomes[i].degraded) {
      EXPECT_LT(res.outcomes[i].coverage, 1.0);
      continue;
    }
    ++full;
    expect_same_outcome_topk(res.outcomes[i], ref.outcomes[i]);
  }
  EXPECT_GT(full, 0u);
  EXPECT_EQ(res.faults.degraded_queries, res.outcomes.size() - full);
}

TEST(FaultCluster, EngineFaultsFlowIntoClusterCounters) {
  const auto& idx = testutil::small_index();
  const auto log = fault_log(idx, 40, 98);

  auto cfg = base_config();
  cfg.record_outcomes = false;
  cfg.faults.gpu.probability = 0.2;
  core::HybridOptions opt;
  opt.scheduler.policy = core::SchedulerPolicy::kAlwaysGpu;
  cluster::ClusterBroker broker(idx, cfg, {}, opt);

  const auto res = broker.run(log);
  EXPECT_GT(res.faults.gpu_faults, 0u);
  EXPECT_GT(res.faults.gpu_wasted.ps(), 0);
  EXPECT_GT(res.trace.faulted_steps, 0u);
  // A GPU fault degrades execution, never the answer: nothing is dropped.
  EXPECT_EQ(res.faults.degraded_queries, 0u);
}

TEST(FaultCluster, UntimedExecuteDegradesOnScopedEngineFault) {
  const auto& idx = testutil::small_index();
  auto cfg = base_config();
  cfg.record_outcomes = false;
  cfg.faults.gpu.triggers.push_back({/*query=*/0, /*scope=*/1});
  core::HybridOptions opt;
  opt.scheduler.policy = core::SchedulerPolicy::kAlwaysGpu;
  cluster::ClusterBroker broker(idx, cfg, {}, opt);
  cluster::ClusterBroker clean(idx, base_config(), {}, opt);

  core::Query q;
  q.terms = {5, 15, 30};
  q.id = 0;
  const auto res = broker.execute(q);
  const auto ref = clean.execute(q);
  // Only shard 1's engine faulted; the merged result is still exact.
  EXPECT_EQ(res.metrics.faults.gpu_faults, 1u);
  ASSERT_EQ(res.topk.size(), ref.topk.size());
  for (std::size_t i = 0; i < ref.topk.size(); ++i) {
    EXPECT_EQ(res.topk[i].doc, ref.topk[i].doc);
    EXPECT_EQ(res.topk[i].score, ref.topk[i].score);
  }
  const auto want = testutil::reference_topk(idx, q);
  testutil::expect_same_topk(res.topk, want, "cluster-engine-fault");
}

TEST(FaultCluster, FaultRunsAreDeterministic) {
  const auto& idx = testutil::small_index();
  const auto log = fault_log(idx, 60, 99);

  auto cfg = base_config();
  cfg.faults.crash_probability = 0.15;
  cfg.faults.crash_window_ms = 25.0;
  cfg.faults.slow.probability = 0.1;
  cfg.breaker.enabled = true;
  cfg.shard_deadline = sim::Duration::from_ms(50.0);

  cluster::ClusterBroker a(idx, cfg);
  cluster::ClusterBroker b(idx, cfg);
  const auto ra = a.run(log);
  const auto rb = b.run(log);
  EXPECT_EQ(ra.faults, rb.faults);
  EXPECT_DOUBLE_EQ(ra.coverage_sum, rb.coverage_sum);
  EXPECT_DOUBLE_EQ(ra.response_ms.mean(), rb.response_ms.mean());
  EXPECT_DOUBLE_EQ(ra.response_ms.percentile(99),
                   rb.response_ms.percentile(99));
}
