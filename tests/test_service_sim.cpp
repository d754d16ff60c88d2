#include "service/service_sim.h"

#include <gtest/gtest.h>

#include "core/hybrid_engine.h"
#include "engine_test_util.h"
#include "service/queueing.h"

using namespace griffin;

namespace {

/// Engine stub with a fixed service time per query id.
class FixedEngine : public core::Engine {
 public:
  explicit FixedEngine(double ms) : ms_(ms) {}
  core::QueryResult execute(const core::Query& q) override {
    core::QueryResult r;
    double ms = ms_;
    if (!q.terms.empty() && q.terms[0] == 999) ms *= 100;  // a "long" query
    r.metrics.total = sim::Duration::from_ms(ms);
    return r;
  }

 private:
  double ms_;
};

std::vector<core::Query> n_queries(std::size_t n) {
  std::vector<core::Query> qs(n);
  for (std::size_t i = 0; i < n; ++i) {
    qs[i].id = i;
    qs[i].terms = {0};
  }
  return qs;
}

}  // namespace

TEST(ServiceSim, LightLoadResponseEqualsService) {
  FixedEngine engine(1.0);  // 1 ms service
  service::ServiceConfig cfg;
  cfg.arrival_qps = 10.0;  // 100 ms between arrivals: no queueing
  const auto res = service::run_service(engine, n_queries(500), cfg);
  EXPECT_NEAR(res.response_ms.mean(), res.service_ms.mean(), 0.05);
  EXPECT_LT(res.utilization, 0.05);
}

TEST(ServiceSim, HeavyLoadAddsQueueingDelay) {
  FixedEngine engine(1.0);
  service::ServiceConfig cfg;
  cfg.arrival_qps = 900.0;  // rho = 0.9: significant queueing
  const auto res = service::run_service(engine, n_queries(2000), cfg);
  EXPECT_GT(res.response_ms.mean(), res.service_ms.mean() * 2.0);
  EXPECT_GT(res.utilization, 0.7);
  EXPECT_GT(res.max_queue_depth, 2u);
}

TEST(ServiceSim, OverloadUtilizationSaturates) {
  FixedEngine engine(1.0);
  service::ServiceConfig cfg;
  cfg.arrival_qps = 5000.0;  // rho = 5: unstable queue
  const auto res = service::run_service(engine, n_queries(1000), cfg);
  EXPECT_GT(res.utilization, 0.95);
  // Response time is dominated by waiting behind the backlog.
  EXPECT_GT(res.response_ms.percentile(99),
            res.service_ms.percentile(99) * 10.0);
}

TEST(ServiceSim, LongQueriesInflateOthersTails) {
  // Head-of-line blocking: one 100 ms query in a stream of 1 ms queries
  // inflates the tail of the *response* distribution, not the service one.
  FixedEngine engine(1.0);
  auto queries = n_queries(1000);
  queries[300].terms = {999};
  service::ServiceConfig cfg;
  cfg.arrival_qps = 500.0;
  const auto res = service::run_service(engine, queries, cfg);
  EXPECT_GT(res.response_ms.percentile(99.9), 50.0);
  EXPECT_LE(res.service_ms.percentile(90), 1.1);
}

TEST(ServiceSim, DeterministicPerSeed) {
  FixedEngine engine(2.0);
  service::ServiceConfig cfg;
  cfg.arrival_qps = 400.0;
  const auto a = service::run_service(engine, n_queries(300), cfg);
  const auto b = service::run_service(engine, n_queries(300), cfg);
  EXPECT_DOUBLE_EQ(a.response_ms.mean(), b.response_ms.mean());
  EXPECT_DOUBLE_EQ(a.utilization, b.utilization);
}

TEST(ServiceSim, WorksWithRealEngines) {
  // The engine overload's run totals are exactly the fold of the same
  // queries through a second engine of the same preset, faults included.
  const auto& idx = testutil::small_index();
  core::HybridOptions opt;
  opt.scheduler.policy = core::SchedulerPolicy::kAlwaysGpu;
  opt.faults.gpu.probability = 0.1;
  opt.faults.seed = 5;
  core::HybridEngine engine(idx, {}, opt);
  workload::QueryLogConfig qcfg;
  qcfg.num_queries = 40;
  qcfg.seed = 50;
  const auto log = workload::generate_query_log(
      qcfg, static_cast<std::uint32_t>(idx.num_terms()));
  service::ServiceConfig cfg;
  cfg.arrival_qps = 2000.0;
  const auto res = service::run_service(engine, log, cfg);
  EXPECT_EQ(res.response_ms.count(), log.size());
  EXPECT_GT(res.utilization, 0.0);

  core::HybridEngine twin(idx, {}, opt);
  core::RunTotals want;
  for (const auto& q : log) want.add(twin.execute(q));
  EXPECT_GT(want.faults.gpu_faults, 0u);
  EXPECT_EQ(res.engine_cache, want.engine_cache);
  EXPECT_EQ(res.trace, want.trace);
  EXPECT_EQ(res.engine_overlap, want.engine_overlap);
  EXPECT_EQ(res.faults, want.faults);
}

TEST(ServiceSimEdge, EmptyQuerySetIsWellDefined) {
  service::ServiceConfig cfg;
  const auto res = service::run_service(std::span<const sim::Duration>{}, cfg);
  EXPECT_EQ(res.response_ms.count(), 0u);
  EXPECT_EQ(res.service_ms.count(), 0u);
  EXPECT_DOUBLE_EQ(res.utilization, 0.0);
  EXPECT_EQ(res.max_queue_depth, 0u);
}

TEST(ServiceSimEdge, ZeroQpsDegradesToNoQueueing) {
  // arrival_qps = 0 would mean "no arrivals ever"; the simulator instead
  // caps each gap at one simulated hour, so every query still completes,
  // response equals service, and the server sits essentially idle.
  FixedEngine engine(1.0);
  service::ServiceConfig cfg;
  cfg.arrival_qps = 0.0;
  const auto res = service::run_service(engine, n_queries(100), cfg);
  EXPECT_EQ(res.response_ms.count(), 100u);
  EXPECT_DOUBLE_EQ(res.response_ms.mean(), res.service_ms.mean());
  EXPECT_DOUBLE_EQ(res.response_ms.percentile(99),
                   res.service_ms.percentile(99));
  EXPECT_LT(res.utilization, 1e-5);
  EXPECT_EQ(res.max_queue_depth, 1u);  // only the query being served
}

TEST(ServiceSimEdge, NearZeroQpsDoesNotOverflowTheClock) {
  FixedEngine engine(1.0);
  service::ServiceConfig cfg;
  cfg.arrival_qps = 1e-9;  // a raw exponential gap would overflow int64 ps
  const auto res = service::run_service(engine, n_queries(200), cfg);
  EXPECT_EQ(res.response_ms.count(), 200u);
  for (const double r : res.response_ms.samples()) {
    EXPECT_GE(r, 0.0);  // an overflow would wrap negative
    EXPECT_LE(r, res.service_ms.max() + 1e-9);
  }
  EXPECT_GE(res.utilization, 0.0);
  EXPECT_LE(res.utilization, 1.0);
}

TEST(ServiceSimEdge, UtilizationAndDepthConsistentWithPercentiles) {
  FixedEngine engine(1.0);
  // Light load: nobody waits, so depth stays at 1, utilization is small,
  // and the response percentiles coincide with the service percentiles.
  {
    service::ServiceConfig cfg;
    cfg.arrival_qps = 1.0;
    const auto res = service::run_service(engine, n_queries(500), cfg);
    EXPECT_LE(res.max_queue_depth, 2u);  // rare back-to-back Poisson gaps
    EXPECT_LT(res.utilization, 0.05);
    EXPECT_NEAR(res.response_ms.percentile(99),
                res.service_ms.percentile(99), 0.5);
  }
  // Heavy load: queueing delay shows up in every indicator at once —
  // depth > 1, utilization near 1, and responses dominating service times.
  {
    service::ServiceConfig cfg;
    cfg.arrival_qps = 950.0;
    const auto res = service::run_service(engine, n_queries(2000), cfg);
    EXPECT_GT(res.max_queue_depth, 1u);
    EXPECT_GT(res.utilization, 0.5);
    EXPECT_LE(res.utilization, 1.0);
    EXPECT_GT(res.response_ms.percentile(50),
              res.service_ms.percentile(50));
    // Waiting time consistent with a backlog: the p99 response exceeds the
    // p99 service by at least one extra service time's worth of queueing.
    EXPECT_GT(res.response_ms.percentile(99),
              res.service_ms.percentile(99) + 1.0);
  }
}

TEST(QueueDepth, CountsEveryJobInADeepBacklog) {
  // 5000 jobs arrive 1 us apart and none completes before 10 s: the last
  // arrival sees every job still in the system, however deep the backlog.
  service::QueueDepthTracker depth;
  const sim::Duration done = sim::Duration::from_seconds(10.0);
  std::uint64_t last = 0;
  for (int i = 0; i < 5000; ++i) {
    last = depth.observe(sim::Duration::from_us(i), done);
  }
  EXPECT_EQ(last, 5000u);
  EXPECT_EQ(depth.max_depth(), 5000u);
  // in_system counts the recorded jobs completing strictly after t.
  EXPECT_EQ(depth.in_system(done - sim::Duration::from_ps(1)), 5000u);
  EXPECT_EQ(depth.in_system(done), 0u);
  // Once the backlog has drained, a new arrival sees only itself.
  EXPECT_EQ(depth.observe(done, done + sim::Duration::from_ms(1)), 1u);

  // An FCFS server at 10x overload: job j finishes at (j + 1) ms, so
  // arrival i (at i * 0.1 ms) finds i + 1 - floor(i / 10) jobs in the system.
  service::FcfsServer server;
  service::QueueDepthTracker fcfs_depth;
  for (int i = 0; i < 10'000; ++i) {
    const sim::Duration arrival = sim::Duration::from_us(100.0 * i);
    const auto c = server.submit(arrival, sim::Duration::from_ms(1));
    fcfs_depth.observe(arrival, c.done);
  }
  EXPECT_EQ(fcfs_depth.max_depth(), 9001u);
}

TEST(ServiceSimAdmission, UnboundedQueueShedsNothing) {
  FixedEngine engine(1.0);
  service::ServiceConfig cfg;
  cfg.arrival_qps = 5000.0;  // rho = 5: the FCFS queue grows, never sheds
  const auto res = service::run_service(engine, n_queries(500), cfg);
  EXPECT_EQ(res.faults.shed_queries, 0u);
  EXPECT_EQ(res.response_ms.count(), 500u);
}
