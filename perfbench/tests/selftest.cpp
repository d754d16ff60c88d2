// Self-test of the benchmark's own rules: percentile support, makespan
// throughput, failure counting, and run-to-run determinism of the simulated
// metrics on a tiny corpus. Run with `python3 perfbench/run.py --self-test`.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include "harness.h"
#include "workloads.h"

namespace pb = perfbench;

TEST(Percentile, TenSamplesBeyondRule) {
  EXPECT_EQ(pb::samples_beyond(200, 95), 10u);
  EXPECT_EQ(pb::samples_beyond(199, 95), 9u);
  EXPECT_EQ(pb::highest_supported_percentile(200), 95.0);
  EXPECT_EQ(pb::highest_supported_percentile(199), 90.0);
  EXPECT_EQ(pb::highest_supported_percentile(1000), 99.0);
  EXPECT_EQ(pb::highest_supported_percentile(20), 50.0);
  EXPECT_EQ(pb::highest_supported_percentile(19), 0.0);
}

TEST(Percentile, NearestRank) {
  std::vector<double> xs;
  for (int i = 1; i <= 200; ++i) xs.push_back(i);
  EXPECT_EQ(pb::percentile(xs, 50), 100.0);
  EXPECT_EQ(pb::percentile(xs, 95), 190.0);
  EXPECT_THROW(pb::percentile({}, 50), std::invalid_argument);
}

TEST(Throughput, CompletedOverMakespan) {
  EXPECT_DOUBLE_EQ(pb::makespan_qps(100, 0.5), 200.0);
  EXPECT_DOUBLE_EQ(pb::makespan_qps(0, 2.0), 0.0);
  EXPECT_DOUBLE_EQ(pb::makespan_qps(10, 0.0), 0.0);
}

TEST(Ledger, WrongTopkCountsAsFailed) {
  const std::vector<griffin::core::ScoredDoc> ref = {{7, 3.5f}, {2, 1.25f}};
  auto wrong = ref;
  wrong[1].score = std::nextafter(wrong[1].score, 0.0f);  // one ulp off
  EXPECT_TRUE(pb::same_topk(ref, ref));
  EXPECT_FALSE(pb::same_topk(ref, wrong));
  EXPECT_FALSE(pb::same_topk(ref, {ref.begin(), ref.begin() + 1}));

  pb::Ledger l;
  l.record(pb::same_topk(ref, ref), true, true);
  l.record(pb::same_topk(ref, wrong), true, true);
  l.record(true, /*served_ok=*/false, /*identities_ok=*/false);
  EXPECT_EQ(l.attempted(), 3u);
  EXPECT_EQ(l.failed(), 2u);
  EXPECT_EQ(l.topk_mismatches(), 1u);
  EXPECT_FALSE(l.correct());

  pb::Ledger run_only;
  run_only.record(true, true, true);
  run_only.check_run(false, "conservation");
  EXPECT_EQ(run_only.failed(), 0u);
  EXPECT_FALSE(run_only.correct());
}

TEST(Metrics, ExactDigitsRoundTrip) {
  for (const double v : {0.1, 1.0 / 3.0, 2115.027, 1e-9, 12345678.901234567}) {
    EXPECT_EQ(std::strtod(pb::exact(v).c_str(), nullptr), v);
  }
}

namespace {

pb::Config tiny(const std::string& workload, bool trace) {
  pb::Config c;
  c.workload = workload;
  c.seed = 3;
  c.trace = trace;
  c.num_docs = 20'000;
  c.num_terms = 200;
  c.queries = 200;
  c.overload_queries = 60;
  c.nominal_qps = 20'000;
  c.overload_qps = 200'000;
  c.cluster_qps = 20'000;
  c.setup_reps = 1;
  c.warmup_queries = 20;
  c.replay_queries = 4;
  return c;
}

}  // namespace

class Workload : public ::testing::TestWithParam<const char*> {};

TEST_P(Workload, SameSeedSameSimulatedMetrics) {
  const auto a = pb::run_workload(tiny(GetParam(), false));
  const auto b = pb::run_workload(tiny(GetParam(), false));
  EXPECT_TRUE(a.ledger.correct());
  EXPECT_EQ(a.ledger.attempted(), b.ledger.attempted());
  EXPECT_EQ(a.ledger.failed(), 0u);
  const std::string sim = a.end_to_end.dump("sim") + a.ungated.dump("sim");
  EXPECT_NE(sim.find("sim_p95_ms="), std::string::npos);
  EXPECT_EQ(sim, b.end_to_end.dump("sim") + b.ungated.dump("sim"));

  auto other = tiny(GetParam(), false);
  other.seed = 4;
  EXPECT_NE(sim, pb::run_workload(other).end_to_end.dump("sim"));
}

TEST_P(Workload, TracedRunEmitsEveryLayerAndATrace) {
  auto c = tiny(GetParam(), true);
  // Relative: run.py starts the self-test inside the build directory.
  c.trace_path = "perfbench_selftest_trace.json";
  const auto rep = pb::run_workload(c);
  EXPECT_TRUE(rep.ledger.correct());
  std::vector<std::string> names;
  for (const auto& m : rep.per_layer.all()) names.push_back(m.name);
  for (const char* want :
       {"host.simt.ns_per_element", "host.core.scheduler_decide_ns",
        "host.cpu.decode_all_us_per_kposting", "host.cluster.broker_build_ms",
        "host.tenancy.run_s", "host.cluster.execute_ms", "core.stage_rank_ms",
        "core.prefetch_used_ratio", "sim.h2d_busy_frac",
        "tenancy.batch_groups", "cpu.simd_lane_utilization",
        "cluster.hedge_win_ratio", "service.max_queue_depth",
        "host.trace_overhead_frac"}) {
    EXPECT_NE(std::find(names.begin(), names.end(), want), names.end())
        << want;
  }
  std::FILE* f = std::fopen(c.trace_path.c_str(), "r");
  ASSERT_NE(f, nullptr);
  char head[32] = {};
  EXPECT_EQ(std::fread(head, 1, 16, f), 16u);
  std::fclose(f);
  EXPECT_EQ(std::string(head, 16), "{\"displayTimeUni");
}

TEST(Traced, EveryWorkloadEmitsTheSameMetrics) {
  const auto names = [](const pb::MetricSet& set) {
    std::vector<std::string> out;
    for (const auto& m : set.all()) out.push_back(m.name);
    std::sort(out.begin(), out.end());
    return out;
  };
  std::vector<std::vector<std::string>> layers;
  std::vector<std::vector<std::string>> end_to_end;
  for (const auto& w : pb::workload_names()) {
    const auto rep = pb::run_workload(tiny(w, true));
    layers.push_back(names(rep.per_layer));
    end_to_end.push_back(names(rep.end_to_end));
  }
  for (const auto& s : layers) EXPECT_EQ(s, layers.front());
  for (const auto& s : end_to_end) EXPECT_EQ(s, end_to_end.front());
  const auto& e = end_to_end.front();
  EXPECT_NE(std::find(e.begin(), e.end(), "host_ms_per_query"), e.end());
}

INSTANTIATE_TEST_SUITE_P(Perfbench, Workload,
                         ::testing::Values("paper_mix", "tenant_load"));
