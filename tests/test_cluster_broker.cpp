// The load-bearing cluster guarantee: a broker over N document-partitioned
// shards answers every query with exactly the same (doc, score) top-k as a
// single HybridEngine over the unpartitioned index — for both partitioning
// strategies, swept over N ∈ {1, 2, 4, 8}. Scores are compared bit-exactly:
// shards carry global statistics (index/shard.h) and all engines score in
// the query's term order, so nothing is allowed to drift.
#include "cluster/broker.h"

#include <gtest/gtest.h>

#include "engine_test_util.h"

using namespace griffin;

namespace {

std::vector<core::Query> equivalence_log(const index::InvertedIndex& idx,
                                         std::uint32_t n, std::uint64_t seed) {
  workload::QueryLogConfig qcfg;
  qcfg.num_queries = n;
  qcfg.seed = seed;
  return workload::generate_query_log(
      qcfg, static_cast<std::uint32_t>(idx.num_terms()));
}

void expect_identical_topk(const std::vector<core::ScoredDoc>& got,
                           const std::vector<core::ScoredDoc>& want,
                           const std::string& label) {
  ASSERT_EQ(got.size(), want.size()) << label;
  for (std::size_t i = 0; i < want.size(); ++i) {
    EXPECT_EQ(got[i].doc, want[i].doc) << label << " rank " << i;
    EXPECT_EQ(got[i].score, want[i].score) << label << " rank " << i;
  }
}

}  // namespace

TEST(ClusterBroker, ScatterGatherEqualsSingleNodeSweep) {
  const auto& idx = testutil::small_index();
  core::HybridEngine single(idx);
  const auto log = equivalence_log(idx, 40, 91);

  for (const auto strategy : {cluster::PartitionStrategy::kRoundRobin,
                              cluster::PartitionStrategy::kRange}) {
    for (const std::uint32_t n : {1u, 2u, 4u, 8u}) {
      cluster::ClusterConfig cfg;
      cfg.num_shards = n;
      cfg.partition = strategy;
      cfg.replicas_per_shard = 1;
      cluster::ClusterBroker broker(idx, cfg);
      const std::string label =
          cluster::strategy_name(strategy) + "/N=" + std::to_string(n);
      for (const auto& q : log) {
        const auto got = broker.execute(q);
        const auto want = single.execute(q);
        expect_identical_topk(got.topk, want.topk, label);
        EXPECT_EQ(got.metrics.result_count, want.metrics.result_count)
            << label;
      }
    }
  }
}

TEST(ClusterBroker, MatchesBruteForceReference) {
  const auto& idx = testutil::small_index();
  cluster::ClusterConfig cfg;
  cfg.num_shards = 4;
  cluster::ClusterBroker broker(idx, cfg);
  for (const auto& q : equivalence_log(idx, 15, 92)) {
    const auto got = broker.execute(q);
    const auto want = testutil::reference_topk(idx, q);
    testutil::expect_same_topk(got.topk, want, "cluster-vs-reference");
  }
}

TEST(ClusterBroker, AbsentTermShardsShortCircuit) {
  // Term 1 lives entirely on the upper range shard; shard 0 must answer
  // empty at dictionary-lookup cost, and the merged result must still be
  // exactly the single-node answer.
  index::InvertedIndex idx(codec::Scheme::kEliasFano);
  idx.docs().resize(100);
  for (index::DocId d = 0; d < 100; ++d) idx.docs().set_length(d, 20);
  std::vector<index::DocId> l0, l1;
  for (index::DocId d = 0; d < 100; d += 2) l0.push_back(d);
  for (index::DocId d = 60; d < 100; d += 3) l1.push_back(d);
  idx.add_list(l0);
  idx.add_list(l1);

  cluster::ClusterConfig cfg;
  cfg.num_shards = 2;
  cfg.partition = cluster::PartitionStrategy::kRange;
  cluster::ClusterBroker broker(idx, cfg);

  core::Query q;
  q.terms = {0, 1};
  q.k = 10;

  const auto part = broker.node(0).execute(q);
  EXPECT_TRUE(part.topk.empty());
  EXPECT_EQ(part.metrics.total, broker.node(0).absent_term_cost());
  EXPECT_EQ(part.metrics.total,
            sim::Duration::from_us(sim::HardwareSpec{}.absent_term_probe_us));

  core::HybridEngine single(idx);
  const auto got = broker.execute(q);
  const auto want = single.execute(q);
  expect_identical_topk(got.topk, want.topk, "absent-term");
}

TEST(ClusterBroker, MergeTopkOrdersAndTruncates) {
  const std::vector<std::vector<core::ScoredDoc>> parts = {
      {{10, 5.0f}, {11, 3.0f}},
      {{20, 4.0f}, {21, 3.0f}},
      {},
  };
  const auto merged = cluster::merge_topk(parts, 3);
  ASSERT_EQ(merged.size(), 3u);
  EXPECT_EQ(merged[0].doc, 10u);
  EXPECT_EQ(merged[1].doc, 20u);
  // Score tie at 3.0: ascending doc id breaks it, same as cpu::top_k.
  EXPECT_EQ(merged[2].doc, 11u);

  const auto all = cluster::merge_topk(parts, 10);
  EXPECT_EQ(all.size(), 4u);
}

TEST(ClusterBroker, UntimedMetricsModelParallelFanout) {
  const auto& idx = testutil::small_index();
  cluster::ClusterConfig cfg;
  cfg.num_shards = 4;
  cluster::ClusterBroker broker(idx, cfg);
  core::Query q;
  q.terms = {3, 9};
  q.k = 10;
  const auto res = broker.execute(q);
  // The broker charges the slowest shard plus network + merge, so the
  // fan-out must cost at least the network round trip and at most the sum
  // of all shard times plus overheads.
  EXPECT_GE(res.metrics.total, cluster::kNetRtt);
  sim::Duration sum;
  for (std::uint32_t s = 0; s < broker.num_shards(); ++s) {
    sum += broker.node(s).execute(q).metrics.total;
  }
  EXPECT_LE(res.metrics.total,
            sum + cluster::kNetRtt + cluster::kMergePerShard * 4.0);
}
