// The rank model (DESIGN.md §5): every intersect, on either processor, emits
// each match's position in the list it intersected, the intermediate
// carries one position column per term, and BM25 reads each tf at its
// carried position. In every execution mode, each carried position must
// point at its row's docID in its term's list, top-k must be bit-identical
// to the walk-based oracle (tests/bm25_walk_reference.h), which reaches each
// tf by walking skip entries and decoding blocks, and the stage identity
// must hold in integer picoseconds.
#include <gtest/gtest.h>

#include <cstring>
#include <string>
#include <vector>

#include "core/hybrid_engine.h"
#include "engine_test_util.h"
#include "tenancy/device_manager.h"
#include "util/rng.h"

using namespace griffin;
using core::HybridEngine;
using core::HybridOptions;
using core::Query;
using core::SchedulerPolicy;

namespace {

/// Generated queries plus random ones, some with a repeated term (whose
/// columns then hold the same positions twice).
std::vector<Query> queries(const index::InvertedIndex& idx) {
  workload::QueryLogConfig qcfg;
  qcfg.num_queries = 24;
  qcfg.seed = 27;
  auto out = workload::generate_query_log(
      qcfg, static_cast<std::uint32_t>(idx.num_terms()));
  util::Xoshiro256 rng(2701);
  for (int i = 0; i < 16; ++i) {
    Query q;
    const int nterms = 1 + static_cast<int>(rng() % 5);
    for (int t = 0; t < nterms; ++t) {
      q.terms.push_back(static_cast<index::TermId>(rng() % idx.num_terms()));
    }
    if (i % 4 == 0) q.terms.push_back(q.terms.front());
    q.id = 1000 + static_cast<std::uint64_t>(i);
    out.push_back(q);
  }
  return out;
}

/// Doc ids and score bits, rank by rank.
void expect_bit_identical(const std::vector<core::ScoredDoc>& got,
                          const std::vector<core::ScoredDoc>& want,
                          const std::string& label) {
  ASSERT_EQ(got.size(), want.size()) << label;
  for (std::size_t r = 0; r < want.size(); ++r) {
    EXPECT_EQ(got[r].doc, want[r].doc) << label << " rank " << r;
    std::uint32_t gb = 0;
    std::uint32_t wb = 0;
    std::memcpy(&gb, &got[r].score, sizeof gb);
    std::memcpy(&wb, &want[r].score, sizeof wb);
    EXPECT_EQ(gb, wb) << label << " rank " << r;
  }
}

struct Mode {
  std::string name;
  HybridOptions opt;
};

std::vector<Mode> modes() {
  std::vector<Mode> out;
  const auto with = [&](std::string name, auto&& set) {
    HybridOptions o;
    set(o);
    out.push_back({std::move(name), o});
  };
  const auto policy = [](SchedulerPolicy p) {
    return [p](HybridOptions& o) { o.scheduler.policy = p; };
  };
  with("cpu-only", policy(SchedulerPolicy::kAlwaysCpu));
  with("gpu-only", policy(SchedulerPolicy::kAlwaysGpu));
  with("griffin-ratio", policy(SchedulerPolicy::kRatioThreshold));
  with("griffin-cost", policy(SchedulerPolicy::kCostModel));
  for (const double alpha : {0.0, 0.5, 1.0}) {
    with("split-" + std::to_string(alpha), [&](HybridOptions& o) {
      o.scheduler.policy = SchedulerPolicy::kAlwaysSplit;
      o.scheduler.forced_split_alpha = alpha;
    });
  }
  // Armed faults re-plan steps host-side mid-query; device-heavy policies
  // give them steps to hit.
  with("gpu-faults", [](HybridOptions& o) {
    o.scheduler.policy = SchedulerPolicy::kAlwaysGpu;
    o.faults.gpu.probability = 0.3;
  });
  with("split-gpu-faults", [](HybridOptions& o) {
    o.scheduler.policy = SchedulerPolicy::kAlwaysSplit;
    o.scheduler.forced_split_alpha = 0.5;
    o.faults.gpu.probability = 0.3;
  });
  with("oom-faults", [](HybridOptions& o) {
    o.scheduler.policy = SchedulerPolicy::kAlwaysGpu;
    o.faults.oom.probability = 0.3;
  });
  with("pcie-faults",
       [](HybridOptions& o) { o.faults.pcie.probability = 0.3; });
  return out;
}

}  // namespace

TEST(RankPositions, EveryModeCarriesPositionsAndMatchesTheWalk) {
  const auto& idx = testutil::small_index();
  const auto qs = queries(idx);
  std::vector<std::vector<core::ScoredDoc>> want;
  for (const auto& q : qs) want.push_back(testutil::reference_topk(idx, q));

  for (const Mode& mode : modes()) {
    HybridEngine engine(idx, {}, mode.opt);
    core::RunTotals run;
    for (std::size_t i = 0; i < qs.size(); ++i) {
      const std::string label = mode.name + " q" + std::to_string(i);
      const auto res = engine.execute(qs[i]);
      run.add(res);
      const auto& rows = engine.step_executor().host_rows();
      EXPECT_EQ(rows.size(), res.metrics.result_count) << label;
      testutil::expect_positions(idx, rows, label);
      expect_bit_identical(res.topk, want[i], label);
      testutil::expect_stage_sums(res, label);
    }
    // Each mode ran what its name says.
    if (mode.name.find("faults") != std::string::npos) {
      EXPECT_TRUE(run.faults.any()) << mode.name;
    }
    if (mode.name.rfind("split", 0) == 0) {
      EXPECT_GT(run.trace.split_intersects, 0u) << mode.name;
    }
    if (mode.name == "gpu-only") {
      EXPECT_EQ(run.trace.cpu_intersects, 0u) << mode.name;
    }
  }
}

TEST(RankPositions, BatchedLanesMatchTheWalk) {
  const auto& idx = testutil::small_index();
  const auto qs = queries(idx);
  std::vector<tenancy::TenantQuery> load;
  for (std::size_t i = 0; i < qs.size(); ++i) {
    load.push_back({qs[i], sim::Duration::from_us(5.0 * double(i))});
  }
  for (const bool faults : {false, true}) {
    tenancy::TenancyOptions opt;
    opt.engine.scheduler.policy = SchedulerPolicy::kAlwaysGpu;
    if (faults) opt.engine.faults.gpu.probability = 0.2;
    tenancy::DeviceManager dm(idx, {}, opt);
    const auto results = dm.run(load);
    ASSERT_EQ(results.size(), qs.size());
    std::uint64_t batched = 0;
    for (std::size_t i = 0; i < qs.size(); ++i) {
      for (const auto& r : results[i].result.trace) {
        if (r.batch_group != 0) ++batched;
      }
      expect_bit_identical(results[i].result.topk,
                           testutil::reference_topk(idx, qs[i]),
                           "lanes q" + std::to_string(i));
    }
    if (!faults) {
      EXPECT_GT(batched, 0u);  // the lanes did fuse launches
    }
  }
}
