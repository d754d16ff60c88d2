// Golden parity: the refactored engines (plan/execute decomposition,
// DESIGN.md §8) must return bit-identical QueryResults — docs, float score
// bits, per-stage durations, placements, cache counters — to the
// pre-refactor per-engine loops. tests/golden_engine_results.inc was
// captured from the pre-refactor engines on the seed workload; any
// divergence here is a behavior change, not a refactor.
//
// Regenerate (after an *intentional* cost-model or engine change) by
// running this binary with GRIFFIN_GOLDEN_CAPTURE set to the .inc path:
//   GRIFFIN_GOLDEN_CAPTURE=tests/golden_engine_results.inc ./test_engine_golden
#include <bit>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/hybrid_engine.h"
#include "engine_test_util.h"

#include "golden_engine_results.inc"

using namespace griffin;

namespace {

std::vector<core::Query> golden_queries(std::uint32_t num_terms) {
  workload::QueryLogConfig qcfg;
  qcfg.num_queries = 24;
  qcfg.seed = 91;
  auto log = workload::generate_query_log(qcfg, num_terms);
  core::Query single;
  single.terms = {5};
  log.push_back(single);
  core::Query pair;
  pair.terms = {10, 12};
  log.push_back(pair);
  core::Query extreme;
  extreme.terms = {static_cast<index::TermId>(num_terms - 1), 0};
  log.push_back(extreme);
  return log;
}

/// One engine execution as a canonical text record: every field a refactor
/// could silently change, including the raw bits of each float score.
std::string record_line(const char* engine, std::size_t qi,
                        const core::QueryResult& r) {
  const auto& m = r.metrics;
  char buf[256];
  std::string out;
  std::snprintf(buf, sizeof(buf),
                "%s|q%zu|rc=%llu|tot=%lld|dec=%lld|int=%lld|tra=%lld|"
                "rank=%lld|k=%llu|mig=%llu|pl=",
                engine, qi, static_cast<unsigned long long>(m.result_count),
                static_cast<long long>(m.total.ps()),
                static_cast<long long>(m.decode.ps()),
                static_cast<long long>(m.intersect.ps()),
                static_cast<long long>(m.transfer.ps()),
                static_cast<long long>(m.rank.ps()),
                static_cast<unsigned long long>(m.gpu_kernels),
                static_cast<unsigned long long>(m.migrations));
  out += buf;
  for (const auto p : testutil::intersect_placements(r)) {
    out += p == core::Placement::kGpu ? 'G'
           : p == core::Placement::kSplit ? 'S'
                                          : 'C';
  }
  std::snprintf(buf, sizeof(buf), "|cache=%llu,%llu,%llu,%llu,%llu,%llu",
                static_cast<unsigned long long>(m.cache.device_hits),
                static_cast<unsigned long long>(m.cache.device_misses),
                static_cast<unsigned long long>(m.cache.device_evictions),
                static_cast<unsigned long long>(m.cache.host_hits),
                static_cast<unsigned long long>(m.cache.host_misses),
                static_cast<unsigned long long>(m.cache.host_evictions));
  out += buf;
  std::snprintf(buf, sizeof(buf), "|ov=%lld,%llu,%llu,%llu|topk=",
                static_cast<long long>(m.overlap.saved.ps()),
                static_cast<unsigned long long>(m.overlap.prefetch_issued),
                static_cast<unsigned long long>(m.overlap.prefetch_used),
                static_cast<unsigned long long>(m.overlap.prefetch_dropped));
  out += buf;
  for (const auto& d : r.topk) {
    std::snprintf(buf, sizeof(buf), "%u:%08x;", d.doc,
                  std::bit_cast<std::uint32_t>(d.score));
    out += buf;
  }
  return out;
}

/// The five engine configurations the golden file covers, executed in the
/// capture order over the golden log.
std::vector<std::string> run_golden_workload() {
  const auto& idx = testutil::small_index();
  const auto log =
      golden_queries(static_cast<std::uint32_t>(idx.num_terms()));
  std::vector<std::string> lines;
  {
    cpu::CpuEngine e(idx);
    for (std::size_t i = 0; i < log.size(); ++i)
      lines.push_back(record_line("cpu", i, e.execute(log[i])));
  }
  {
    gpu::GpuEngine e(idx);
    for (std::size_t i = 0; i < log.size(); ++i)
      lines.push_back(record_line("gpu", i, e.execute(log[i])));
  }
  {
    core::HybridEngine e(idx);
    for (std::size_t i = 0; i < log.size(); ++i)
      lines.push_back(record_line("griffin", i, e.execute(log[i])));
  }
  {
    core::HybridOptions opt;
    opt.scheduler.policy = core::SchedulerPolicy::kCostModel;
    core::HybridEngine e(idx, {}, opt);
    for (std::size_t i = 0; i < log.size(); ++i)
      lines.push_back(record_line("griffin-cost", i, e.execute(log[i])));
  }
  {
    core::HybridOptions opt;
    opt.scheduler.policy = core::SchedulerPolicy::kAlwaysCpu;
    core::HybridEngine e(idx, {}, opt);
    for (std::size_t i = 0; i < log.size(); ++i)
      lines.push_back(record_line("griffin-always-cpu", i, e.execute(log[i])));
  }
  return lines;
}

}  // namespace

TEST(EngineGolden, BitIdenticalToPreRefactorCapture) {
  const auto lines = run_golden_workload();

  if (const char* out = std::getenv("GRIFFIN_GOLDEN_CAPTURE")) {
    std::FILE* f = std::fopen(out, "w");
    ASSERT_NE(f, nullptr) << "cannot open " << out;
    std::fprintf(f,
                 "// Pre-refactor engine results on the golden workload "
                 "(generated by the\n// capture mode of "
                 "tests/test_engine_golden.cpp; do not edit by hand).\n"
                 "// clang-format off\n"
                 "inline const char* const kGoldenEngineResults[] = {\n");
    for (const auto& l : lines) std::fprintf(f, "    \"%s\",\n", l.c_str());
    std::fprintf(f, "};\n// clang-format on\n");
    std::fclose(f);
    GTEST_SKIP() << "captured " << lines.size() << " records to " << out;
  }

  constexpr std::size_t kGoldenCount =
      sizeof(kGoldenEngineResults) / sizeof(kGoldenEngineResults[0]);
  ASSERT_EQ(lines.size(), kGoldenCount);
  for (std::size_t i = 0; i < kGoldenCount; ++i) {
    EXPECT_EQ(lines[i], kGoldenEngineResults[i]) << "golden record " << i;
  }
}
