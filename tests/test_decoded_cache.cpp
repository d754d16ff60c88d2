// The host decoded-postings cache (DESIGN.md §7): unit behavior of the
// DecodedCache type, and the CpuEngine / HybridEngine integration —
// results must be bit-identical with the cache on, off, cold, warm, and
// while a tiny budget forces evictions.
#include "cpu/decoded_cache.h"

#include <gtest/gtest.h>

#include <vector>

#include "core/hybrid_engine.h"
#include "cpu/engine.h"
#include "engine_test_util.h"

using namespace griffin;

namespace {

/// The host cache's footprint of a decoded list of n postings.
std::uint64_t decoded_bytes(std::size_t n) {
  return cpu::DecodedBytes{}(0, std::vector<codec::DocId>(n));
}

}  // namespace

TEST(DecodedCache, InsertLookupAndByteAccounting) {
  cpu::DecodedCache cache(0, decoded_bytes(10) * 2);
  EXPECT_TRUE(cache.enabled());
  std::vector<codec::DocId> docs{1, 2, 3};
  ASSERT_NE(cache.insert(7, docs), nullptr);
  EXPECT_EQ(cache.bytes(), decoded_bytes(3));
  ASSERT_NE(cache.lookup(7), nullptr);
  EXPECT_EQ(*cache.lookup(7), docs);
  EXPECT_TRUE(cache.resident(7));
  EXPECT_FALSE(cache.resident(8));
}

TEST(DecodedCache, TinyBudgetEvictsLeastRecent) {
  // Room for two 8-element lists, not three.
  cpu::DecodedCache cache(0, decoded_bytes(8) * 2);
  const std::vector<codec::DocId> docs(8, 42);
  std::uint64_t evicted = 0;
  cache.insert(1, docs);
  cache.insert(2, docs);
  cache.insert(3, docs, &evicted);
  EXPECT_EQ(evicted, 1u);
  EXPECT_FALSE(cache.resident(1));
  EXPECT_TRUE(cache.resident(2));
  EXPECT_TRUE(cache.resident(3));
  EXPECT_LE(cache.bytes(), cache.byte_budget());
}

TEST(DecodedCache, ZeroBudgetDisables) {
  cpu::DecodedCache cache(0, 0);
  EXPECT_FALSE(cache.enabled());
  EXPECT_EQ(cache.insert(1, std::vector<codec::DocId>{1}), nullptr);
  EXPECT_FALSE(cache.resident(1));
}

// ---- Engine integration ----

namespace {

void expect_bit_identical(const std::vector<core::ScoredDoc>& got,
                          const std::vector<core::ScoredDoc>& want,
                          const char* label) {
  ASSERT_EQ(got.size(), want.size()) << label;
  for (std::size_t i = 0; i < want.size(); ++i) {
    EXPECT_EQ(got[i].doc, want[i].doc) << label << " rank " << i;
    EXPECT_EQ(got[i].score, want[i].score) << label << " rank " << i;
  }
}

std::vector<core::Query> repeated_log(std::uint32_t num_terms) {
  workload::QueryLogConfig base;
  workload::RepeatedLogConfig rep;
  rep.num_queries = 60;
  rep.unique_queries = 12;
  rep.popularity_zipf_s = 1.2;
  rep.seed = 31;
  return workload::generate_repeated_query_log(base, rep, num_terms);
}

cpu::CpuEngineOptions cpu_opts(std::size_t cache_bytes) {
  cpu::CpuEngineOptions opt;
  opt.decoded_cache_bytes = cache_bytes;
  // Put the stream on the skip path, where the cache fills (the merge path
  // is deliberately lookup-only; cpu/svs_step.h).
  opt.skip_ratio = 1.0;
  return opt;
}

}  // namespace

TEST(CpuDecodedCache, BitIdenticalColdWarmAndDisabled) {
  const auto& idx = testutil::small_index();
  cpu::CpuEngine uncached(idx, {}, cpu_opts(0));
  cpu::CpuEngine cached(idx, {}, cpu_opts(std::size_t{1} << 30));

  const auto log = repeated_log(static_cast<std::uint32_t>(idx.num_terms()));
  core::CacheCounters totals;
  for (const auto& q : log) {
    const auto want = uncached.execute(q);
    const auto got = cached.execute(q);
    expect_bit_identical(got.topk, want.topk, "cpu-decoded-cache");
    EXPECT_EQ(got.metrics.result_count, want.metrics.result_count);
    totals += got.metrics.cache;
    EXPECT_EQ(want.metrics.cache.host_hits, 0u);  // cache off: no counters
    EXPECT_EQ(want.metrics.cache.host_misses, 0u);
  }
  EXPECT_GT(totals.host_hits, 0u);
  EXPECT_GT(totals.host_misses, 0u);
}

TEST(CpuDecodedCache, WarmRepeatIsNoSlowerAndHits) {
  const auto& idx = testutil::small_index();
  cpu::CpuEngine engine(idx, {}, cpu_opts(std::size_t{1} << 30));
  core::Query q;
  q.terms = {3, 200};  // short probe list vs long target: skip path

  const auto cold = engine.execute(q);
  const auto warm = engine.execute(q);
  expect_bit_identical(warm.topk, cold.topk, "warm-vs-cold");
  EXPECT_GT(warm.metrics.cache.host_hits, 0u);
  // The warm probe list skips its decode; total time cannot grow.
  EXPECT_LE(warm.metrics.total.ps(), cold.metrics.total.ps());
}

TEST(CpuDecodedCache, SingleTermQueryWarmsAndReuses) {
  const auto& idx = testutil::small_index();
  cpu::CpuEngine engine(idx, {}, cpu_opts(std::size_t{1} << 30));
  core::Query q;
  q.terms = {50};

  const auto cold = engine.execute(q);
  EXPECT_EQ(cold.metrics.cache.host_hits, 0u);
  EXPECT_GT(cold.metrics.cache.host_misses, 0u);
  const auto warm = engine.execute(q);
  expect_bit_identical(warm.topk, cold.topk, "single-term");
  EXPECT_GT(warm.metrics.cache.host_hits, 0u);
  EXPECT_LT(warm.metrics.decode.ps(), cold.metrics.decode.ps());
}

TEST(CpuDecodedCache, EvictionUnderPressureStaysCorrect) {
  const auto& idx = testutil::small_index();
  // Each query {0, t} sorts t first (term 0 has the biggest list), so t is
  // the probe list the cache fills. Budget sized from the actual lists to
  // hold roughly two of the four probes: cycling through all four must
  // evict, and the re-visit at the end runs post-eviction.
  const index::TermId probes[] = {100, 150, 200, 250};
  std::uint64_t budget = 0;
  for (const auto t : probes) {
    budget += decoded_bytes(idx.list(t).size());
  }
  budget /= 2;
  cpu::CpuEngine cached(idx, {}, cpu_opts(budget));
  cpu::CpuEngine uncached(idx, {}, cpu_opts(0));

  core::CacheCounters totals;
  for (int round = 0; round < 3; ++round) {
    for (const auto t : probes) {
      core::Query q;
      q.terms = {0, t};
      const auto got = cached.execute(q);
      const auto want = uncached.execute(q);
      expect_bit_identical(got.topk, want.topk, "post-eviction");
      totals += got.metrics.cache;
      EXPECT_LE(cached.decoded_cache().bytes(),
                cached.decoded_cache().byte_budget());
    }
  }
  EXPECT_GT(totals.host_evictions, 0u);
}

TEST(HybridDecodedCache, BitIdenticalWithBothTiersOnAndOff) {
  const auto& idx = testutil::small_index();
  core::HybridOptions off;
  off.gpu.list_cache_bytes = 0;
  off.cpu.decoded_cache_bytes = 0;
  core::HybridEngine uncached(idx, {}, off);
  core::HybridEngine cached(idx);  // both tiers on by default

  const auto log = repeated_log(static_cast<std::uint32_t>(idx.num_terms()));
  for (const auto& q : log) {
    const auto want = uncached.execute(q);
    const auto got = cached.execute(q);
    expect_bit_identical(got.topk, want.topk, "hybrid-caches");
    EXPECT_EQ(got.metrics.result_count, want.metrics.result_count);
  }
}
