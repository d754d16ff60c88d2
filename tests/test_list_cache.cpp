// The device-resident posting-list cache (DESIGN.md §7): the generic
// byte-budgeted LRU it is built on, and the GpuEngine integration — caching
// is a pure cost optimization, so results must be bit-identical with the
// cache on, off, cold, warm, and under eviction pressure.
#include "util/lru_cache.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "core/hybrid_engine.h"
#include "engine_test_util.h"

using namespace griffin;

namespace {

/// A test value that carries its own resident size, so each case below
/// states its byte arithmetic directly.
struct Sized {
  std::string s;
  std::uint64_t bytes = 0;
};
struct SizedBytes {
  std::uint64_t operator()(int /*key*/, const Sized& v) const {
    return v.bytes;
  }
};
using IntCache = util::ByteLruCache<int, Sized, SizedBytes>;

}  // namespace

TEST(ByteLruCache, LookupRefreshesRecencyAndByteBudgetEvictsTail) {
  IntCache cache(0, 100);
  cache.insert(1, {"a", 40});
  cache.insert(2, {"b", 40});
  ASSERT_NE(cache.lookup(1), nullptr);  // 1 is now most recent
  // 40+40+40 > 100: evicts the LRU tail, which is 2 (not 1).
  std::uint64_t evicted = 0;
  cache.insert(3, {"c", 40}, &evicted);
  EXPECT_EQ(evicted, 1u);
  EXPECT_EQ(cache.lookup(2), nullptr);
  EXPECT_NE(cache.lookup(1), nullptr);
  EXPECT_NE(cache.lookup(3), nullptr);
  EXPECT_EQ(cache.bytes(), 80u);
  EXPECT_EQ(cache.size(), 2u);
}

TEST(ByteLruCache, OversizedEntryIsDroppedNotInserted) {
  IntCache cache(0, 100);
  cache.insert(1, {"small", 60});
  EXPECT_FALSE(cache.fits(2, {"huge", 101}));
  EXPECT_EQ(cache.insert(2, {"huge", 101}), nullptr);
  // The oversized insert neither stored the entry nor disturbed the rest.
  EXPECT_EQ(cache.lookup(2), nullptr);
  EXPECT_NE(cache.lookup(1), nullptr);
  EXPECT_EQ(cache.bytes(), 60u);
}

TEST(ByteLruCache, EntryCountBoundEvicts) {
  IntCache cache(2, 0);
  cache.insert(1, {"a", 1});
  cache.insert(2, {"b", 1});
  cache.insert(3, {"c", 1});
  EXPECT_EQ(cache.size(), 2u);
  EXPECT_EQ(cache.lookup(1), nullptr);  // oldest gone
  EXPECT_NE(cache.lookup(2), nullptr);
  EXPECT_NE(cache.lookup(3), nullptr);
}

TEST(ByteLruCache, DisabledCacheStoresNothing) {
  IntCache cache(0, 0);
  EXPECT_FALSE(cache.enabled());
  EXPECT_FALSE(cache.fits(1, {"a", 1}));
  EXPECT_EQ(cache.insert(1, {"a", 1}), nullptr);
  EXPECT_EQ(cache.lookup(1), nullptr);
  EXPECT_EQ(cache.size(), 0u);
}

TEST(ByteLruCache, ReplaceUpdatesBytesAndKeepsSingleEntry) {
  IntCache cache(0, 100);
  cache.insert(1, {"a", 30});
  cache.insert(1, {"bigger", 70});
  EXPECT_EQ(cache.size(), 1u);
  EXPECT_EQ(cache.bytes(), 70u);
  EXPECT_EQ(cache.lookup(1)->s, "bigger");
}

TEST(ByteLruCache, ReturnsReportHitsMissesInsertionsEvictions) {
  // The cache counts nothing; its owner counts from these returns.
  IntCache cache(1, 0);
  EXPECT_EQ(cache.lookup(7), nullptr);  // miss
  std::uint64_t evicted = 99;
  EXPECT_NE(cache.insert(7, {"a", 1}, &evicted), nullptr);  // insertion
  EXPECT_EQ(evicted, 0u);
  EXPECT_NE(cache.lookup(7), nullptr);  // hit
  EXPECT_NE(cache.insert(8, {"b", 1}, &evicted), nullptr);  // insertion...
  EXPECT_EQ(evicted, 1u);                                   // ...evicting 7
  EXPECT_EQ(cache.lookup(7), nullptr);

  // The memory-pressure valve reports the entries and bytes it freed.
  std::uint64_t entries = 0;
  EXPECT_EQ(cache.evict_bytes(1, &entries), 1u);  // 8 held one byte
  EXPECT_EQ(entries, 1u);
  EXPECT_EQ(cache.size(), 0u);
}

TEST(ByteLruCache, ResidentDoesNotTouchRecency) {
  IntCache cache(0, 100);
  cache.insert(1, {"a", 40});
  cache.insert(2, {"b", 40});
  ASSERT_TRUE(cache.resident(1));  // no recency refresh...
  cache.insert(3, {"c", 40});
  EXPECT_FALSE(cache.resident(1));  // ...so 1 was still the LRU tail
}

TEST(ByteLruCache, SizesTheValueItStores) {
  // 8 bytes per element: the size is read off the value the cache stores,
  // after the caller has moved it in.
  struct VectorBytes {
    std::uint64_t operator()(int /*key*/, const std::vector<int>& v) const {
      return 8 * v.size();
    }
  };
  util::ByteLruCache<int, std::vector<int>, VectorBytes> cache(0, 100);
  std::vector<int> five(5, 1);
  const std::vector<int>* stored = cache.insert(1, std::move(five));
  ASSERT_NE(stored, nullptr);
  EXPECT_EQ(stored->size(), 5u);
  EXPECT_EQ(cache.bytes(), 40u);

  // 13 elements = 104 bytes: over the whole budget, so the insert returns
  // nullptr and the resident bytes do not move.
  std::vector<int> thirteen(13, 2);
  EXPECT_FALSE(cache.fits(2, thirteen));
  EXPECT_EQ(cache.insert(2, std::move(thirteen)), nullptr);
  EXPECT_EQ(cache.bytes(), 40u);
  EXPECT_FALSE(cache.resident(2));
  EXPECT_TRUE(cache.resident(1));
}

// ---- GpuEngine integration ----

namespace {

/// Exact comparison: caching must not perturb a single bit of the output.
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
  rep.seed = 99;
  return workload::generate_repeated_query_log(base, rep, num_terms);
}

}  // namespace

TEST(GpuListCache, BitIdenticalColdWarmAndDisabled) {
  const auto& idx = testutil::small_index();
  gpu::GpuOptions off;
  off.list_cache_bytes = 0;
  gpu::GpuEngine uncached(idx, {}, off);
  gpu::GpuEngine cached(idx);  // cache on by default

  const auto log = repeated_log(static_cast<std::uint32_t>(idx.num_terms()));
  core::CacheCounters totals;
  for (const auto& q : log) {
    const auto want = uncached.execute(q);
    const auto got = cached.execute(q);  // cold first time, warm on repeats
    expect_bit_identical(got.topk, want.topk, "gpu-list-cache");
    EXPECT_EQ(got.metrics.result_count, want.metrics.result_count);
    totals += got.metrics.cache;
    EXPECT_EQ(want.metrics.cache.device_hits, 0u);  // cache off: no counters
    EXPECT_EQ(want.metrics.cache.device_misses, 0u);
  }
  // The Zipf-repeated stream must actually warm the cache.
  EXPECT_GT(totals.device_hits, 0u);
  EXPECT_GT(totals.device_misses, 0u);
}

TEST(GpuListCache, WarmQueryIsCheaperAndHitsEveryList) {
  const auto& idx = testutil::small_index();
  gpu::GpuEngine engine(idx);
  core::Query q;
  q.terms = {0, 1, 5};  // heavy lists: upload cost matters

  const auto cold = engine.execute(q);
  const auto warm = engine.execute(q);
  expect_bit_identical(warm.topk, cold.topk, "warm-vs-cold");
  // Warm run: every list the GPU decode path touches is resident, so the
  // transfer stage (upload + alloc) drops and total time strictly shrinks.
  EXPECT_GT(warm.metrics.cache.device_hits, 0u);
  EXPECT_LT(warm.metrics.transfer.ps(), cold.metrics.transfer.ps());
  EXPECT_LT(warm.metrics.total.ps(), cold.metrics.total.ps());
}

TEST(GpuListCache, EvictionUnderPressureStaysCorrect) {
  const auto& idx = testutil::small_index();
  gpu::GpuOptions tight;
  // Budget of 64 KiB: a few lists at most, so a varied stream churns.
  tight.list_cache_bytes = std::uint64_t{64} << 10;
  gpu::GpuEngine cached(idx, {}, tight);
  gpu::GpuOptions off;
  off.list_cache_bytes = 0;
  gpu::GpuEngine uncached(idx, {}, off);

  const auto log = repeated_log(static_cast<std::uint32_t>(idx.num_terms()));
  core::CacheCounters totals;
  for (const auto& q : log) {
    const auto got = cached.execute(q);
    const auto want = uncached.execute(q);
    expect_bit_identical(got.topk, want.topk, "post-eviction");
    totals += got.metrics.cache;
    // The budget holds at every step, not just at the end.
    EXPECT_LE(cached.executor().list_cache().bytes(),
              cached.executor().list_cache().byte_budget());
  }
  EXPECT_GT(totals.device_evictions, 0u);
  EXPECT_GT(totals.device_hits, 0u);  // the hot head still hits
}

TEST(GpuListCache, ZeroBudgetDisables) {
  const auto& idx = testutil::small_index();
  gpu::GpuOptions budgeted;
  budgeted.list_cache_bytes = std::uint64_t{3} << 20;
  const gpu::GpuEngine sized(idx, {}, budgeted);
  EXPECT_TRUE(sized.executor().list_cache().enabled());
  EXPECT_EQ(sized.executor().list_cache().byte_budget(),
            budgeted.list_cache_bytes);

  gpu::GpuOptions opt;
  opt.list_cache_bytes = 0;
  gpu::GpuEngine engine(idx, {}, opt);
  EXPECT_FALSE(engine.executor().list_cache().enabled());
  core::Query q;
  q.terms = {1, 2};
  const auto res = engine.execute(q);
  EXPECT_EQ(res.metrics.cache.device_hits, 0u);
  EXPECT_EQ(res.metrics.cache.device_misses, 0u);
}
