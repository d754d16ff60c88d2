#include "cluster/result_cache.h"

#include <gtest/gtest.h>

#include <bit>

#include "cluster/broker.h"
#include "core/hybrid_engine.h"
#include "engine_test_util.h"

using namespace griffin;
using cluster::CacheKey;
using cluster::ResultBytes;
using cluster::ResultCache;

namespace {

core::Query make_query(std::vector<index::TermId> terms, std::uint32_t k) {
  core::Query q;
  q.terms = std::move(terms);
  q.k = k;
  return q;
}

std::vector<core::ScoredDoc> docs(std::initializer_list<index::DocId> ids) {
  std::vector<core::ScoredDoc> out;
  for (const auto d : ids) out.push_back({d, static_cast<float>(d)});
  return out;
}

}  // namespace

TEST(ResultCache, PermutedRepeatIsScoredNotServedFromCache) {
  // BM25 sums per-term scores in query order, so a permutation of a cached
  // query can differ in the last score bit: it must get its own entry and
  // the same bits a direct engine run returns.
  const auto& idx = testutil::small_index();
  cluster::ClusterConfig cfg;
  cfg.num_shards = 1;
  cfg.cache_capacity = 16;
  cfg.record_outcomes = true;
  cluster::ClusterBroker broker(idx, cfg);
  const std::vector<core::Query> stream = {make_query({0, 1, 2}, 10),
                                           make_query({2, 0, 1}, 10)};
  const auto res = broker.run(stream);
  ASSERT_EQ(res.outcomes.size(), 2u);
  EXPECT_FALSE(res.outcomes[1].cache_hit);

  cpu::CpuEngine direct(idx);
  for (std::size_t i = 0; i < stream.size(); ++i) {
    const auto want = direct.execute(stream[i]).topk;
    const auto& got = res.outcomes[i].topk;
    ASSERT_EQ(got.size(), want.size()) << "query " << i;
    for (std::size_t r = 0; r < want.size(); ++r) {
      EXPECT_EQ(got[r].doc, want[r].doc) << "query " << i << " rank " << r;
      EXPECT_EQ(std::bit_cast<std::uint32_t>(got[r].score),
                std::bit_cast<std::uint32_t>(want[r].score))
          << "query " << i << " rank " << r;
    }
  }
}

TEST(ResultCache, KeyDistinguishesKTermsAndTermOrder) {
  const auto base = cluster::make_cache_key(make_query({1, 2}, 10));
  EXPECT_NE(base, cluster::make_cache_key(make_query({1, 2}, 20)));
  EXPECT_NE(base, cluster::make_cache_key(make_query({1, 3}, 10)));
  EXPECT_NE(base, cluster::make_cache_key(make_query({2, 1}, 10)));
}

TEST(ResultCache, HitReturnsInsertedResults) {
  ResultCache cache(4, 0);
  const auto key = cluster::make_cache_key(make_query({1, 2}, 10));
  EXPECT_EQ(cache.lookup(key), nullptr);  // miss
  std::uint64_t evicted = 99;
  EXPECT_NE(cache.insert(key, docs({5, 9}), &evicted), nullptr);  // insertion
  EXPECT_EQ(evicted, 0u);
  const auto* hit = cache.lookup(key);  // hit
  ASSERT_NE(hit, nullptr);
  ASSERT_EQ(hit->size(), 2u);
  EXPECT_EQ((*hit)[0].doc, 5u);
}

TEST(ResultCache, EvictsLeastRecentlyUsed) {
  ResultCache cache(2, 0);
  const auto k1 = cluster::make_cache_key(make_query({1}, 10));
  const auto k2 = cluster::make_cache_key(make_query({2}, 10));
  const auto k3 = cluster::make_cache_key(make_query({3}, 10));
  std::uint64_t evicted = 99;
  cache.insert(k1, docs({1}), &evicted);
  EXPECT_EQ(evicted, 0u);
  cache.insert(k2, docs({2}), &evicted);
  EXPECT_EQ(evicted, 0u);
  // Touch k1 so k2 becomes the LRU victim.
  EXPECT_NE(cache.lookup(k1), nullptr);
  cache.insert(k3, docs({3}), &evicted);
  EXPECT_EQ(evicted, 1u);
  EXPECT_EQ(cache.size(), 2u);
  EXPECT_NE(cache.lookup(k1), nullptr);
  EXPECT_EQ(cache.lookup(k2), nullptr);  // evicted
  EXPECT_NE(cache.lookup(k3), nullptr);
}

TEST(ResultCache, ReinsertRefreshesInsteadOfDuplicating) {
  ResultCache cache(2, 0);
  const auto k1 = cluster::make_cache_key(make_query({1}, 10));
  cache.insert(k1, docs({1}));
  std::uint64_t evicted = 99;
  EXPECT_NE(cache.insert(k1, docs({1, 2}), &evicted), nullptr);
  EXPECT_EQ(evicted, 0u);
  EXPECT_EQ(cache.size(), 1u);
  const auto* hit = cache.lookup(k1);
  ASSERT_NE(hit, nullptr);
  EXPECT_EQ(hit->size(), 2u);
}

TEST(ResultCache, ZeroCapacityDisables) {
  ResultCache cache(0, 0);
  const auto k1 = cluster::make_cache_key(make_query({1}, 10));
  EXPECT_EQ(cache.insert(k1, docs({1})), nullptr);  // no insertion
  EXPECT_EQ(cache.size(), 0u);
  EXPECT_EQ(cache.lookup(k1), nullptr);
}

TEST(ResultCache, BytesTrackResidentEntries) {
  ResultCache cache(4, 0);
  EXPECT_EQ(cache.bytes(), 0u);
  const auto k1 = cluster::make_cache_key(make_query({1, 2}, 10));
  const auto d1 = docs({5, 9, 11});
  cache.insert(k1, d1);
  EXPECT_EQ(cache.bytes(), ResultBytes{}(k1, d1));
  // Refreshing with a differently sized top-k re-accounts, not accumulates.
  const auto d2 = docs({5});
  cache.insert(k1, d2);
  EXPECT_EQ(cache.bytes(), ResultBytes{}(k1, d2));
}

TEST(ResultCache, ByteBudgetEvictsLeastRecentlyUsed) {
  const auto k1 = cluster::make_cache_key(make_query({1}, 10));
  const auto k2 = cluster::make_cache_key(make_query({2}, 10));
  const auto k3 = cluster::make_cache_key(make_query({3}, 10));
  const auto entry = docs({1, 2, 3, 4});
  // Room for two entries of this shape, no count bound.
  ResultCache cache(0, ResultBytes{}(k1, entry) * 2);
  EXPECT_TRUE(cache.enabled());
  std::uint64_t evicted = 99;
  cache.insert(k1, entry, &evicted);
  EXPECT_EQ(evicted, 0u);
  cache.insert(k2, entry, &evicted);
  EXPECT_EQ(evicted, 0u);
  cache.insert(k3, entry, &evicted);
  EXPECT_EQ(evicted, 1u);
  EXPECT_EQ(cache.size(), 2u);
  EXPECT_EQ(cache.lookup(k1), nullptr);  // evicted
  EXPECT_NE(cache.lookup(k2), nullptr);
  EXPECT_NE(cache.lookup(k3), nullptr);
  EXPECT_LE(cache.bytes(), cache.byte_budget());
}

TEST(ResultCache, EntryLargerThanBudgetIsDropped) {
  const auto k1 = cluster::make_cache_key(make_query({1}, 10));
  const auto small = docs({1});
  const auto big = docs({1, 2, 3, 4, 5, 6, 7, 8, 9, 10});
  ResultCache cache(0, ResultBytes{}(k1, small) + 8);
  cache.insert(k1, small);
  EXPECT_EQ(cache.size(), 1u);
  const auto k2 = cluster::make_cache_key(make_query({2}, 10));
  cache.insert(k2, big);  // cannot ever fit: dropped, not inserted
  EXPECT_EQ(cache.lookup(k2), nullptr);
  EXPECT_NE(cache.lookup(k1), nullptr);  // existing entry undisturbed
  EXPECT_LE(cache.bytes(), cache.byte_budget());
}

TEST(ResultCache, BrokerCountsEachLookupInsertionAndEviction) {
  // A one-entry result cache over the stream a, a, b, a: a misses and is
  // inserted, hits, b misses and is inserted (evicting a), a misses again
  // and is inserted (evicting b). The broker counts each event once, and
  // cache_hits_served is the same count as cache.hits.
  const auto& idx = testutil::small_index();
  cluster::ClusterConfig cfg;
  cfg.num_shards = 2;
  cfg.cache_capacity = 1;
  cluster::ClusterBroker broker(idx, cfg);
  const auto a = make_query({0, 1}, 10);
  const auto b = make_query({1, 2}, 10);
  const auto res = broker.run({a, a, b, a});
  EXPECT_EQ(res.cache, (util::LruStats{.hits = 1,
                                       .misses = 3,
                                       .insertions = 3,
                                       .evictions = 2}));
  EXPECT_EQ(res.cache_hits_served, 1u);
  EXPECT_EQ(res.gathered_queries, 3u);
}
