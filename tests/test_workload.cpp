#include "workload/corpus.h"
#include "workload/querylog.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <map>

using namespace griffin;

TEST(Workload, UniformListIsStrictlyIncreasingAndExactSize) {
  util::Xoshiro256 rng(1);
  for (const std::uint64_t n : {1ull, 100ull, 10'000ull}) {
    const auto docs = workload::make_uniform_list(n, 1'000'000, rng);
    ASSERT_EQ(docs.size(), n);
    for (std::size_t i = 1; i < docs.size(); ++i) {
      ASSERT_GT(docs[i], docs[i - 1]);
    }
    EXPECT_LT(docs.back(), 1'000'000u);
  }
}

TEST(Workload, DenseListPath) {
  util::Xoshiro256 rng(2);
  const auto docs = workload::make_uniform_list(6000, 10'000, rng);
  ASSERT_EQ(docs.size(), 6000u);
  for (std::size_t i = 1; i < docs.size(); ++i) ASSERT_GT(docs[i], docs[i - 1]);
}

TEST(Workload, PairWithRatioHasRequestedShape) {
  util::Xoshiro256 rng(3);
  const auto pair =
      workload::make_pair_with_ratio(100'000, 50.0, 10'000'000, 0.4, rng);
  const double ratio = static_cast<double>(pair.longer.size()) /
                       static_cast<double>(pair.shorter.size());
  EXPECT_NEAR(ratio, 50.0, 5.0);
  // Containment: a healthy fraction of the shorter list intersects.
  std::vector<index::DocId> matches;
  std::set_intersection(pair.shorter.begin(), pair.shorter.end(),
                        pair.longer.begin(), pair.longer.end(),
                        std::back_inserter(matches));
  const double contained = static_cast<double>(matches.size()) /
                           static_cast<double>(pair.shorter.size());
  EXPECT_GT(contained, 0.25);
  EXPECT_LT(contained, 0.55);
}

TEST(Workload, ListSizesFollowConfiguredDecay) {
  const workload::CorpusConfig cfg;
  EXPECT_EQ(workload::list_size_for_rank(cfg, 1),
            static_cast<std::uint64_t>(cfg.num_docs / cfg.max_list_divisor));
  // Monotone non-increasing in rank, floored at min_list_size.
  std::uint64_t prev = workload::list_size_for_rank(cfg, 1);
  for (std::uint32_t r = 2; r < 2000; r *= 3) {
    const auto s = workload::list_size_for_rank(cfg, r);
    EXPECT_LE(s, prev);
    EXPECT_GE(s, cfg.min_list_size);
    prev = s;
  }
}

TEST(Workload, GeneratedCorpusMatchesConfig) {
  workload::CorpusConfig cfg;
  cfg.num_docs = 50'000;
  cfg.num_terms = 100;
  cfg.seed = 5;
  const auto idx = workload::generate_corpus(cfg);
  EXPECT_EQ(idx.num_terms(), 100u);
  EXPECT_EQ(idx.docs().num_docs(), 50'000u);
  EXPECT_GT(idx.docs().avg_length(), 100.0);
  for (index::TermId t = 0; t < 100; t += 13) {
    EXPECT_EQ(idx.list(t).size(), workload::list_size_for_rank(cfg, t + 1));
    // tf values populated and plausible.
    EXPECT_GE(idx.list(t).tf_at(0), 1u);
    EXPECT_LE(idx.list(t).tf_at(0), 50u);
  }
  // Compression ratio lands in the plausible web-corpus zone (Table 1's
  // exact values depend on the real data; direction and magnitude match).
  EXPECT_GT(idx.compression_ratio(), 2.0);
  EXPECT_LT(idx.compression_ratio(), 16.0);
}

TEST(Workload, CorpusIsDeterministicPerSeed) {
  workload::CorpusConfig cfg;
  cfg.num_docs = 20'000;
  cfg.num_terms = 30;
  const auto a = workload::generate_corpus(cfg);
  const auto b = workload::generate_corpus(cfg);
  std::vector<index::DocId> da, db;
  a.list(7).docids.decode_all(da);
  b.list(7).docids.decode_all(db);
  EXPECT_EQ(da, db);
}

TEST(Workload, CorrelatedListsOverlapFarMoreThanUniform) {
  util::Xoshiro256 rng(13);
  // A shared shuffled topic order of 100K docs inside a 1M universe.
  std::vector<index::DocId> order(100'000);
  for (index::DocId d = 0; d < order.size(); ++d) order[d] = 500'000 + d;
  for (std::size_t i = order.size(); i > 1; --i) {
    std::swap(order[i - 1], order[rng.bounded(i)]);
  }
  const auto a =
      workload::make_correlated_list(30'000, 1'000'000, order, 0.6, rng);
  const auto b =
      workload::make_correlated_list(40'000, 1'000'000, order, 0.6, rng);
  const auto u1 = workload::make_uniform_list(30'000, 1'000'000, rng);
  const auto u2 = workload::make_uniform_list(40'000, 1'000'000, rng);

  auto overlap = [](const std::vector<index::DocId>& x,
                    const std::vector<index::DocId>& y) {
    std::vector<index::DocId> m;
    std::set_intersection(x.begin(), x.end(), y.begin(), y.end(),
                          std::back_inserter(m));
    return m.size();
  };
  const auto corr = overlap(a, b);
  const auto unif = overlap(u1, u2);
  // Correlated overlap ~ 0.5 * affinity * min(n) = ~9K; uniform ~ 1.2K.
  EXPECT_GT(corr, unif * 4);
  EXPECT_GT(corr, 5'000u);
  // Shapes are still valid lists.
  ASSERT_EQ(a.size(), 30'000u);
  for (std::size_t i = 1; i < a.size(); ++i) ASSERT_GT(a[i], a[i - 1]);
}

TEST(Workload, TopicalCorpusKeepsIntersectionsLarge) {
  workload::CorpusConfig cfg;
  cfg.num_docs = 200'000;
  cfg.num_terms = 64;
  cfg.num_topics = 8;
  cfg.topic_affinity = 0.6;
  cfg.seed = 3;
  const auto idx = workload::generate_corpus(cfg);
  // Terms 8 and 16 share topic 0 with term 0; term 9 does not.
  std::vector<index::DocId> t8, t16, t9;
  idx.list(8).docids.decode_all(t8);
  idx.list(16).docids.decode_all(t16);
  idx.list(9).docids.decode_all(t9);
  auto overlap = [](const std::vector<index::DocId>& x,
                    const std::vector<index::DocId>& y) {
    std::vector<index::DocId> m;
    std::set_intersection(x.begin(), x.end(), y.begin(), y.end(),
                          std::back_inserter(m));
    return m.size();
  };
  EXPECT_GT(overlap(t8, t16), 3 * overlap(t8, t9));
}

namespace {

// FNV-1a over 32-bit values, low byte first.
struct Fnv1a {
  std::uint64_t h = 1469598103934665603ull;
  void add(std::uint32_t v) {
    for (int i = 0; i < 4; ++i) {
      h ^= (v >> (8 * i)) & 0xffu;
      h *= 1099511628211ull;
    }
  }
};

// Every document length, then every term's docIDs and tfs.
std::uint64_t corpus_digest(const index::InvertedIndex& idx) {
  Fnv1a f;
  for (index::DocId d = 0; d < idx.docs().num_docs(); ++d) {
    f.add(idx.docs().length(d));
  }
  std::vector<index::DocId> docs;
  for (index::TermId t = 0; t < idx.num_terms(); ++t) {
    const auto& pl = idx.list(t);
    pl.docids.decode_all(docs);
    for (std::size_t i = 0; i < docs.size(); ++i) {
      f.add(docs[i]);
      f.add(pl.tf_at(i));
    }
  }
  return f.h;
}

}  // namespace

// The generators' output is pinned bit for bit: how they merge and
// de-duplicate may change, the lists they return may not. The configs reach
// the dense (Bernoulli) path, the sparse (sample-sort) path and the top-up
// rounds of make_uniform_list, the correlated strata merges, and
// make_pair_with_ratio.
TEST(Workload, GeneratorsMatchPinnedDigests) {
  workload::CorpusConfig topical;
  topical.num_docs = 20'000;
  topical.num_terms = 300;
  topical.num_topics = 8;
  topical.seed = 7;
  workload::CorpusConfig flat = topical;
  flat.num_topics = 1;  // independent lists: make_uniform_list per term
  flat.seed = 8;
  EXPECT_EQ(corpus_digest(workload::generate_corpus(topical)),
            0xfb259a5e9fda8f28ull);
  EXPECT_EQ(corpus_digest(workload::generate_corpus(flat)),
            0xda0a3daa97e4abceull);

  util::Xoshiro256 rng(9);
  Fnv1a lists;
  for (const double ratio : {1.0, 8.0}) {
    const auto pair =
        workload::make_pair_with_ratio(12'000, ratio, 40'000, 0.4, rng);
    for (const auto d : pair.longer) lists.add(d);
    for (const auto d : pair.shorter) lists.add(d);
  }
  EXPECT_EQ(lists.h, 0x694f7f158877e971ull);
}

TEST(QueryLog, TopicalQueriesDrawFromOneTopic) {
  workload::QueryLogConfig cfg;
  cfg.num_queries = 300;
  cfg.num_topics = 8;
  cfg.topical_fraction = 1.0;
  const auto log = workload::generate_query_log(cfg, 800);
  for (const auto& q : log) {
    const auto topic = q.terms[0] % 8;
    for (const auto t : q.terms) {
      EXPECT_EQ(t % 8, topic) << "query " << q.id;
    }
  }
}

TEST(QueryLog, TermCountDistributionMatchesFigure11) {
  workload::QueryLogConfig cfg;
  cfg.num_queries = 20'000;
  const auto log = workload::generate_query_log(cfg, 5000);
  ASSERT_EQ(log.size(), cfg.num_queries);

  std::map<std::size_t, int> hist;
  for (const auto& q : log) ++hist[q.terms.size()];
  const auto dist = workload::term_count_distribution();
  EXPECT_NEAR(hist[2] / 20'000.0, dist[0], 0.02);  // ~27%
  EXPECT_NEAR(hist[3] / 20'000.0, dist[1], 0.02);  // ~33%
  EXPECT_NEAR(hist[4] / 20'000.0, dist[2], 0.02);  // ~24%
  EXPECT_GT(hist[5] + hist[6] + hist[7] + hist[8], 0);
}

TEST(QueryLog, TermsAreDistinctAndInRange) {
  workload::QueryLogConfig cfg;
  cfg.num_queries = 500;
  const auto log = workload::generate_query_log(cfg, 300);
  for (const auto& q : log) {
    for (std::size_t i = 0; i < q.terms.size(); ++i) {
      EXPECT_LT(q.terms[i], 300u);
      for (std::size_t j = i + 1; j < q.terms.size(); ++j) {
        EXPECT_NE(q.terms[i], q.terms[j]);
      }
    }
  }
}

TEST(QueryLog, QueriesSkewTowardFrequentTerms) {
  workload::QueryLogConfig cfg;
  cfg.num_queries = 5000;
  const auto log = workload::generate_query_log(cfg, 10'000);
  int head = 0, total = 0;
  for (const auto& q : log) {
    for (const auto t : q.terms) {
      head += (t < 100);
      ++total;
    }
  }
  // With Zipf-biased term picks, the top 1% of terms takes far more than 1%
  // of the occurrences.
  EXPECT_GT(static_cast<double>(head) / total, 0.10);
}

TEST(RepeatedQueryLog, StreamDrawsFromPoolWithZipfHead) {
  workload::QueryLogConfig base;
  base.seed = 21;
  workload::RepeatedLogConfig rep;
  rep.num_queries = 3000;
  rep.unique_queries = 100;
  rep.popularity_zipf_s = 1.1;
  rep.seed = 22;
  const auto stream = workload::generate_repeated_query_log(base, rep, 500);

  ASSERT_EQ(stream.size(), rep.num_queries);
  // Ids are stream positions; term sets come from a pool of <= 100 queries.
  std::map<std::vector<index::TermId>, int> freq;
  for (std::size_t i = 0; i < stream.size(); ++i) {
    EXPECT_EQ(stream[i].id, i);
    auto terms = stream[i].terms;
    std::sort(terms.begin(), terms.end());
    ++freq[terms];
  }
  EXPECT_LE(freq.size(), 100u);
  EXPECT_GT(freq.size(), 10u);  // the tail is represented too

  // Zipf popularity: the hottest query dwarfs the uniform share (30/query).
  int hottest = 0;
  for (const auto& [terms, n] : freq) hottest = std::max(hottest, n);
  EXPECT_GT(hottest, 120);
}

TEST(RepeatedQueryLog, DeterministicPerSeed) {
  workload::QueryLogConfig base;
  workload::RepeatedLogConfig rep;
  rep.num_queries = 200;
  rep.unique_queries = 40;
  const auto a = workload::generate_repeated_query_log(base, rep, 300);
  const auto b = workload::generate_repeated_query_log(base, rep, 300);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].terms, b[i].terms);
  }
}
