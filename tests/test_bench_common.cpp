// The benches' shared helpers (bench/bench_common.h): the corpus cache key
// must separate every pair of configs that build different corpora.
#include "../bench/bench_common.h"

#include <gtest/gtest.h>

using namespace griffin;

TEST(CorpusCacheKey, EveryFieldSeparatesConfigs) {
  const workload::CorpusConfig base;
  const std::string key = bench::corpus_cache_key(base);
  EXPECT_EQ(key, bench::corpus_cache_key(base));

  // Topic structure alone changes the corpus, so it must change the key.
  workload::CorpusConfig topics = base;
  topics.num_topics = base.num_topics + 1;
  EXPECT_NE(key, bench::corpus_cache_key(topics));
  workload::CorpusConfig affinity = base;
  affinity.topic_affinity = base.topic_affinity + 0.25;
  EXPECT_NE(key, bench::corpus_cache_key(affinity));

  // Doubles are written at round-trip precision: a difference below the
  // third decimal still separates the keys.
  workload::CorpusConfig zipf = base;
  zipf.zipf_s = base.zipf_s + 1e-9;
  EXPECT_NE(key, bench::corpus_cache_key(zipf));
  workload::CorpusConfig divisor = base;
  divisor.max_list_divisor = base.max_list_divisor + 1e-9;
  EXPECT_NE(key, bench::corpus_cache_key(divisor));
  workload::CorpusConfig tiny_affinity = base;
  tiny_affinity.topic_affinity = base.topic_affinity + 1e-9;
  EXPECT_NE(key, bench::corpus_cache_key(tiny_affinity));
}
