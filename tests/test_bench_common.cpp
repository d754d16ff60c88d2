// The benches' shared helpers (bench/bench_common.h): the corpus cache key
// must separate every pair of configs that build different corpora, and a
// trace line must carry everything Scheduler::decide(shape) reads.
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

TEST(StepJson, IntersectLineCarriesTheWholeShape) {
  core::StepRecord r;
  r.kind = core::StepKind::kIntersect;
  r.placement = core::Placement::kSplit;
  r.shape.shorter = 10;
  r.shape.terms = 3;
  r.shape.longer = 5000;
  r.shape.longer_bytes = 1234;
  r.shape.longer_density = 0.25;
  r.shape.longer_scheme = codec::Scheme::kPForDelta;
  r.shape.longer_device_resident = true;
  r.shape.longer_host_decoded = true;
  r.shape.longer_prefetched = true;
  r.shape.current_location = core::Placement::kGpu;
  r.leg_faulted = true;
  r.simd.loops = 2;
  r.simd.vector_ops = 3;
  r.simd.useful_lanes = 10;
  r.simd.charged_lanes = 12;
  r.simd.tail_elems = 2;
  const std::string line = bench::step_json(r).dump_line();
  for (const char* key :
       {"\"shorter_terms\":3", "\"longer_bytes\":1234",
        "\"longer_density\":0.25",
        "\"longer_scheme\":\"PForDelta\"",
        "\"longer_device_resident\":true", "\"longer_host_decoded\":true",
        "\"longer_prefetched\":true", "\"current_location\":\"gpu\"",
        "\"leg_faulted\":true",
        "\"simd\":{\"loops\":2,\"vector_ops\":3,\"useful_lanes\":10,"
        "\"charged_lanes\":12,\"tail_elems\":2}"}) {
    EXPECT_NE(line.find(key), std::string::npos) << key << " in " << line;
  }

  // The optional keys stay off a line whose fields are unset.
  core::StepRecord bare;
  bare.kind = core::StepKind::kIntersect;
  const std::string plain = bench::step_json(bare).dump_line();
  for (const char* key : {"current_location", "leg_faulted", "simd"}) {
    EXPECT_EQ(plain.find(key), std::string::npos) << key << " in " << plain;
  }
}
