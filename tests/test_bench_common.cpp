// The benches' shared helpers (bench/bench_common.h): the corpus cache key
// must separate every pair of configs that build different corpora, a
// trace line must carry everything Scheduler::decide(shape) reads, and a
// counter struct's JSON must carry every member its list names.
#include "../bench/bench_common.h"

#include <gtest/gtest.h>

#include <string>
#include <tuple>
#include <type_traits>

#include "util/lru_cache.h"

using namespace griffin;

namespace {

/// The text of a compact JSON object with every nested object's contents
/// cut out: only its own keys remain.
std::string own_members(const std::string& object) {
  std::string out;
  int depth = 0;
  for (const char ch : object) {
    if (ch == '}') --depth;
    if (depth <= 1) out += ch;
    if (ch == '{') ++depth;
  }
  return out;
}

std::size_t occurrences(const std::string& text, const std::string& what) {
  std::size_t n = 0;
  for (auto at = text.find(what); at != std::string::npos;
       at = text.find(what, at + 1)) {
    ++n;
  }
  return n;
}

/// `object` (counters_json of a C, compact) holds each key of C::fields()
/// exactly once and no other key, and each listed member's nested object
/// holds its own list the same way.
template <class C>
void expect_each_listed_key_once(const std::string& object) {
  const std::string own = own_members(object);
  EXPECT_EQ(occurrences(own, "\":"),
            std::tuple_size_v<decltype(C::fields())>)
      << own;
  util::for_each_field<C>([&](const auto& f) {
    std::string tag = "\"";  // appended: `"\"" + key` trips GCC 12's -Wrestrict
    tag += f.key;
    tag += "\":";
    EXPECT_EQ(occurrences(own, tag), 1u) << tag << " in " << own;
    using T = typename std::remove_cvref_t<decltype(f)>::type;
    if constexpr (util::Listed<T>) {
      // The nested object: from its '{' to the matching '}' (the counter
      // structs nest one level deep).
      const auto open = object.find(tag + "{");
      ASSERT_NE(open, std::string::npos) << tag << " in " << object;
      const auto begin = open + tag.size();
      const auto end = object.find('}', begin);
      expect_each_listed_key_once<T>(object.substr(begin, end - begin + 1));
    }
  });
}

}  // namespace

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

TEST(CountersJson, WritesEveryListedKeyOnceNestedBlocksIncluded) {
  core::QueryMetrics m;
  m.total = sim::Duration::from_us(2);
  m.cache.host_hits = 3;
  m.faults.gpu_wasted = sim::Duration::from_us(1);
  m.simd.loops = 4;
  const std::string line = bench::counters_json(m).dump_line();
  expect_each_listed_key_once<core::QueryMetrics>(line);
  for (const char* member :
       {"\"total_us\":2", "\"cache\":{\"device_hits\":0", "\"host_hits\":3",
        "\"gpu_wasted_us\":1", "\"simd\":{\"loops\":4"}) {
    EXPECT_NE(line.find(member), std::string::npos) << member << " in " << line;
  }

  const util::LruStats stats{
      .hits = 1, .misses = 2, .insertions = 3, .evictions = 4};
  const std::string flat = bench::counters_json(stats).dump_line();
  expect_each_listed_key_once<util::LruStats>(flat);
  EXPECT_EQ(flat, "{\"hits\":1,\"misses\":2,\"insertions\":3,\"evictions\":4}");
}
