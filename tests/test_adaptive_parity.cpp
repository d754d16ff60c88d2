// Acceptance gate for the adaptive codec policy: an index whose lists are
// selected per-list by codec::select_scheme must produce results identical
// to every forced single-scheme configuration — compression choices may
// change time and bytes, never answers. Exercised across all three engines
// (CPU, GPU, Hybrid), with forced PForDelta called out explicitly since the
// paper's baseline uses it.
#include <gtest/gtest.h>

#include <string>

#include "codec/codec.h"
#include "core/hybrid_engine.h"
#include "cpu/engine.h"
#include "engine_test_util.h"
#include "gpu/engine.h"

using namespace griffin;

namespace {

workload::CorpusConfig parity_corpus_config() {
  workload::CorpusConfig cfg = testutil::small_corpus_config();
  // Small enough that building five variants (adaptive + four forced) stays
  // cheap; the list-length mix still spans both crossover regimes.
  cfg.num_docs = 20'000;
  cfg.num_terms = 30;
  cfg.seed = 91;
  return cfg;
}

std::vector<core::Query> parity_log(std::uint32_t num_terms) {
  workload::QueryLogConfig qcfg;
  qcfg.num_queries = 25;
  qcfg.seed = 92;
  return workload::generate_query_log(qcfg, num_terms);
}

}  // namespace

TEST(AdaptiveParity, MixesSchemesButMatchesReference) {
  workload::CorpusConfig cfg = parity_corpus_config();
  cfg.adaptive = true;
  const auto idx = workload::generate_corpus(cfg);
  ASSERT_TRUE(idx.adaptive());
  core::HybridEngine engine(idx);
  for (const auto& q : parity_log(cfg.num_terms)) {
    const auto got = engine.execute(q);
    const auto want = testutil::reference_topk(idx, q);
    testutil::expect_same_topk(got.topk, want, "adaptive-hybrid");
  }
}

TEST(AdaptiveParity, IdenticalToEveryForcedSchemeOnAllEngines) {
  workload::CorpusConfig cfg = parity_corpus_config();
  cfg.adaptive = true;
  const auto adaptive_idx = workload::generate_corpus(cfg);
  const auto log = parity_log(cfg.num_terms);

  cpu::CpuEngine a_cpu(adaptive_idx);
  gpu::GpuEngine a_gpu(adaptive_idx);
  core::HybridEngine a_hybrid(adaptive_idx);

  for (const codec::Scheme s : codec::all_schemes()) {
    workload::CorpusConfig forced_cfg = parity_corpus_config();
    forced_cfg.adaptive = false;
    forced_cfg.scheme = s;
    const auto forced_idx = workload::generate_corpus(forced_cfg);
    cpu::CpuEngine f_cpu(forced_idx);
    gpu::GpuEngine f_gpu(forced_idx);
    core::HybridEngine f_hybrid(forced_idx);

    for (const auto& q : log) {
      const std::string tag = "adaptive-vs-" + codec::scheme_name(s);
      testutil::expect_same_topk(a_cpu.execute(q).topk, f_cpu.execute(q).topk,
                                 (tag + "-cpu").c_str());
      testutil::expect_same_topk(a_gpu.execute(q).topk, f_gpu.execute(q).topk,
                                 (tag + "-gpu").c_str());
      testutil::expect_same_topk(a_hybrid.execute(q).topk,
                                 f_hybrid.execute(q).topk,
                                 (tag + "-hybrid").c_str());
    }
  }
}

TEST(AdaptiveParity, AddListAsOverridesThePolicy) {
  // Forced-scheme parity harnesses rely on add_list_as bypassing the
  // adaptive selector entirely.
  index::InvertedIndex idx(index::CodecPolicy{codec::Scheme::kEliasFano, true});
  std::vector<index::DocId> docs;
  for (index::DocId d = 0; d < 500; ++d) docs.push_back(d * 3);
  const index::TermId t = idx.add_list_as(codec::Scheme::kVarByte, docs);
  EXPECT_EQ(idx.list(t).docids.scheme(), codec::Scheme::kVarByte);
  const index::TermId u = idx.add_list(docs);
  EXPECT_EQ(idx.list(u).docids.scheme(), codec::select_scheme(docs));
}
