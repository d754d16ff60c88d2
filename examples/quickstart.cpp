// Quickstart: build a tiny index from documents, run a conjunctive query on
// the hybrid Griffin engine, print ranked results.
//
//   cmake -B build -G Ninja && cmake --build build
//   ./build/examples/quickstart
#include <cstdio>
#include <map>
#include <string>
#include <vector>

#include "core/hybrid_engine.h"
#include "index/dictionary.h"
#include "index/inverted_index.h"

using namespace griffin;

int main() {
  // A miniature corpus. Each string is one document.
  const std::vector<std::string> documents = {
      "gpu query processing for information retrieval",
      "cpu branch prediction and cache friendly merge",
      "gpu merge path load balanced intersection",
      "elias fano compressed posting lists on gpu",
      "search engines rank documents with bm25",
      "hybrid cpu gpu systems schedule query operations",
      "posting lists intersection with skip pointers on cpu",
      "parallel decompression of compressed posting lists",
  };

  // Tokenize through the term dictionary (dense TermIds, interned strings).
  index::Dictionary vocab;
  index::IndexBuilder builder(codec::Scheme::kEliasFano);
  for (index::DocId doc = 0; doc < documents.size(); ++doc) {
    std::map<index::TermId, std::uint32_t> tf;
    for (const auto t : vocab.tokenize_interning(documents[doc])) ++tf[t];
    std::vector<std::pair<index::TermId, std::uint32_t>> terms(tf.begin(),
                                                               tf.end());
    builder.add_document(doc, terms);
  }
  index::InvertedIndex idx = builder.build();
  std::printf("indexed %zu documents, %zu terms, %llu postings\n",
              documents.size(), idx.num_terms(),
              static_cast<unsigned long long>(idx.total_postings()));

  // Query: documents containing both "gpu" AND "posting" AND "lists".
  core::HybridEngine engine(idx);
  core::Query q;
  q.terms = vocab.tokenize("gpu posting lists");
  q.k = 5;

  const core::QueryResult res = engine.execute(q);
  std::printf("\nquery: gpu AND posting AND lists -> %llu matches\n",
              static_cast<unsigned long long>(res.metrics.result_count));
  for (const auto& sd : res.topk) {
    std::printf("  doc %u  score %.3f  | %s\n", sd.doc, sd.score,
                documents[sd.doc].c_str());
  }
  std::printf("\nsimulated latency: %.1f us (decode %.1f, intersect %.1f, "
              "transfer %.1f, rank %.1f)\n",
              res.metrics.total.us(), res.metrics.decode.us(),
              res.metrics.intersect.us(), res.metrics.transfer.us(),
              res.metrics.rank.us());

  // On a toy index the paper's ratio rule still picks the GPU (the lists
  // have a small length ratio) and pays transfer overhead it can never
  // amortize; the cost-model scheduler extension notices and stays on the
  // CPU. Real corpora are where the GPU earns its keep — see the benches.
  core::HybridOptions cost_opt;
  cost_opt.scheduler.policy = core::SchedulerPolicy::kCostModel;
  core::HybridEngine cost_engine(idx, {}, cost_opt);
  const auto res2 = cost_engine.execute(q);
  const bool same = res2.topk == res.topk;
  std::printf("with the cost-model scheduler: %.1f us (%s results)\n",
              res2.metrics.total.us(), same ? "same" : "DIFFERENT");
  return same ? 0 : 1;
}
