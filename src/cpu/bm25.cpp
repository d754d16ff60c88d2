#include "cpu/bm25.h"

#include <algorithm>
#include <cassert>
#include <cmath>

#include "util/bits.h"

namespace griffin::cpu {

double Bm25Scorer::idf(std::uint64_t df) const {
  const double n = static_cast<double>(idx_->docs().num_docs());
  const double d = static_cast<double>(df);
  return std::log(1.0 + (n - d + 0.5) / (d + 0.5));
}

double Bm25Scorer::term_score(std::uint32_t tf, double idf,
                              std::uint32_t doc_len) const {
  const double norm =
      kBm25K1 * (1.0 - kBm25B +
                 kBm25B * static_cast<double>(doc_len) /
                     std::max(avg_len_, 1.0));
  const double t = static_cast<double>(tf);
  return idf * t / (t + norm);
}

void Bm25Scorer::score(std::span<const index::TermId> terms,
                       const core::Rows& rows,
                       std::vector<core::ScoredDoc>& out,
                       sim::CpuCostAccumulator& acc) const {
  const auto docs = rows.docs();
  out.assign(docs.size(), core::ScoredDoc{});
  for (std::size_t i = 0; i < docs.size(); ++i) out[i].doc = docs[i];
  if (docs.empty()) return;

  // One cache line holds this many tfs (one byte each).
  constexpr std::uint64_t kTfsPerLine = 64;
  for (index::TermId t : terms) {
    const auto col = static_cast<std::size_t>(
        std::find(rows.terms.begin(), rows.terms.end(), t) -
        rows.terms.begin());
    assert(col < rows.terms.size());
    const index::PostingList& pl = idx_->list(t);
    const double w = idf(idx_->df(t));
    // A column's positions ascend with the rows' docIDs, so its tf reads
    // stream through the list's tf array: one line per new line touched.
    std::uint64_t lines = 0;
    std::uint64_t line = ~std::uint64_t{0};
    for (std::size_t i = 0; i < docs.size(); ++i) {
      const std::uint32_t pos = rows.position(col, i);
      if (pos / kTfsPerLine != line) {
        line = pos / kTfsPerLine;
        ++lines;
      }
      out[i].score += static_cast<float>(
          term_score(pl.tf_at(pos), w, idx_->docs().length(docs[i])));
    }
    acc.scores(docs.size());
    acc.add_bytes(docs.size() * sizeof(std::uint32_t) + lines * kTfsPerLine);
  }
}

void top_k(std::vector<core::ScoredDoc>& results, std::uint32_t k,
           sim::CpuCostAccumulator& acc) {
  const std::size_t n = results.size();
  const std::size_t kk = std::min<std::size_t>(k, n);
  std::partial_sort(results.begin(), results.begin() + kk, results.end(),
                    [](const core::ScoredDoc& a, const core::ScoredDoc& b) {
                      if (a.score != b.score) return a.score > b.score;
                      return a.doc < b.doc;
                    });
  results.resize(kk);
  // partial_sort is O(n log k): one heap pass over all candidates.
  const double logk =
      static_cast<double>(util::ceil_log2(std::max<std::uint64_t>(kk, 2)));
  acc.heap_steps(static_cast<std::uint64_t>(static_cast<double>(n) * logk));
  acc.add_bytes(n * sizeof(core::ScoredDoc));
}

}  // namespace griffin::cpu
