#include "cpu/bm25.h"

#include <algorithm>
#include <array>
#include <cmath>

#include "cpu/decode.h"
#include "cpu/intersect.h"
#include "util/bits.h"

namespace griffin::cpu {

double Bm25Scorer::idf(std::uint64_t df) const {
  const double n = static_cast<double>(idx_->docs().num_docs());
  const double d = static_cast<double>(df);
  return std::log(1.0 + (n - d + 0.5) / (d + 0.5));
}

double Bm25Scorer::term_score(std::uint32_t tf, std::uint64_t df,
                              std::uint32_t doc_len) const {
  const double norm =
      kBm25K1 * (1.0 - kBm25B +
                 kBm25B * static_cast<double>(doc_len) /
                     std::max(avg_len_, 1.0));
  const double t = static_cast<double>(tf);
  return idf(df) * t / (t + norm);
}

void Bm25Scorer::score(std::span<const index::TermId> terms,
                       std::span<const index::DocId> docs,
                       std::vector<core::ScoredDoc>& out,
                       sim::CpuCostAccumulator& acc) const {
  out.assign(docs.size(), core::ScoredDoc{});
  for (std::size_t i = 0; i < docs.size(); ++i) out[i].doc = docs[i];
  if (docs.empty()) return;

  // Result docs ascend, so each term's postings are walked once with a
  // block + in-block cursor (the tf sits right next to the docID it was
  // intersected from; no per-result binary search is needed).
  std::array<codec::DocId, codec::kBlockSize> buf{};
  for (index::TermId t : terms) {
    const index::PostingList& pl = idx_->list(t);
    const auto& list = pl.docids;
    std::size_t cur = 0;
    std::size_t decoded_block = SIZE_MAX;
    std::uint32_t decoded_n = 0;
    std::uint32_t in_block = 0;

    for (std::size_t i = 0; i < docs.size(); ++i) {
      const codec::DocId d = docs[i];
      // Every result doc is guaranteed to appear in every term's list.
      while (cur < list.num_blocks() && list.meta(cur).last < d) ++cur;
      charge_binary_steps(acc, 1);
      if (cur >= list.num_blocks()) break;
      if (decoded_block != cur) {
        decoded_n = decode_block(list, cur, buf.data(), acc);
        decoded_block = cur;
        in_block = 0;
      }
      while (in_block < decoded_n && buf[in_block] < d) ++in_block;
      acc.merge_steps(1);
      const std::uint64_t pos = cur * codec::kBlockSize + in_block;
      const std::uint32_t tf = pl.tf_at(pos);
      out[i].score += static_cast<float>(
          term_score(tf, idx_->df(t), idx_->docs().length(d)));
      acc.scores(1);
    }
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
