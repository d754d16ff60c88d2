// The walk-based BM25 scorer: the test oracle for cpu::Bm25Scorer::score.
//
// Before intersects carried their matches' positions (core/rows.h), the
// rank step found each result's tf by walking every term's skip entries
// and decoding each posting block that holds a result. This header keeps
// that scorer, charges included, so a differential test can require the
// position-reading scorer to produce bit-identical scores: the same tf per
// (term, doc), the same float additions in the same term order.
#pragma once

#include <array>
#include <cstdint>
#include <span>
#include <vector>

#include "cpu/bm25.h"
#include "cpu/decode.h"
#include "cpu/intersect.h"

namespace griffin::cpu::reference {

/// Scores every doc in `docs` (ascending; each in every term's list)
/// against all `terms`, reaching each tf by walking the term's blocks.
inline void walk_score(const Bm25Scorer& scorer,
                       const index::InvertedIndex& idx,
                       std::span<const index::TermId> terms,
                       std::span<const index::DocId> docs,
                       std::vector<core::ScoredDoc>& out,
                       sim::CpuCostAccumulator& acc) {
  out.assign(docs.size(), core::ScoredDoc{});
  for (std::size_t i = 0; i < docs.size(); ++i) out[i].doc = docs[i];
  if (docs.empty()) return;
  std::array<codec::DocId, codec::kBlockSize> buf{};
  for (index::TermId t : terms) {
    const index::PostingList& pl = idx.list(t);
    const auto& list = pl.docids;
    std::size_t cur = 0;
    std::size_t decoded_block = SIZE_MAX;
    std::uint32_t decoded_n = 0;
    std::uint32_t in_block = 0;
    for (std::size_t i = 0; i < docs.size(); ++i) {
      const codec::DocId d = docs[i];
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
      out[i].score += static_cast<float>(scorer.term_score(
          pl.tf_at(pos), scorer.idf(idx.df(t)), idx.docs().length(d)));
      acc.scores(1);
    }
  }
}

}  // namespace griffin::cpu::reference
