// BM25 ranking (Robertson & Walker [26]; paper §2.1.3). Scoring always runs
// on the CPU — the paper's Figure 7 shows GPU selection/sorting loses at the
// small result counts real queries produce, and Griffin follows that finding.
// Each result's tf is read at the position its intersect found it at
// (core/rows.h; DESIGN.md §5, rank model): no posting block is decoded and
// no skip entry walked a second time.
#pragma once

#include <span>
#include <vector>

#include "core/query.h"
#include "core/rows.h"
#include "index/inverted_index.h"
#include "sim/cpu_cost_model.h"

namespace griffin::cpu {

/// BM25 term-frequency saturation and length normalization.
inline constexpr double kBm25K1 = 0.9;
inline constexpr double kBm25B = 0.4;

class Bm25Scorer {
 public:
  explicit Bm25Scorer(const index::InvertedIndex& idx)
      : idx_(&idx), avg_len_(idx.docs().avg_length()) {}

  /// Robertson-Sparck-Jones idf with the +1 floor (never negative).
  double idf(std::uint64_t df) const;

  /// BM25 contribution of one (term, doc) pair, given the term's idf.
  double term_score(std::uint32_t tf, double idf, std::uint32_t doc_len) const;

  /// Scores every row of `rows` against all `terms` (the query's own order,
  /// so the float sums do not depend on the plan), writing one ScoredDoc per
  /// row to out and charging the rank-stage accumulator: per (term, row) a
  /// BM25 score, the position read, and the tf read's cache line when it
  /// starts a new one. Every term must be one of rows.terms.
  void score(std::span<const index::TermId> terms, const core::Rows& rows,
             std::vector<core::ScoredDoc>& out,
             sim::CpuCostAccumulator& acc) const;

 private:
  const index::InvertedIndex* idx_;
  double avg_len_;
};

/// Top-k selection by score (descending; ties by ascending doc) using
/// std::partial_sort — the CPU ranking the paper selects in Figure 7.
/// Truncates `results` to k and charges `acc`.
void top_k(std::vector<core::ScoredDoc>& results, std::uint32_t k,
           sim::CpuCostAccumulator& acc);

}  // namespace griffin::cpu
