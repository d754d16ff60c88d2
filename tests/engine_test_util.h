// Shared fixtures for engine-level tests: a small synthetic index plus a
// brute-force reference executor (decode everything, std::set_intersection,
// straightforward BM25) that every engine must agree with exactly.
#pragma once

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "bm25_walk_reference.h"
#include "core/query.h"
#include "core/rows.h"
#include "cpu/bm25.h"
#include "workload/corpus.h"
#include "workload/querylog.h"

namespace griffin::testutil {

inline workload::CorpusConfig small_corpus_config() {
  workload::CorpusConfig cfg;
  cfg.num_docs = 200'000;
  cfg.num_terms = 300;
  cfg.max_list_divisor = 3.0;
  cfg.zipf_s = 0.9;
  cfg.min_list_size = 64;
  cfg.seed = 1234;
  return cfg;
}

/// Built once per test binary (corpus generation is the expensive part).
inline const index::InvertedIndex& small_index() {
  static const index::InvertedIndex idx =
      workload::generate_corpus(small_corpus_config());
  return idx;
}

/// A corpus in the regime the paper evaluates (long lists, where GPU work
/// amortizes its fixed overheads) for performance-shape tests.
inline workload::CorpusConfig large_corpus_config() {
  workload::CorpusConfig cfg;
  cfg.num_docs = 2'000'000;
  cfg.num_terms = 200;
  cfg.max_list_divisor = 3.0;
  cfg.zipf_s = 0.9;
  cfg.min_list_size = 256;
  cfg.seed = 77;
  return cfg;
}

inline const index::InvertedIndex& large_index() {
  static const index::InvertedIndex idx =
      workload::generate_corpus(large_corpus_config());
  return idx;
}

/// Brute-force result: intersection docIDs in ascending order.
inline std::vector<index::DocId> reference_matches(
    const index::InvertedIndex& idx, const core::Query& q) {
  std::vector<index::DocId> current;
  bool first = true;
  for (const auto t : q.terms) {
    std::vector<index::DocId> docs;
    idx.list(t).docids.decode_all(docs);
    if (first) {
      current = std::move(docs);
      first = false;
    } else {
      std::vector<index::DocId> next;
      std::set_intersection(current.begin(), current.end(), docs.begin(),
                            docs.end(), std::back_inserter(next));
      current = std::move(next);
    }
  }
  return current;
}

/// Brute-force top-k: the walk-based scorer (tests/bm25_walk_reference.h)
/// over the reference matches, the engines' tie-breaks.
inline std::vector<core::ScoredDoc> reference_topk(
    const index::InvertedIndex& idx, const core::Query& q) {
  const auto matches = reference_matches(idx, q);
  cpu::Bm25Scorer scorer(idx);
  // The accumulator keeps a pointer to the spec, so it must outlive it.
  const sim::CpuSpec spec{};
  sim::CpuCostAccumulator acc{spec};
  std::vector<core::ScoredDoc> scored;
  cpu::reference::walk_score(scorer, idx, q.terms, matches, scored, acc);
  cpu::top_k(scored, q.k, acc);
  return scored;
}

/// Every carried position points at its row's docID: for each column,
/// entry p of row r is r's docID's index in that column's term's list.
inline void expect_positions(const index::InvertedIndex& idx,
                             const core::Rows& rows, const std::string& label) {
  const auto docs = rows.docs();
  for (std::size_t c = 0; c < rows.terms.size(); ++c) {
    std::vector<index::DocId> list;
    idx.list(rows.terms[c]).docids.decode_all(list);
    for (std::size_t r = 0; r < docs.size(); ++r) {
      const std::uint32_t p = rows.position(c, r);
      ASSERT_LT(p, list.size()) << label << " term " << rows.terms[c];
      ASSERT_EQ(list[p], docs[r]) << label << " term " << rows.terms[c]
                                  << " row " << r;
    }
  }
}

/// The placement of every completed intersect step, in plan order: the
/// scheduler's decision trail as the trace records it.
inline std::vector<core::Placement> intersect_placements(
    const core::QueryResult& res) {
  std::vector<core::Placement> out;
  for (const auto& r : res.trace) {
    if (r.kind == core::StepKind::kIntersect && !r.faulted) {
      out.push_back(r.placement);
    }
  }
  return out;
}

/// The one-ledger trace invariants (DESIGN.md §8/§10) on one finished
/// query: each record's duration is its stage split; the records sum to the
/// QueryMetrics stage totals, kernel count and total + overlap.saved
/// exactly; and each sits inside the query's span [release, release +
/// total]. Abandoned and dropped-prefetch records are checked one by one:
/// each is exactly its single wasted compute op (a drop has none).
inline void expect_stage_sums(const core::QueryResult& res,
                              const std::string& label,
                              sim::Duration release = {}) {
  const auto& m = res.metrics;
  ASSERT_FALSE(res.trace.empty()) << label;
  EXPECT_EQ(res.trace.back().kind, core::StepKind::kRank) << label;
  sim::Duration decode, intersect, transfer, rank;
  std::uint64_t kernels = 0;
  for (const auto& r : res.trace) {
    EXPECT_EQ(r.duration, r.decode + r.intersect + r.transfer + r.rank)
        << label;
    decode += r.decode;
    intersect += r.intersect;
    transfer += r.transfer;
    rank += r.rank;
    kernels += r.gpu_kernels;
    EXPECT_EQ(r.query, res.trace.front().query) << label;
    EXPECT_LE(release.ps(), r.issue.ps()) << label;
    EXPECT_LE(r.issue.ps(), r.start.ps()) << label;
    EXPECT_LE(r.start.ps(), r.end.ps()) << label;
    EXPECT_LE(r.end.ps(), (release + m.total).ps()) << label;
    if (r.faulted) {
      EXPECT_EQ(r.duration, r.end - r.start) << label;
      EXPECT_EQ(r.gpu_kernels, 0u) << label;
    }
  }
  EXPECT_EQ(decode, m.decode) << label;
  EXPECT_EQ(intersect, m.intersect) << label;
  EXPECT_EQ(transfer, m.transfer) << label;
  EXPECT_EQ(rank, m.rank) << label;
  EXPECT_EQ(kernels, m.gpu_kernels) << label;
  EXPECT_EQ(res.trace.back().output_count, m.result_count) << label;

  // Step durations are serial op sums; m.total is the query's span on the
  // timeline. The difference is exactly the overlap the async engines hid
  // (DESIGN.md §10) — picosecond-exact, not approximate.
  core::TraceSummary sum;
  sum.add(res.trace);
  EXPECT_EQ(sum.steps, res.trace.size()) << label;
  EXPECT_EQ(sum.migrations, m.migrations) << label;
  EXPECT_EQ(sum.step_time, m.total + m.overlap.saved) << label;
  EXPECT_EQ(m.overlap.prefetch_issued,
            m.overlap.prefetch_used + m.overlap.prefetch_dropped)
      << label;
}

inline void expect_same_topk(const std::vector<core::ScoredDoc>& got,
                             const std::vector<core::ScoredDoc>& want,
                             const char* label) {
  ASSERT_EQ(got.size(), want.size()) << label;
  for (std::size_t i = 0; i < want.size(); ++i) {
    EXPECT_EQ(got[i].doc, want[i].doc) << label << " rank " << i;
    EXPECT_NEAR(got[i].score, want[i].score, 1e-4) << label << " rank " << i;
  }
}

}  // namespace griffin::testutil
