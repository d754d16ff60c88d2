#include "cpu/bm25.h"

#include <gtest/gtest.h>

#include <cmath>

#include "bm25_walk_reference.h"
#include "core/rows.h"
#include "cpu/intersect.h"
#include "index/inverted_index.h"

namespace gc = griffin::cpu;
using griffin::core::ScoredDoc;
using griffin::index::DocId;
using griffin::index::InvertedIndex;

namespace {

/// Index: 4 docs; term 0 in docs {0,1,2,3}, term 1 in {1,3} with tf 2 and 5.
InvertedIndex tiny_index() {
  InvertedIndex idx(griffin::codec::Scheme::kEliasFano);
  idx.docs().resize(4);
  for (DocId d = 0; d < 4; ++d) idx.docs().set_length(d, 100 + d * 20);
  const std::vector<DocId> t0{0, 1, 2, 3};
  const std::vector<std::uint32_t> f0{1, 1, 3, 1};
  idx.add_list(t0, f0);
  const std::vector<DocId> t1{1, 3};
  const std::vector<std::uint32_t> f1{2, 5};
  idx.add_list(t1, f1);
  return idx;
}

griffin::sim::CpuSpec spec;

}  // namespace

TEST(Bm25, IdfDecreasesWithDf) {
  const auto idx = tiny_index();
  gc::Bm25Scorer scorer(idx);
  EXPECT_GT(scorer.idf(1), scorer.idf(2));
  EXPECT_GT(scorer.idf(2), scorer.idf(4));
  EXPECT_GT(scorer.idf(4), 0.0);  // +1 floor keeps it positive
}

TEST(Bm25, TermScoreIncreasesWithTfSaturating) {
  const auto idx = tiny_index();
  gc::Bm25Scorer scorer(idx);
  const double s1 = scorer.term_score(1, scorer.idf(2), 100);
  const double s2 = scorer.term_score(2, scorer.idf(2), 100);
  const double s10 = scorer.term_score(10, scorer.idf(2), 100);
  const double s100 = scorer.term_score(100, scorer.idf(2), 100);
  EXPECT_LT(s1, s2);
  EXPECT_LT(s2, s10);
  EXPECT_LT(s10, s100);
  // Saturation: doubling tf from 50 to 100 adds less than 1->2 did.
  EXPECT_LT(s100 - s10, s2 - s1 + 1e-12);
}

TEST(Bm25, LongerDocsPenalized) {
  const auto idx = tiny_index();
  gc::Bm25Scorer scorer(idx);
  EXPECT_GT(scorer.term_score(3, scorer.idf(2), 50),
            scorer.term_score(3, scorer.idf(2), 500));
}

TEST(Bm25, ScoreAgainstManualComputation) {
  const auto idx = tiny_index();
  gc::Bm25Scorer scorer(idx);
  griffin::sim::CpuCostAccumulator acc(spec);

  const std::vector<griffin::index::TermId> terms{0, 1};
  // Docs 1 and 3 sit at positions 1 and 3 of t0's list, 0 and 1 of t1's.
  griffin::core::Rows rows;
  rows.terms = terms;
  rows.words = {1, 3, 1, 3, 0, 1};
  std::vector<ScoredDoc> out;
  scorer.score(terms, rows, out, acc);
  ASSERT_EQ(out.size(), 2u);
  EXPECT_EQ(out[0].doc, 1u);
  EXPECT_EQ(out[1].doc, 3u);

  // Manual: doc 1 has tf(t0)=1, tf(t1)=2; doc 3 has tf(t0)=1, tf(t1)=5.
  const double idf0 = scorer.idf(4);
  const double idf1 = scorer.idf(2);
  const double expect1 = scorer.term_score(1, idf0, idx.docs().length(1)) +
                         scorer.term_score(2, idf1, idx.docs().length(1));
  const double expect3 = scorer.term_score(1, idf0, idx.docs().length(3)) +
                         scorer.term_score(5, idf1, idx.docs().length(3));
  EXPECT_NEAR(out[0].score, expect1, 1e-5);
  EXPECT_NEAR(out[1].score, expect3, 1e-5);
  // Doc 3's heavy tf on the rare term should rank it above doc 1 despite
  // being longer.
  EXPECT_GT(out[1].score, out[0].score);
}

TEST(Bm25, TfLookupAcrossBlocks) {
  // A list spanning several blocks: tf positions must line up globally.
  InvertedIndex idx(griffin::codec::Scheme::kEliasFano);
  const std::uint32_t n = 1000;
  idx.docs().resize(n * 3);
  std::vector<DocId> docs(n);
  std::vector<std::uint32_t> tfs(n);
  for (std::uint32_t i = 0; i < n; ++i) {
    docs[i] = i * 3;
    tfs[i] = 1 + (i % 7);
    idx.docs().set_length(i * 3, 200);
  }
  idx.add_list(docs, tfs);

  // A second list holding every doc, so an intersect carries positions in
  // both lists.
  std::vector<DocId> all(n * 3);
  for (std::uint32_t i = 0; i < n * 3; ++i) all[i] = i;
  idx.add_list(all);

  gc::Bm25Scorer scorer(idx);
  griffin::sim::CpuCostAccumulator acc(spec);
  // Sample docs across block boundaries, as the skip path finds them in
  // list 0 and carries their positions.
  const std::vector<DocId> probe{0, 3, 127 * 3, 128 * 3, 129 * 3, 500 * 3,
                                 999 * 3};
  std::vector<DocId> matched;
  gc::MatchPositions at;
  gc::skip_intersect(probe, idx.list(0).docids, matched, acc, &at);
  ASSERT_EQ(matched, probe);
  griffin::core::Rows rows;
  rows.terms = {1, 0};
  rows.words = matched;
  for (const DocId d : matched) rows.words.push_back(d);  // list 1: doc = pos
  rows.words.insert(rows.words.end(), at.pos.begin(), at.pos.end());

  const std::vector<griffin::index::TermId> terms{0};
  std::vector<ScoredDoc> out;
  scorer.score(terms, rows, out, acc);
  std::vector<ScoredDoc> walked;
  gc::reference::walk_score(scorer, idx, terms, probe, walked, acc);
  EXPECT_EQ(out, walked);
  for (std::size_t i = 0; i < probe.size(); ++i) {
    const std::uint32_t pos = probe[i] / 3;
    EXPECT_EQ(at.pos[i], pos) << "probe " << i;
    const double expect =
        scorer.term_score(1 + (pos % 7), scorer.idf(n), 200);
    EXPECT_NEAR(out[i].score, expect, 1e-5) << "probe " << i;
  }
}

TEST(TopK, SelectsHighestScores) {
  griffin::sim::CpuCostAccumulator acc(spec);
  std::vector<ScoredDoc> v;
  for (std::uint32_t i = 0; i < 100; ++i) {
    v.push_back({i, static_cast<float>((i * 37) % 100)});
  }
  gc::top_k(v, 5, acc);
  ASSERT_EQ(v.size(), 5u);
  EXPECT_EQ(v[0].score, 99.0f);
  for (std::size_t i = 1; i < v.size(); ++i) {
    EXPECT_LE(v[i].score, v[i - 1].score);
  }
}

TEST(TopK, KLargerThanInput) {
  griffin::sim::CpuCostAccumulator acc(spec);
  std::vector<ScoredDoc> v{{1, 2.0f}, {2, 1.0f}};
  gc::top_k(v, 10, acc);
  ASSERT_EQ(v.size(), 2u);
  EXPECT_EQ(v[0].doc, 1u);
}

TEST(TopK, TieBreaksByDocId) {
  griffin::sim::CpuCostAccumulator acc(spec);
  std::vector<ScoredDoc> v{{9, 1.0f}, {3, 1.0f}, {7, 1.0f}};
  gc::top_k(v, 2, acc);
  ASSERT_EQ(v.size(), 2u);
  EXPECT_EQ(v[0].doc, 3u);
  EXPECT_EQ(v[1].doc, 7u);
}
