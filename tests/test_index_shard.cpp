#include "index/shard.h"

#include <gtest/gtest.h>

#include <vector>

#include "cluster/partitioner.h"
#include "codec/codec.h"
#include "engine_test_util.h"
#include "util/rng.h"

using namespace griffin;

namespace {

std::vector<index::DocId> decode(const index::PostingList& pl) {
  std::vector<index::DocId> docs;
  pl.docids.decode_all(docs);
  return docs;
}

}  // namespace

TEST(Partitioner, RoundRobinStripes) {
  const auto map = cluster::assign_docs(
      cluster::PartitionStrategy::kRoundRobin, 10, 3);
  ASSERT_EQ(map.size(), 10u);
  for (std::uint64_t d = 0; d < map.size(); ++d) {
    EXPECT_EQ(map[d], d % 3);
  }
}

TEST(Partitioner, RangeIsContiguousAndCoversAll) {
  const auto map =
      cluster::assign_docs(cluster::PartitionStrategy::kRange, 1000, 4);
  ASSERT_EQ(map.size(), 1000u);
  // Nondecreasing shard ids, all shards non-empty, values < num_shards.
  std::vector<std::uint64_t> counts(4, 0);
  for (std::size_t d = 0; d < map.size(); ++d) {
    ASSERT_LT(map[d], 4u);
    if (d > 0) {
      EXPECT_GE(map[d], map[d - 1]);
    }
    ++counts[map[d]];
  }
  for (const auto c : counts) EXPECT_GT(c, 0u);
}

TEST(Partitioner, SingleShardIsIdentity) {
  for (const auto strat : {cluster::PartitionStrategy::kRoundRobin,
                           cluster::PartitionStrategy::kRange}) {
    const auto map = cluster::assign_docs(strat, 57, 1);
    for (const auto s : map) EXPECT_EQ(s, 0u);
  }
}

TEST(Partitioner, ZeroShardsThrows) {
  EXPECT_THROW(
      cluster::assign_docs(cluster::PartitionStrategy::kRoundRobin, 8, 0),
      std::invalid_argument);
}

TEST(IndexShard, ExtractionPartitionsEveryPosting) {
  const auto& idx = testutil::small_index();
  const auto doc_shard = cluster::assign_docs(
      cluster::PartitionStrategy::kRoundRobin,
      idx.docs().num_docs(), 3);
  const auto shards = index::extract_shards(idx, doc_shard, 3);
  ASSERT_EQ(shards.size(), 3u);

  for (index::TermId t = 0; t < idx.num_terms(); ++t) {
    const auto full = decode(idx.list(t));
    // Rebuild the full list from the shards; postings must route to the
    // owner shard and nowhere else.
    std::vector<index::DocId> merged;
    for (const auto& s : shards) {
      if (!s.has_term(t)) continue;
      const auto part = decode(s.index.list(s.local_term[t]));
      for (const auto d : part) {
        EXPECT_EQ(doc_shard[d], s.id);
      }
      merged.insert(merged.end(), part.begin(), part.end());
    }
    std::sort(merged.begin(), merged.end());
    EXPECT_EQ(merged, full) << "term " << t;
  }
}

TEST(IndexShard, ShardsCarryGlobalStatistics) {
  const auto& idx = testutil::small_index();
  const auto doc_shard = cluster::assign_docs(
      cluster::PartitionStrategy::kRange, idx.docs().num_docs(), 4);
  const auto shards = index::extract_shards(idx, doc_shard, 4);

  for (const auto& s : shards) {
    // Full DocTable copy: global N and global average length.
    EXPECT_EQ(s.index.docs().num_docs(), idx.docs().num_docs());
    EXPECT_DOUBLE_EQ(s.index.docs().avg_length(), idx.docs().avg_length());
    EXPECT_TRUE(s.index.has_df_override());
    // Per-term df override = collection-wide posting count, even though the
    // local sub-list is shorter.
    for (index::TermId local = 0; local < s.index.num_terms(); ++local) {
      const index::TermId global = s.global_term[local];
      EXPECT_EQ(s.index.df(local), idx.list(global).size());
      EXPECT_LE(s.index.list(local).size(), idx.list(global).size());
      EXPECT_EQ(s.local_term[global], local);
    }
  }
}

TEST(IndexShard, ShardListsFollowTheSourceCodecPolicy) {
  // The codec contract of extraction (index/shard.h): a fixed-scheme index's
  // shards keep its scheme, and an adaptive index's shard lists carry
  // select_scheme of their own sub-list.
  constexpr index::DocId kDocs = 200'000;
  // Runs of 16 consecutive docIDs 64 docIDs apart: the whole list selects
  // Simple16 (its gaps are mostly 1), but a round-robin shard holds every
  // fourth docID of each run, and those stride-4 runs select EF.
  std::vector<index::DocId> runs;
  for (index::DocId start = 1'000; runs.size() < 4'000; start += 16 + 64) {
    for (index::DocId d = start; d < start + 16; ++d) runs.push_back(d);
  }
  util::Xoshiro256 rng(7);
  const auto sparse = workload::make_uniform_list(3'000, kDocs, rng);
  const auto doc_shard = cluster::assign_docs(
      cluster::PartitionStrategy::kRoundRobin, kDocs, 4);

  for (const bool adaptive : {false, true}) {
    index::InvertedIndex idx(
        index::CodecPolicy{codec::Scheme::kPForDelta, adaptive});
    idx.add_list(runs);
    idx.add_list(sparse);
    idx.docs().resize(kDocs);
    const auto shards = index::extract_shards(idx, doc_shard, 4);
    for (const auto& s : shards) {
      for (index::TermId t = 0; t < s.index.num_terms(); ++t) {
        const auto& docids = s.index.list(t).docids;
        const codec::Scheme want =
            adaptive ? codec::select_scheme(decode(s.index.list(t)))
                     : codec::Scheme::kPForDelta;
        EXPECT_EQ(docids.scheme(), want)
            << "adaptive=" << adaptive << " shard " << s.id << " term " << t;
      }
      if (adaptive) {
        // Extraction selects again for each sub-list: the runs' sub-list
        // picks another codec than the whole list.
        EXPECT_NE(s.index.list(s.local_term[0]).docids.scheme(),
                  idx.list(0).docids.scheme())
            << "shard " << s.id;
      }
    }
  }
}

TEST(IndexShard, PreservesTermFrequencies) {
  const auto& idx = testutil::small_index();
  const auto doc_shard = cluster::assign_docs(
      cluster::PartitionStrategy::kRoundRobin, idx.docs().num_docs(), 2);
  const auto shards = index::extract_shards(idx, doc_shard, 2);

  const index::TermId t = 5;
  const auto full = decode(idx.list(t));
  for (const auto& s : shards) {
    ASSERT_TRUE(s.has_term(t));
    const auto& local = s.index.list(s.local_term[t]);
    const auto part = decode(local);
    for (std::uint64_t i = 0; i < part.size(); ++i) {
      const auto pos = static_cast<std::uint64_t>(
          std::lower_bound(full.begin(), full.end(), part[i]) - full.begin());
      ASSERT_LT(pos, full.size());
      EXPECT_EQ(local.tf_at(i), idx.list(t).tf_at(pos));
    }
  }
}

TEST(IndexShard, TranslateTermsShortCircuitsOnAbsent) {
  // Tiny hand-built index: term 1's postings all live in the upper half.
  index::InvertedIndex idx(codec::Scheme::kVarByte);
  idx.docs().resize(10);
  for (index::DocId d = 0; d < 10; ++d) idx.docs().set_length(d, 10);
  const std::vector<index::DocId> l0 = {0, 1, 5, 6};
  const std::vector<index::DocId> l1 = {7, 8, 9};
  idx.add_list(l0);
  idx.add_list(l1);

  const auto doc_shard =
      cluster::assign_docs(cluster::PartitionStrategy::kRange, 10, 2);
  const auto shards = index::extract_shards(idx, doc_shard, 2);

  EXPECT_TRUE(shards[0].has_term(0));
  EXPECT_FALSE(shards[0].has_term(1));  // all of term 1 is on shard 1
  EXPECT_TRUE(shards[1].has_term(1));

  std::vector<index::TermId> local;
  EXPECT_FALSE(shards[0].translate_terms(std::vector<index::TermId>{0, 1},
                                         local));
  ASSERT_TRUE(shards[1].translate_terms(std::vector<index::TermId>{0, 1},
                                        local));
  ASSERT_EQ(local.size(), 2u);
  EXPECT_EQ(shards[1].global_term[local[0]], 0u);
  EXPECT_EQ(shards[1].global_term[local[1]], 1u);
}

TEST(IndexShard, RejectsBadArguments) {
  const auto& idx = testutil::small_index();
  std::vector<std::uint32_t> short_map(idx.docs().num_docs() - 1, 0);
  EXPECT_THROW(index::extract_shards(idx, short_map, 1),
               std::invalid_argument);
  std::vector<std::uint32_t> ok_map(idx.docs().num_docs(), 0);
  EXPECT_THROW(index::extract_shards(idx, ok_map, 0), std::invalid_argument);
  std::vector<std::uint32_t> bad_value(idx.docs().num_docs(), 7);
  EXPECT_THROW(index::extract_shards(idx, bad_value, 2), std::out_of_range);
}
