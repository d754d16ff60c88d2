// Parallel binary-search intersection over skip pointers (the high-ratio
// GPU path): exactness, the rows it emits (the probes' position columns
// gathered by row, each match's position in the list), selective decode,
// and the §2.3 coalescing story.
#include "gpu/binary_intersect.h"

#include <gtest/gtest.h>

#include <algorithm>

#include "gpu/mergepath.h"
#include "util/rng.h"
#include "workload/corpus.h"

namespace gg = griffin::gpu;
using griffin::codec::BlockCompressedList;
using griffin::codec::DocId;
using griffin::codec::Scheme;
using griffin::core::Rows;

namespace {

struct Gpu {
  griffin::simt::Device dev;
  griffin::pcie::Link link;
  griffin::pcie::TransferLedger ledger;
};

std::vector<DocId> reference(std::span<const DocId> a,
                             std::span<const DocId> b) {
  std::vector<DocId> out;
  std::set_intersection(a.begin(), a.end(), b.begin(), b.end(),
                        std::back_inserter(out));
  return out;
}

std::vector<DocId> run_binary(Gpu& g, std::span<const DocId> probes,
                              std::span<const DocId> target,
                              griffin::sim::KernelStats* stats = nullptr,
                              bool deferred = false) {
  auto dp = g.dev.alloc<DocId>(std::max<std::size_t>(probes.size(), 1));
  g.dev.upload(dp, probes);
  const auto list = BlockCompressedList::build(target, Scheme::kEliasFano);
  gg::DeviceList dlist =
      gg::upload_list(g.dev, list, g.link, g.ledger, deferred);
  auto r = gg::binary_search_intersect(g.dev, dp, probes.size(), dlist,
                                       g.link, g.ledger, deferred);
  if (stats != nullptr) *stats = r.stats;
  std::vector<DocId> host(r.count);
  g.dev.download(std::span<DocId>(host), r.result);
  return host;
}

/// Probe rows [offset, n) of `probes`, an intermediate of `terms` terms
/// with made-up position columns (a single list's rows are positions from
/// `first_row` on) × `target`; returns every word of the result.
std::vector<DocId> run_rows(Gpu& g, std::span<const DocId> probes,
                            std::uint64_t offset, std::uint32_t terms,
                            std::uint64_t first_row,
                            std::span<const DocId> target) {
  const std::uint32_t columns = Rows::columns(terms);
  std::vector<DocId> buf(probes.begin(), probes.end());
  for (std::uint32_t c = 0; c < columns; ++c) {
    for (std::size_t i = 0; i < probes.size(); ++i) {
      buf.push_back(static_cast<DocId>(i * 5 + c * 999'983));
    }
  }
  auto dp = g.dev.alloc<DocId>(std::max<std::size_t>(buf.size(), 1));
  g.dev.upload(dp, std::span<const DocId>(buf));
  const auto list = BlockCompressedList::build(target, Scheme::kEliasFano);
  gg::DeviceList dlist = gg::upload_list(g.dev, list, g.link, g.ledger);
  auto r = gg::binary_search_intersect(g.dev, dp, probes.size() - offset,
                                       dlist, g.link, g.ledger, false, offset,
                                       terms, first_row);
  std::vector<DocId> rows(r.count * Rows::width(terms + 1));
  g.dev.download(std::span<DocId>(rows), r.result);

  // By set semantics: the matches, the probes' columns by row (the row from
  // first_row on when there are none), each match's index in the target.
  std::vector<DocId> docs;
  std::vector<std::size_t> at;
  for (std::size_t i = offset; i < probes.size(); ++i) {
    if (std::binary_search(target.begin(), target.end(), probes[i])) {
      docs.push_back(probes[i]);
      at.push_back(i);
    }
  }
  std::vector<DocId> want(docs);
  for (std::uint32_t c = 0; c < std::max(columns, 1u); ++c) {
    for (const std::size_t i : at) {
      want.push_back(columns == 0 ? static_cast<DocId>(first_row + i)
                                  : buf[(1 + c) * probes.size() + i]);
    }
  }
  for (const DocId d : docs) {
    want.push_back(static_cast<DocId>(
        std::lower_bound(target.begin(), target.end(), d) - target.begin()));
  }
  EXPECT_EQ(rows, want);
  return rows;
}

}  // namespace

TEST(GpuBinaryIntersect, RowsCarryPositions) {
  griffin::util::Xoshiro256 rng(5);
  const auto pair = griffin::workload::make_pair_with_ratio(
      300'000, 150.0, 50'000'000, 0.6, rng);
  const std::span<const DocId> probes(pair.shorter);
  {
    Gpu g;  // a single list: its rows are its positions
    run_rows(g, probes, 0, 1, 0, pair.longer);
  }
  {
    Gpu g;  // an intermediate of three terms, searched from a suffix
    run_rows(g, probes, probes.size() / 3, 3, 0, pair.longer);
  }
  {
    Gpu g;  // a split leg's uploaded suffix of a single list
    run_rows(g, probes.subspan(500), 0, 1, 500, pair.longer);
  }
}

TEST(GpuBinaryIntersect, SmallKnownCase) {
  Gpu g;
  const std::vector<DocId> probes{11, 15, 17, 38, 60};
  std::vector<DocId> target;
  for (DocId d = 0; d < 1000; ++d) target.push_back(d * 3);  // multiples of 3
  EXPECT_EQ(run_binary(g, probes, target), (std::vector<DocId>{15, 60}));
}

TEST(GpuBinaryIntersect, NoProbeMatches) {
  Gpu g;
  std::vector<DocId> target;
  for (DocId d = 0; d < 5000; ++d) target.push_back(2 * d);
  const std::vector<DocId> probes{1, 3333, 9999};
  EXPECT_TRUE(run_binary(g, probes, target).empty());
}

TEST(GpuBinaryIntersect, ProbesOutsideRange) {
  Gpu g;
  std::vector<DocId> target;
  for (DocId d = 1000; d < 2000; ++d) target.push_back(d);
  const std::vector<DocId> probes{1, 500, 1500, 5000};
  EXPECT_EQ(run_binary(g, probes, target), (std::vector<DocId>{1500}));
}

class GpuBinaryParam
    : public ::testing::TestWithParam<std::tuple<int, double, bool>> {};

TEST_P(GpuBinaryParam, MatchesReference) {
  const auto [longer, ratio, deferred] = GetParam();
  griffin::util::Xoshiro256 rng(longer + static_cast<int>(ratio));
  const auto pair = griffin::workload::make_pair_with_ratio(
      longer, ratio, 50'000'000, 0.4, rng);
  Gpu g;
  griffin::sim::KernelStats stats;
  EXPECT_EQ(run_binary(g, pair.shorter, pair.longer, &stats, deferred),
            reference(pair.shorter, pair.longer));
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, GpuBinaryParam,
    ::testing::Combine(::testing::Values(2000, 100'000, 1'000'000),
                       ::testing::Values(16.0, 150.0, 700.0),
                       ::testing::Bool()));

TEST(GpuBinaryIntersect, DeferredPayloadMovesFarLessData) {
  // At ratio >> block size, most long-list blocks are never needed: the
  // §3.1.2 flow ("only transfers, decompresses, and processes those
  // blocks") pays for the candidate blocks instead of the whole payload.
  griffin::util::Xoshiro256 rng(21);
  const auto pair = griffin::workload::make_pair_with_ratio(
      1'000'000, 1000.0, 50'000'000, 0.5, rng);

  Gpu eager, lazy;
  const auto r1 = run_binary(eager, pair.shorter, pair.longer, nullptr,
                             /*deferred=*/false);
  const auto r2 = run_binary(lazy, pair.shorter, pair.longer, nullptr,
                             /*deferred=*/true);
  EXPECT_EQ(r1, r2);
  EXPECT_LT(lazy.ledger.h2d_bytes, eager.ledger.h2d_bytes * 6 / 10);
}

TEST(GpuBinaryIntersect, MemoryTransactionsPerProbeVsMergePerElement) {
  // The §2.3 argument: each binary-search probe walks its own path through
  // the skip table and a decoded block, paying several scattered memory
  // transactions per probe; MergePath streams both lists once, paying a
  // small fraction of a transaction per element.
  griffin::util::Xoshiro256 rng(22);
  const auto pair = griffin::workload::make_pair_with_ratio(
      400'000, 8.0, 50'000'000, 0.4, rng);
  Gpu g1, g2;
  griffin::sim::KernelStats bin_stats;
  run_binary(g1, pair.shorter, pair.longer, &bin_stats);
  const double bin_txn_per_probe =
      static_cast<double>(bin_stats.global_transactions) /
      static_cast<double>(pair.shorter.size());
  EXPECT_GT(bin_txn_per_probe, 3.0);

  auto da = g2.dev.alloc<DocId>(pair.shorter.size());
  g2.dev.upload(da, std::span<const DocId>(pair.shorter));
  auto db = g2.dev.alloc<DocId>(pair.longer.size());
  g2.dev.upload(db, std::span<const DocId>(pair.longer));
  auto mp = gg::mergepath_intersect(g2.dev, da, pair.shorter.size(), db,
                                    pair.longer.size(), g2.link, g2.ledger);
  const double mp_txn_per_elem =
      static_cast<double>(mp.stats.global_transactions) /
      static_cast<double>(pair.shorter.size() + pair.longer.size());
  EXPECT_LT(mp_txn_per_elem, 0.3);
}
