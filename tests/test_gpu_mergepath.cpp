// MergePath intersection (paper §3.1.2, Figures 5-6): exactness against
// std::set_intersection across sizes/ratios, the paper's worked example, and
// the load-balance property the partitioning exists to provide. The merge
// launch's tile counts are checked against the all-SIMT oracle in
// mergepath_reference.h, field for field.
#include "gpu/mergepath.h"

#include <gtest/gtest.h>

#include <algorithm>

#include "mergepath_reference.h"
#include "util/rng.h"
#include "workload/corpus.h"

namespace gg = griffin::gpu;
using griffin::codec::DocId;

namespace {

struct Gpu {
  griffin::simt::Device dev;
  griffin::pcie::Link link;
  griffin::pcie::TransferLedger ledger;

  griffin::simt::DeviceBuffer<DocId> up(std::span<const DocId> v) {
    auto buf = dev.alloc<DocId>(std::max<std::size_t>(v.size(), 1));
    dev.upload(buf, v);
    return buf;
  }
};

std::vector<DocId> reference(std::span<const DocId> a,
                             std::span<const DocId> b) {
  std::vector<DocId> out;
  std::set_intersection(a.begin(), a.end(), b.begin(), b.end(),
                        std::back_inserter(out));
  return out;
}

std::vector<DocId> run_mergepath(Gpu& g, std::span<const DocId> a,
                                 std::span<const DocId> b) {
  auto da = g.up(a);
  auto db = g.up(b);
  auto r = gg::mergepath_intersect(g.dev, da, a.size(), db, b.size(), g.link,
                                   g.ledger);
  std::vector<DocId> host(r.count);
  g.dev.download(std::span<DocId>(host), r.result);
  return host;
}

/// Whole-struct equality, with a per-field report when it fails.
void expect_same_stats(const griffin::sim::KernelStats& got,
                       const griffin::sim::KernelStats& want) {
  EXPECT_EQ(got, want);
  griffin::util::for_each_field<griffin::sim::KernelStats>(
      [&](const auto& f) {
        EXPECT_EQ(got.*f.member, want.*f.member) << f.key;
      });
}

/// Runs gpu::mergepath_intersect and the all-SIMT oracle on the same inputs,
/// each on its own device so both see the same device addresses (their
/// shared arenas sit at different host addresses, which shifts every bank
/// alike), and requires the same counts, matches, launches and ledger.
void expect_matches_oracle(std::span<const DocId> a, std::span<const DocId> b,
                           std::uint32_t items_per_thread) {
  SCOPED_TRACE(::testing::Message() << "|A|=" << a.size() << " |B|="
                                    << b.size() << " vt=" << items_per_thread);
  Gpu g, o;
  auto ga = g.up(a);
  auto gb = g.up(b);
  auto oa = o.up(a);
  auto ob = o.up(b);
  const auto got =
      gg::mergepath_intersect(g.dev, ga, a.size(), gb, b.size(), g.link,
                              g.ledger, gg::MergeTuning{items_per_thread});
  const auto want = gg::reference::mergepath_intersect(
      o.dev, oa, a.size(), ob, b.size(), o.link, o.ledger, items_per_thread);
  expect_same_stats(got.stats, want.stats);
  EXPECT_EQ(got.count, want.count);
  EXPECT_EQ(got.kernels, want.kernels);
  EXPECT_EQ(g.ledger.total, o.ledger.total);
  EXPECT_EQ(g.ledger.transfers, o.ledger.transfers);
  EXPECT_EQ(g.ledger.allocs, o.ledger.allocs);
  std::vector<DocId> got_docs(got.count);
  g.dev.download(std::span<DocId>(got_docs), got.result);
  std::vector<DocId> want_docs(want.count);
  o.dev.download(std::span<DocId>(want_docs), want.result);
  EXPECT_EQ(got_docs, want_docs);
  EXPECT_EQ(got_docs, reference(a, b));
}

std::vector<DocId> iota_list(std::size_t n, DocId first, DocId stride = 1) {
  std::vector<DocId> v(n);
  for (std::size_t i = 0; i < n; ++i) v[i] = first + stride * i;
  return v;
}

}  // namespace

TEST(MergePath, PaperFigure6Example) {
  // A = (1,3,4,6,7,9,15,25,31), B = (1,3,7,10,18,25,31) -> (1,3,7,25,31).
  Gpu g;
  const std::vector<DocId> a{1, 3, 4, 6, 7, 9, 15, 25, 31};
  const std::vector<DocId> b{1, 3, 7, 10, 18, 25, 31};
  EXPECT_EQ(run_mergepath(g, a, b), (std::vector<DocId>{1, 3, 7, 25, 31}));
}

TEST(MergePath, EmptyInputs) {
  Gpu g;
  const std::vector<DocId> a{1, 2, 3};
  const std::vector<DocId> empty;
  EXPECT_TRUE(run_mergepath(g, a, empty).empty());
  EXPECT_TRUE(run_mergepath(g, empty, a).empty());
}

TEST(MergePath, IdenticalLists) {
  Gpu g;
  griffin::util::Xoshiro256 rng(2);
  const auto a = griffin::workload::make_uniform_list(5000, 1'000'000, rng);
  EXPECT_EQ(run_mergepath(g, a, a), a);
}

TEST(MergePath, DisjointLists) {
  Gpu g;
  std::vector<DocId> a, b;
  for (DocId i = 0; i < 3000; ++i) {
    a.push_back(2 * i);
    b.push_back(2 * i + 1);
  }
  EXPECT_TRUE(run_mergepath(g, a, b).empty());
}

TEST(MergePath, EqualPairsAtPartitionBoundaries) {
  // Dense identical elements stress the boundary-nudge logic: every element
  // matches, partitions fall wherever the diagonals land.
  Gpu g;
  std::vector<DocId> a;
  for (DocId i = 0; i < 10'000; ++i) a.push_back(i * 3);
  std::vector<DocId> b = a;
  // Perturb b slightly so some match and some don't, densely.
  for (std::size_t i = 0; i < b.size(); i += 7) b[i] += 1;
  EXPECT_EQ(run_mergepath(g, a, b), reference(a, b));
}

class MergePathParam
    : public ::testing::TestWithParam<std::tuple<int, double, double>> {};

TEST_P(MergePathParam, MatchesReference) {
  const auto [longer, ratio, containment] = GetParam();
  griffin::util::Xoshiro256 rng(longer + static_cast<int>(ratio * 100));
  const auto pair = griffin::workload::make_pair_with_ratio(
      longer, ratio, 50'000'000, containment, rng);
  Gpu g;
  EXPECT_EQ(run_mergepath(g, pair.shorter, pair.longer),
            reference(pair.shorter, pair.longer));
  expect_matches_oracle(pair.shorter, pair.longer, gg::kItemsPerThread);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, MergePathParam,
    ::testing::Combine(::testing::Values(100, 1023, 1024, 1025, 60000),
                       ::testing::Values(1.0, 3.0, 15.0),
                       ::testing::Values(0.0, 0.4, 1.0)));

/// Tile shapes at every partition size bench/ablation_partition sweeps.
class MergePathTiles : public ::testing::TestWithParam<std::uint32_t> {};

TEST_P(MergePathTiles, CountsMatchTheSimtOracle) {
  const std::uint32_t vt = GetParam();
  const std::size_t span = std::size_t{vt} * gg::kMergeBlockThreads;
  const std::vector<DocId> none;
  const std::vector<DocId> one{1000};
  const auto many = iota_list(3 * span + 77, 0, 3);

  // Empty and one-element sides.
  expect_matches_oracle(none, many, vt);
  expect_matches_oracle(many, none, vt);
  expect_matches_oracle(one, one, vt);
  expect_matches_oracle(one, many, vt);
  expect_matches_oracle(many, one, vt);
  expect_matches_oracle(std::vector<DocId>{7}, one, vt);

  // A wholly below B and B wholly below A: whole tiles of one list, so la
  // or lb reaches span, and one tile holds the switch.
  const auto low = iota_list(2 * span + 5, 0);
  const auto high = iota_list(span + 300, 10 * static_cast<DocId>(span));
  expect_matches_oracle(low, high, vt);
  expect_matches_oracle(high, low, vt);

  // Five A elements below all of B, and |B| a multiple of 32: the last
  // tile's B part starts off a segment boundary and ends on one, so the
  // staging run that lb cuts short ends exactly at a segment edge.
  const auto head = iota_list(5, 0);
  const auto tail = iota_list(2 * span + 64, 10);
  expect_matches_oracle(head, tail, vt);
  expect_matches_oracle(tail, head, vt);

  // B is A plus one lower element, so every even diagonal lands inside an
  // equal pair: both nudge checks load at every boundary, the second nudge
  // fires at every block and even lane boundary, and tiles grow to
  // la + lb = span + 1, the most a tile can hold.
  const auto a = iota_list(4 * span + 3, 5, 2);
  std::vector<DocId> b{1};
  b.insert(b.end(), a.begin(), a.end());
  expect_matches_oracle(a, b, vt);
  expect_matches_oracle(b, a, vt);

  // Totals around whole tiles and over several tiles, partial overlap: tiles
  // start off segment boundaries, so runs cut short by lb cross segments.
  for (const std::size_t total :
       {span - 1, span, span + 1, 2 * span + 1, 7 * span + 3}) {
    griffin::util::Xoshiro256 rng(vt * 1000 + total);
    const auto pair = griffin::workload::make_pair_with_ratio(
        total * 2 / 3, 2.0, 4 * total, 0.5, rng);
    expect_matches_oracle(pair.shorter, pair.longer, vt);
  }
}

INSTANTIATE_TEST_SUITE_P(AblationSizes, MergePathTiles,
                         ::testing::Values(1u, 2u, 4u, 8u, 16u, 32u));

TEST(MergePath, LoadBalancedWorkAcrossWarps) {
  // The core claim of MergePath: launch 1 cuts the merge path into equal
  // spans however the values are distributed, so every block's work is
  // even. Measure the cut: each block stages the A + B elements between
  // its two boundaries, and a boundary sits on its diagonal i * span or
  // one element before it (the equal-pair nudge), so every block but the
  // last stages span - 1 to span + 1 elements.
  Gpu g;
  griffin::util::Xoshiro256 rng(77);
  // Heavily skewed value distribution (clustered) — naive static
  // partitioning by index would be fine, but partitioning by value (as
  // binary-search-per-thread schemes do) would be terrible.
  std::vector<DocId> a, b;
  DocId d = 0;
  for (int i = 0; i < 100'000; ++i) {
    d += (i < 50'000) ? 1 : 1000;  // half dense, half sparse
    a.push_back(d);
    if (rng.uniform01() < 0.5) b.push_back(d + (i % 2));
  }
  b.erase(std::unique(b.begin(), b.end()), b.end());
  EXPECT_EQ(run_mergepath(g, a, b), reference(a, b));
  // gpu::mergepath_intersect partitions exactly as the oracle does...
  expect_matches_oracle(a, b, gg::kItemsPerThread);

  // ...so the oracle's search yields the boundaries launch 1 writes.
  const std::uint64_t span = gg::kItemsPerThread * gg::kMergeBlockThreads;
  const std::uint64_t total = a.size() + b.size();
  const std::uint64_t nblocks = (total + span - 1) / span;
  std::vector<gg::reference::Boundary> bounds;
  griffin::simt::launch(g.dev, {1, 1}, [&](griffin::simt::Block& blk) {
    blk.for_each_thread([&](griffin::simt::Thread& t) {
      for (std::uint64_t i = 0; i <= nblocks; ++i) {
        bounds.push_back(gg::reference::merge_path_search(
            std::min(i * span, total), a.size(), b.size(),
            [&](std::uint64_t k) { return a[k]; },
            [&](std::uint64_t k) { return b[k]; }, t));
      }
    });
  });
  ASSERT_GT(nblocks, 100u);
  EXPECT_EQ(bounds.front().a + bounds.front().b, 0u);
  EXPECT_EQ(bounds.back().a + bounds.back().b, total);
  for (std::uint64_t i = 0; i + 1 < nblocks; ++i) {
    const std::uint64_t staged = (bounds[i + 1].a - bounds[i].a) +
                                 (bounds[i + 1].b - bounds[i].b);
    EXPECT_GE(staged, span - 1) << "block " << i;
    EXPECT_LE(staged, span + 1) << "block " << i;
  }
}

TEST(MergePath, CountsTransfersForOffsetsRoundTrip) {
  Gpu g;
  griffin::util::Xoshiro256 rng(3);
  const auto a = griffin::workload::make_uniform_list(4000, 400'000, rng);
  const auto b = griffin::workload::make_uniform_list(4000, 400'000, rng);
  run_mergepath(g, a, b);
  EXPECT_GT(g.ledger.transfers, 0u);
  EXPECT_GT(g.ledger.allocs, 0u);
  EXPECT_GT(g.ledger.total.ps(), 0);
}
