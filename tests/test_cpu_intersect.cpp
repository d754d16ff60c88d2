#include "cpu/intersect.h"

#include <gtest/gtest.h>

#include <algorithm>

#include "util/rng.h"
#include "workload/corpus.h"

namespace gc = griffin::cpu;
using griffin::codec::BlockCompressedList;
using griffin::codec::DocId;
using griffin::codec::Scheme;

namespace {

std::vector<DocId> reference_intersect(std::span<const DocId> a,
                                       std::span<const DocId> b) {
  std::vector<DocId> out;
  std::set_intersection(a.begin(), a.end(), b.begin(), b.end(),
                        std::back_inserter(out));
  return out;
}

griffin::sim::CpuSpec spec;

}  // namespace

TEST(CpuIntersect, DecodedMergeSmall) {
  // PPoPP × Austria (§2.1.2): the two-pointer merge runs 10 compare-and-
  // advance iterations (5 matches, 5 lone advances of b) before a runs out,
  // and charges one merge step and one DocId read per iteration, as the
  // block-wise merges do — a match is one step, not two.
  const std::vector<DocId> a{11, 15, 17, 38, 60};
  const std::vector<DocId> b{3, 5, 8, 11, 13, 15, 17, 38, 46, 60, 65};
  griffin::sim::CpuCostAccumulator acc(spec);
  std::vector<DocId> out;
  gc::merge_intersect(std::span<const DocId>(a), std::span<const DocId>(b),
                      out, acc);
  EXPECT_EQ(out, (std::vector<DocId>{11, 15, 17, 38, 60}));
  EXPECT_DOUBLE_EQ(acc.cycles(), 10 * spec.merge_step_cycles);
  EXPECT_EQ(acc.bytes(), 10 * sizeof(DocId));
}

TEST(CpuIntersect, PaperSvSExample) {
  // §2.1.2: PPoPP / Austria / 2018.
  const std::vector<DocId> ppopp{11, 15, 17, 38, 60};
  const std::vector<DocId> austria{3, 5, 8, 11, 13, 15, 17, 38, 46, 60, 65};
  const std::vector<DocId> y2018{2,  4,  6,  11, 13, 14, 15,
                                 19, 25, 33, 38, 60, 70};
  griffin::sim::CpuCostAccumulator acc(spec);
  std::vector<DocId> tmp, out;
  gc::merge_intersect(std::span<const DocId>(ppopp),
                      std::span<const DocId>(austria), tmp, acc);
  gc::merge_intersect(std::span<const DocId>(tmp),
                      std::span<const DocId>(y2018), out, acc);
  EXPECT_EQ(out, (std::vector<DocId>{11, 15, 38, 60}));
}

TEST(CpuIntersect, EmptyAndDisjoint) {
  griffin::sim::CpuCostAccumulator acc(spec);
  std::vector<DocId> out;
  const std::vector<DocId> a{1, 2, 3};
  const std::vector<DocId> empty;
  gc::merge_intersect(std::span<const DocId>(a), std::span<const DocId>(empty),
                      out, acc);
  EXPECT_TRUE(out.empty());
  const std::vector<DocId> b{10, 20, 30};
  gc::merge_intersect(std::span<const DocId>(a), std::span<const DocId>(b),
                      out, acc);
  EXPECT_TRUE(out.empty());
}

class CpuIntersectParam
    : public ::testing::TestWithParam<std::tuple<Scheme, int, double>> {};

TEST_P(CpuIntersectParam, AllVariantsMatchReference) {
  const auto [scheme, longer_size, ratio] = GetParam();
  griffin::util::Xoshiro256 rng(longer_size ^ static_cast<int>(ratio * 8));
  const auto pair = griffin::workload::make_pair_with_ratio(
      longer_size, ratio, 40'000'000, 0.35, rng);
  const auto expect = reference_intersect(pair.shorter, pair.longer);

  const auto la = BlockCompressedList::build(pair.shorter, scheme);
  const auto lb = BlockCompressedList::build(pair.longer, scheme);

  {
    griffin::sim::CpuCostAccumulator acc(spec);
    std::vector<DocId> out;
    gc::merge_intersect(std::span<const DocId>(pair.shorter),
                        std::span<const DocId>(pair.longer), out, acc);
    EXPECT_EQ(out, expect) << "decoded x decoded";
  }
  {
    griffin::sim::CpuCostAccumulator acc(spec);
    std::vector<DocId> out;
    gc::merge_intersect(std::span<const DocId>(pair.shorter), lb, out, acc);
    EXPECT_EQ(out, expect) << "decoded x compressed";
  }
  {
    griffin::sim::CpuCostAccumulator acc(spec);
    std::vector<DocId> out;
    gc::merge_intersect(la, std::span<const DocId>(pair.longer), out, acc);
    EXPECT_EQ(out, expect) << "compressed x decoded";
  }
  {
    griffin::sim::CpuCostAccumulator acc(spec);
    std::vector<DocId> out;
    gc::merge_intersect(la, lb, out, acc);
    EXPECT_EQ(out, expect) << "compressed x compressed";
  }
  {
    griffin::sim::CpuCostAccumulator acc(spec);
    std::vector<DocId> out;
    gc::skip_intersect(pair.shorter, lb, out, acc);
    EXPECT_EQ(out, expect) << "skip";
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, CpuIntersectParam,
    ::testing::Combine(::testing::Values(Scheme::kEliasFano,
                                         Scheme::kPForDelta),
                       ::testing::Values(500, 5000, 100000),
                       ::testing::Values(1.0, 4.0, 60.0, 300.0)));

TEST(CpuIntersect, SkipDecodesFewerBlocksAtHighRatio) {
  griffin::util::Xoshiro256 rng(44);
  const auto pair = griffin::workload::make_pair_with_ratio(
      512 * 1024, 512.0, 40'000'000, 0.3, rng);
  const auto lb =
      BlockCompressedList::build(pair.longer, Scheme::kEliasFano);

  griffin::sim::CpuCostAccumulator skip_acc(spec), merge_acc(spec);
  std::vector<DocId> out1, out2;
  gc::skip_intersect(pair.shorter, lb, out1, skip_acc);
  gc::merge_intersect(std::span<const DocId>(pair.shorter), lb, out2,
                      merge_acc);
  EXPECT_EQ(out1, out2);
  // At ratio 512 the skip variant must be far cheaper than the full merge.
  EXPECT_LT(skip_acc.time().ps() * 5, merge_acc.time().ps());
}

TEST(CpuIntersect, DecodedTargetMergesNoDearerThanCompressed) {
  // What a host decoded-cache hit saves on the merge path: against the
  // decoded target the merge pays the same steps and no block decode, so it
  // may not cost more than against the compressed target, decodes included
  // (a 48,231 × 200,000 Elias-Fano pair with 24,515 matches).
  griffin::util::Xoshiro256 rng(3);
  const auto pair = griffin::workload::make_pair_with_ratio(
      200'000, 4.0, 4'000'000, 0.5, rng);
  const auto lb = BlockCompressedList::build(pair.longer, Scheme::kEliasFano);
  griffin::sim::CpuCostAccumulator decoded_acc(spec), compressed_acc(spec);
  std::vector<DocId> out1, out2;
  gc::merge_intersect(std::span<const DocId>(pair.shorter),
                      std::span<const DocId>(pair.longer), out1, decoded_acc);
  gc::merge_intersect(std::span<const DocId>(pair.shorter), lb, out2,
                      compressed_acc);
  EXPECT_EQ(out1, out2);
  EXPECT_LE(decoded_acc.cycles(), compressed_acc.cycles());
  EXPECT_LE(decoded_acc.time().ps(), compressed_acc.time().ps());
}

TEST(CpuIntersect, MergeCheaperAtEqualLengths) {
  griffin::util::Xoshiro256 rng(45);
  const auto pair = griffin::workload::make_pair_with_ratio(
      100'000, 1.0, 10'000'000, 0.3, rng);
  const auto lb =
      BlockCompressedList::build(pair.longer, Scheme::kEliasFano);
  griffin::sim::CpuCostAccumulator skip_acc(spec), merge_acc(spec);
  std::vector<DocId> out1, out2;
  gc::skip_intersect(pair.shorter, lb, out1, skip_acc);
  gc::merge_intersect(std::span<const DocId>(pair.shorter), lb, out2,
                      merge_acc);
  EXPECT_EQ(out1, out2);
  EXPECT_LT(merge_acc.time().ps(), skip_acc.time().ps());
}

TEST(CpuIntersect, EveryVariantEmitsMatchPositions) {
  // Each match's row on the probe side and its position in the target, for
  // every variant over compressed and decoded views: both lists span many
  // blocks, so a position off by a block or a row shows.
  griffin::util::Xoshiro256 rng(31);
  const auto pair = griffin::workload::make_pair_with_ratio(
      3'000, 40.0, 10'000'000, 0.5, rng);
  const auto& a = pair.shorter;
  const auto& b = pair.longer;
  const auto la = BlockCompressedList::build(a, Scheme::kEliasFano);
  const auto lb = BlockCompressedList::build(b, Scheme::kEliasFano);
  const auto want = reference_intersect(a, b);
  const auto index_in = [](const std::vector<DocId>& list, DocId d) {
    return static_cast<std::uint32_t>(
        std::lower_bound(list.begin(), list.end(), d) - list.begin());
  };
  const auto check = [&](const char* label, auto&& run) {
    griffin::sim::CpuCostAccumulator acc(spec);
    std::vector<DocId> out;
    gc::MatchPositions at;
    run(out, acc, at);
    ASSERT_EQ(out, want) << label;
    ASSERT_EQ(at.rows.size(), want.size()) << label;
    ASSERT_EQ(at.pos.size(), want.size()) << label;
    for (std::size_t k = 0; k < want.size(); ++k) {
      EXPECT_EQ(at.rows[k], index_in(a, want[k])) << label << " match " << k;
      EXPECT_EQ(at.pos[k], index_in(b, want[k])) << label << " match " << k;
    }
  };
  const std::span<const DocId> da(a), db(b);
  check("merge compressed", [&](auto& out, auto& acc, auto& at) {
    gc::merge_intersect(std::cref(la), std::cref(lb), out, acc, &at);
  });
  check("merge decoded", [&](auto& out, auto& acc, auto& at) {
    gc::merge_intersect(da, db, out, acc, &at);
  });
  check("merge mixed", [&](auto& out, auto& acc, auto& at) {
    gc::merge_intersect(da, std::cref(lb), out, acc, &at);
  });
  check("skip compressed", [&](auto& out, auto& acc, auto& at) {
    gc::skip_intersect(da, lb, out, acc, &at);
  });
  check("skip decoded", [&](auto& out, auto& acc, auto& at) {
    gc::skip_intersect(da, db, out, acc, &at);
  });
}
