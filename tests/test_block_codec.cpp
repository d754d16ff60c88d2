#include "codec/block_codec.h"

#include <gtest/gtest.h>

#include <algorithm>

#include "codec/codec.h"
#include "util/rng.h"
#include "workload/corpus.h"

namespace gc = griffin::codec;

namespace {
std::vector<gc::DocId> random_docids(std::uint64_t n, gc::DocId universe,
                                     std::uint64_t seed) {
  griffin::util::Xoshiro256 rng(seed);
  return griffin::workload::make_uniform_list(n, universe, rng);
}
}  // namespace

class BlockCodecTest
    : public ::testing::TestWithParam<std::tuple<gc::Scheme, int>> {};

TEST_P(BlockCodecTest, RoundTripAndMetadata) {
  const auto [scheme, size] = GetParam();
  const auto docs = random_docids(size, 10'000'000, size * 7 + gc::kBlockSize);
  const auto list = gc::BlockCompressedList::build(docs, scheme);

  EXPECT_EQ(list.size(), docs.size());
  EXPECT_EQ(list.num_blocks(),
            (docs.size() + gc::kBlockSize - 1) / gc::kBlockSize);
  EXPECT_EQ(list.first_docid(), docs.front());
  EXPECT_EQ(list.last_docid(), docs.back());

  std::vector<gc::DocId> out;
  list.decode_all(out);
  EXPECT_EQ(out, docs);

  // Per-block metadata is consistent.
  std::uint64_t total = 0;
  for (std::size_t b = 0; b < list.num_blocks(); ++b) {
    const auto& m = list.meta(b);
    EXPECT_LE(m.first, m.last);
    total += m.count;
    if (b > 0) {
      EXPECT_GT(m.first, list.meta(b - 1).last);
    }
  }
  EXPECT_EQ(total, docs.size());
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, BlockCodecTest,
    ::testing::Combine(::testing::ValuesIn(gc::all_schemes()),
                       ::testing::Values(1, 2, 127, 128, 129, 255, 256, 257,
                                         5000)));

TEST(BlockCodec, DecodeSingleBlock) {
  const auto docs = random_docids(1000, 1'000'000, 3);
  const auto list =
      gc::BlockCompressedList::build(docs, gc::Scheme::kEliasFano);
  std::vector<gc::DocId> buf(gc::kBlockSize);
  for (std::size_t b = 0; b < list.num_blocks(); ++b) {
    const std::uint32_t n = list.decode_block(b, buf.data());
    for (std::uint32_t i = 0; i < n; ++i) {
      EXPECT_EQ(buf[i], docs[b * gc::kBlockSize + i]);
    }
  }
}

TEST(BlockCodec, EFBeatsPForOnCompressionForTypicalGaps) {
  // Table 1's direction: EF compresses typical (geometric-gap) posting
  // lists tighter than PForDelta.
  const auto docs = random_docids(100'000, 3'200'000, 17);  // density 1/32
  const auto ef = gc::BlockCompressedList::build(docs, gc::Scheme::kEliasFano);
  const auto pf = gc::BlockCompressedList::build(docs, gc::Scheme::kPForDelta);
  EXPECT_LT(ef.compressed_bytes(), pf.compressed_bytes());
  // And both beat the raw 32-bit representation.
  EXPECT_LT(ef.compressed_bytes(), docs.size() * 4);
  EXPECT_LT(pf.compressed_bytes(), docs.size() * 4);
}

TEST(BlockCodec, RejectsEmpty) {
  const std::vector<gc::DocId> empty;
  EXPECT_THROW(gc::BlockCompressedList::build(empty, gc::Scheme::kEliasFano),
               std::invalid_argument);
}

TEST(BlockCodec, AdjacentDocids) {
  // Consecutive docIDs (gap 1 everywhere) — the d-gap minus one encoding
  // stores all zeros.
  std::vector<gc::DocId> docs(500);
  for (std::uint32_t i = 0; i < 500; ++i) docs[i] = 1000 + i;
  for (const gc::Scheme scheme : gc::all_schemes()) {
    const auto list = gc::BlockCompressedList::build(docs, scheme);
    std::vector<gc::DocId> out;
    list.decode_all(out);
    EXPECT_EQ(out, docs) << gc::scheme_name(scheme);
    // Dense runs compress extremely well (VByte bottoms out at one byte
    // per gap plus skip overhead).
    const double bound = scheme == gc::Scheme::kVarByte ? 10.0 : 6.0;
    EXPECT_LT(list.bits_per_posting(), bound) << gc::scheme_name(scheme);
  }
}

TEST(BlockCodec, HugeGaps) {
  // Near-32-bit docid jumps.
  // (Simple16 is excluded: these gaps exceed its 28-bit limit — see
  // CodecZoo.Simple16RejectsOversizedGaps.)
  std::vector<gc::DocId> docs{0, 1, 0x40000000u, 0x40000001u, 0xFFFFFFF0u,
                              0xFFFFFFFFu};
  for (const auto scheme : {gc::Scheme::kPForDelta, gc::Scheme::kEliasFano,
                            gc::Scheme::kVarByte}) {
    const auto list = gc::BlockCompressedList::build(docs, scheme);
    std::vector<gc::DocId> out;
    list.decode_all(out);
    EXPECT_EQ(out, docs) << gc::scheme_name(scheme);
  }
}
