#include "codec/simple16.h"

#include <gtest/gtest.h>

#include "codec/block_codec.h"
#include "util/rng.h"
#include "workload/corpus.h"

namespace gc = griffin::codec;

namespace {
std::vector<std::uint32_t> roundtrip(std::span<const std::uint32_t> values) {
  std::vector<std::uint32_t> words;
  const std::size_t nwords = gc::simple16_encode(values, words);
  EXPECT_EQ(nwords, words.size());
  EXPECT_EQ(nwords, gc::simple16_encoded_words(values));
  std::vector<std::uint32_t> out(values.size());
  const std::size_t consumed = gc::simple16_decode(
      words, static_cast<std::uint32_t>(values.size()), out.data());
  EXPECT_EQ(consumed, words.size());
  return out;
}
}  // namespace

TEST(Simple16, AllOnesPacks28PerWord) {
  const std::vector<std::uint32_t> v(56, 1);
  std::vector<std::uint32_t> words;
  EXPECT_EQ(gc::simple16_encode(v, words), 2u);  // 28 + 28
  std::vector<std::uint32_t> out(56);
  gc::simple16_decode(words, 56, out.data());
  EXPECT_EQ(out, v);
}

TEST(Simple16, AllZeros) {
  const std::vector<std::uint32_t> v(100, 0);
  EXPECT_EQ(roundtrip(v), v);
  EXPECT_LE(gc::simple16_encoded_words(v), 4u);
}

TEST(Simple16, SingleLargeValue) {
  const std::vector<std::uint32_t> v{(1u << 28) - 1};
  EXPECT_EQ(roundtrip(v), v);
}

TEST(Simple16, RejectsOver28Bits) {
  const std::vector<std::uint32_t> v{1u << 28};
  std::vector<std::uint32_t> words;
  EXPECT_THROW(gc::simple16_encode(v, words), std::invalid_argument);
}

TEST(Simple16, MixedMagnitudes) {
  const std::vector<std::uint32_t> v{0, 1, 1000, 3, 0, 200000, 1, 1, 1,
                                     5000000, 2, 0, 7, 130, 12};
  EXPECT_EQ(roundtrip(v), v);
}

TEST(Simple16, EmptyInput) {
  std::vector<std::uint32_t> words;
  EXPECT_EQ(gc::simple16_encode({}, words), 0u);
}

class Simple16Random
    : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(Simple16Random, RoundTrip) {
  const auto [size, width] = GetParam();
  griffin::util::Xoshiro256 rng(size * 7 + width);
  std::vector<std::uint32_t> v(size);
  for (auto& x : v) {
    x = static_cast<std::uint32_t>(rng.bounded(1ull << width));
  }
  EXPECT_EQ(roundtrip(v), v);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, Simple16Random,
    ::testing::Combine(::testing::Values(1, 2, 27, 28, 29, 127, 1000),
                       ::testing::Values(1, 3, 7, 14, 28)));

TEST(Simple16, BlockCodecIntegration) {
  griffin::util::Xoshiro256 rng(12);
  const auto docs = griffin::workload::make_uniform_list(5000, 160'000, rng);
  const auto list =
      gc::BlockCompressedList::build(docs, gc::Scheme::kSimple16);
  std::vector<gc::DocId> out;
  list.decode_all(out);
  EXPECT_EQ(out, docs);
  // Small gaps pack densely: well under raw 32 bits/posting.
  EXPECT_LT(list.bits_per_posting(), 12.0);
}

TEST(Simple16, BlockCodecDenseAndSparseBlocks) {
  // Alternate dense runs and big jumps across block boundaries.
  std::vector<gc::DocId> docs;
  gc::DocId d = 0;
  griffin::util::Xoshiro256 rng(13);
  for (int i = 0; i < 2000; ++i) {
    d += (i % 300 == 299) ? 100'000 : 1 + rng.bounded(4);
    docs.push_back(d);
  }
  const auto list =
      gc::BlockCompressedList::build(docs, gc::Scheme::kSimple16);
  std::vector<gc::DocId> out;
  list.decode_all(out);
  EXPECT_EQ(out, docs);
}
