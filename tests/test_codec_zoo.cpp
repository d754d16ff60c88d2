// The codec zoo: per-codec randomized round-trips over list shapes chosen
// to stress each scheme, the Simple16 28-bit d-gap enforcement, the tagged
// block header views, and the adaptive selection policy (exact sizing,
// eligibility filtering, tie-breaking, and the adaptive <= best-fixed
// invariant CI gates on).
#include "codec/codec.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "codec/block_codec.h"
#include "util/rng.h"
#include "workload/corpus.h"

namespace gc = griffin::codec;

namespace {

std::vector<gc::DocId> uniform_docids(std::uint64_t n, gc::DocId universe,
                                      std::uint64_t seed) {
  griffin::util::Xoshiro256 rng(seed);
  return griffin::workload::make_uniform_list(n, universe, rng);
}

/// A repetitive-gap list: long runs of identical strides — the structure
/// Re-Pair's grammar collapses.
std::vector<gc::DocId> repetitive_docids(std::uint64_t n, std::uint64_t seed) {
  griffin::util::Xoshiro256 rng(seed);
  std::vector<gc::DocId> docs;
  docs.reserve(n);
  gc::DocId cur = 0;
  while (docs.size() < n) {
    const std::uint32_t stride = 1 + static_cast<std::uint32_t>(rng.bounded(4));
    const std::uint64_t run = 16 + rng.bounded(64);
    for (std::uint64_t i = 0; i < run && docs.size() < n; ++i) {
      cur += stride;
      docs.push_back(cur);
    }
  }
  return docs;
}

}  // namespace

TEST(CodecZoo, RandomizedPerCodecBlockRoundTrips) {
  // Every codec, several densities and sizes, straddling block boundaries.
  for (const gc::Scheme s : gc::all_schemes()) {
    for (const std::uint64_t n : {3ull, 128ull, 129ull, 1000ull, 4096ull}) {
      for (const gc::DocId universe :
           {static_cast<gc::DocId>(n * 2), static_cast<gc::DocId>(n * 100),
            static_cast<gc::DocId>(n * 3000)}) {
        const auto docs = uniform_docids(n, universe, n * 31 + universe);
        const auto list = gc::BlockCompressedList::build(docs, s);
        // Whole-list decode and per-block decode must both reproduce input.
        std::vector<gc::DocId> out;
        list.decode_all(out);
        ASSERT_EQ(out, docs) << gc::scheme_name(s) << " n=" << n;
        std::vector<gc::DocId> buf(gc::kBlockSize);
        for (std::size_t b = 0; b < list.num_blocks(); ++b) {
          const std::uint32_t cnt = list.decode_block(b, buf.data());
          for (std::uint32_t i = 0; i < cnt; ++i) {
            ASSERT_EQ(buf[i], docs[b * gc::kBlockSize + i])
                << gc::scheme_name(s) << " block " << b;
          }
        }
        // Every block header carries the list's scheme tag.
        for (const gc::BlockMeta& m : list.metas()) {
          EXPECT_EQ(m.hdr.scheme, s);
        }
      }
    }
  }
}

TEST(CodecZoo, RePairCompressesRepetitiveLists) {
  const auto docs = repetitive_docids(20'000, 77);
  const auto rp = gc::BlockCompressedList::build(docs, gc::Scheme::kRePair);
  std::vector<gc::DocId> out;
  rp.decode_all(out);
  EXPECT_EQ(out, docs);
  // The grammar must beat the byte-aligned baseline on this shape.
  const auto vb = gc::BlockCompressedList::build(docs, gc::Scheme::kVarByte);
  EXPECT_LT(rp.compressed_bytes(), vb.compressed_bytes());
}

TEST(CodecZoo, BP128WidthFollowsBlockMaxGap) {
  // All-equal gaps of 2^k - 1 need exactly k bits per slot.
  std::vector<gc::DocId> docs;
  gc::DocId cur = 0;
  for (int i = 0; i < 256; ++i) {
    cur += 8;  // gap-1 = 7 -> 3 bits
    docs.push_back(cur);
  }
  const auto list =
      gc::BlockCompressedList::build(docs, gc::Scheme::kBitPack128);
  for (const gc::BlockMeta& m : list.metas()) {
    EXPECT_EQ(m.hdr.b, 3) << "block max gap 7 packs at 3 bits";
  }
  std::vector<gc::DocId> out;
  list.decode_all(out);
  EXPECT_EQ(out, docs);
}

TEST(CodecZoo, Simple16RejectsOversizedGaps) {
  // A d-gap at the 2^28 limit must be rejected with a clear error at build.
  std::vector<gc::DocId> docs{0, (1u << 28) + 1};  // gap-1 == 2^28
  try {
    gc::BlockCompressedList::build(docs, gc::Scheme::kSimple16);
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("Simple16"), std::string::npos);
    EXPECT_NE(std::string(e.what()).find("adaptive"), std::string::npos);
  }
  // One below the limit is fine.
  std::vector<gc::DocId> ok{0, 1u << 28};  // gap-1 == 2^28 - 1
  const auto list = gc::BlockCompressedList::build(ok, gc::Scheme::kSimple16);
  std::vector<gc::DocId> out;
  list.decode_all(out);
  EXPECT_EQ(out, ok);
}

TEST(CodecZoo, SelectorRoutesOversizedGapsAwayFromSimple16) {
  // Whatever the selector picks for a >28-bit-gap list must build cleanly.
  std::vector<gc::DocId> docs{0, 1, (1u << 29), (1u << 29) + 5, 0xF0000000u};
  const gc::Scheme pick = gc::select_scheme(docs);
  EXPECT_NE(pick, gc::Scheme::kSimple16);
  const auto list = gc::BlockCompressedList::build(docs, pick);
  std::vector<gc::DocId> out;
  list.decode_all(out);
  EXPECT_EQ(out, docs);
}

TEST(CodecZoo, SelectionIsExactlyMinimal) {
  // The selector's pick must match an exhaustive build-and-measure over all
  // eligible schemes (ties to the earlier scheme in kSelectionOrder).
  for (const std::uint64_t seed : {1ull, 2ull, 3ull, 4ull}) {
    for (const std::uint64_t n : {200ull, 2000ull}) {
      const auto docs = uniform_docids(n, static_cast<gc::DocId>(n * 50), seed);
      const gc::Scheme pick = gc::select_scheme(docs);
      const auto picked = gc::BlockCompressedList::build(docs, pick);
      for (const gc::Scheme s : gc::all_schemes()) {
        const auto other = gc::BlockCompressedList::build(docs, s);
        EXPECT_LE(picked.compressed_bytes(), other.compressed_bytes())
            << "pick " << gc::scheme_name(pick) << " vs "
            << gc::scheme_name(s) << " seed " << seed;
      }
    }
  }
  // The repetitive shape must route to the grammar codec.
  const auto rep = repetitive_docids(5'000, 11);
  EXPECT_EQ(gc::select_scheme(rep), gc::Scheme::kRePair);
}

TEST(CodecZoo, TaggedHeaderViews) {
  const gc::PForHeader ph{7, 3, 42};
  const gc::BlockHeader hp = gc::BlockHeader::from_pfor(ph);
  EXPECT_EQ(hp.scheme, gc::Scheme::kPForDelta);
  EXPECT_EQ(hp.pfor().b, 7);
  EXPECT_EQ(hp.pfor().n_exceptions, 3);
  EXPECT_EQ(hp.pfor().first_exception, 42);

  const gc::EFHeader eh{5, 9};
  const gc::BlockHeader he = gc::BlockHeader::from_ef(eh);
  EXPECT_EQ(he.scheme, gc::Scheme::kEliasFano);
  EXPECT_EQ(he.ef().b, 5);
  EXPECT_EQ(he.ef().hb_words, 9u);
}

TEST(CodecZoo, RegistryCoversEveryScheme) {
  for (const gc::Scheme s : gc::all_schemes()) {
    const gc::PostingCodec& c = gc::codec_for(s);
    EXPECT_EQ(c.scheme(), s);
    EXPECT_FALSE(std::string(c.name()).empty());
  }
}
