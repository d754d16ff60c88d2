// The codec zoo: per-codec randomized round-trips over list shapes chosen
// to stress each scheme, the Simple16 28-bit d-gap enforcement, the tagged
// block header views, and the adaptive selection policy (exact sizing,
// eligibility filtering, tie-breaking, a list on which each codec is the
// pick, and the adaptive <= best-fixed invariant CI gates on).
#include "codec/codec.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "codec/block_codec.h"
#include "util/rng.h"
#include "workload/corpus.h"

namespace gc = griffin::codec;
using Rng = griffin::util::Xoshiro256;

namespace {

std::vector<gc::DocId> uniform_docids(std::uint64_t n, gc::DocId universe,
                                      std::uint64_t seed) {
  Rng rng(seed);
  return griffin::workload::make_uniform_list(n, universe, rng);
}

/// A list built from `n` d-gaps drawn by `gap(rng)` (each >= 1).
template <typename GapFn>
std::vector<gc::DocId> docids_from_gaps(std::uint64_t n, std::uint64_t seed,
                                        GapFn gap) {
  Rng rng(seed);
  std::vector<gc::DocId> docs{0};
  while (docs.size() < n) docs.push_back(docs.back() + gap(rng));
  return docs;
}

/// A hand-built list on which `s` is the selector's pick: each shape plays
/// to one codec's strength. A scheme added to the enum without a shape here
/// trips -Wswitch.
std::vector<gc::DocId> list_selecting(gc::Scheme s) {
  constexpr std::uint64_t n = 2'000;
  switch (s) {
    case gc::Scheme::kPForDelta:
      // Wide uniform gaps: one slot width fits nearly every gap.
      return docids_from_gaps(n, 1, [](Rng& rng) {
        return static_cast<gc::DocId>(1 + rng.bounded(2'000));
      });
    case gc::Scheme::kEliasFano:
      // Mostly consecutive docIDs: a dense universe per block.
      return docids_from_gaps(n, 2, [](Rng& rng) {
        return static_cast<gc::DocId>(
            rng.bounded(100) < 80 ? 1 : 1 + rng.bounded(64));
      });
    case gc::Scheme::kVarByte:
      // Gaps alternating between 1 and 2^20: every fixed width pays for
      // the large half, and bytes fit each gap.
      return docids_from_gaps(n, 3, [i = 0](Rng&) mutable {
        return static_cast<gc::DocId>(i++ % 2 == 0 ? 1 : 1u << 20);
      });
    case gc::Scheme::kSimple16:
      // Small gaps with rare large ones: selectors pack the small runs
      // densely and spend a wide word only where a large gap lands.
      return docids_from_gaps(n, 4, [](Rng& rng) {
        return static_cast<gc::DocId>(rng.bounded(100) < 3
                                          ? 5'000 + rng.bounded(5'001)
                                          : 1 + rng.bounded(8));
      });
  }
  return {};
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
  const auto expect_minimal = [](const std::vector<gc::DocId>& docs,
                                 const std::string& what) {
    const gc::Scheme pick = gc::select_scheme(docs);
    const auto picked = gc::BlockCompressedList::build(docs, pick);
    for (const gc::Scheme s : gc::all_schemes()) {
      const auto other = gc::BlockCompressedList::build(docs, s);
      EXPECT_LE(picked.compressed_bytes(), other.compressed_bytes())
          << "pick " << gc::scheme_name(pick) << " vs " << gc::scheme_name(s)
          << " on " << what;
    }
    return pick;
  };
  for (const std::uint64_t seed : {1ull, 2ull, 3ull, 4ull}) {
    for (const std::uint64_t n : {200ull, 2000ull}) {
      const auto docs = uniform_docids(n, static_cast<gc::DocId>(n * 50), seed);
      expect_minimal(docs, "uniform seed " + std::to_string(seed));
    }
  }
  // Every registered codec is the pick on some list, so a codec the
  // selector can no longer reach fails here.
  for (const gc::Scheme s : gc::all_schemes()) {
    EXPECT_EQ(expect_minimal(list_selecting(s), gc::scheme_name(s)), s)
        << "the " << gc::scheme_name(s) << "-shaped list";
  }
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
