#include "index/io.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <vector>

#include "codec/codec.h"
#include "util/rng.h"
#include "workload/corpus.h"

using namespace griffin;

namespace {
std::string temp_path(const char* name) {
  return (std::filesystem::temp_directory_path() / name).string();
}

/// Writes `bytes` to `path` with the byte at `offset` set to `value`.
void write_patched(std::vector<char> bytes, std::uint64_t offset,
                   std::uint8_t value, const std::string& path) {
  bytes.at(offset) = static_cast<char>(value);
  std::ofstream(path, std::ios::binary).write(bytes.data(), bytes.size());
}
}  // namespace

TEST(IndexIO, RoundTripPreservesEverything) {
  workload::CorpusConfig cfg;
  cfg.num_docs = 30'000;
  cfg.num_terms = 40;
  cfg.seed = 9;
  const auto idx = workload::generate_corpus(cfg);

  const std::string path = temp_path("griffin_test_index.bin");
  index::save_index(idx, path);
  const auto loaded = index::load_index(path);
  std::remove(path.c_str());

  EXPECT_EQ(loaded.scheme(), idx.scheme());
  EXPECT_EQ(loaded.num_terms(), idx.num_terms());
  EXPECT_EQ(loaded.docs().num_docs(), idx.docs().num_docs());
  EXPECT_EQ(loaded.total_postings(), idx.total_postings());
  EXPECT_EQ(loaded.compressed_docid_bytes(), idx.compressed_docid_bytes());
  for (index::DocId d = 0; d < idx.docs().num_docs(); d += 997) {
    EXPECT_EQ(loaded.docs().length(d), idx.docs().length(d));
  }
  for (index::TermId t = 0; t < idx.num_terms(); ++t) {
    std::vector<index::DocId> a, b;
    idx.list(t).docids.decode_all(a);
    loaded.list(t).docids.decode_all(b);
    ASSERT_EQ(a, b) << "term " << t;
    ASSERT_EQ(loaded.list(t).freqs, idx.list(t).freqs) << "term " << t;
  }
}

TEST(IndexIO, PForSchemeRoundTrips) {
  workload::CorpusConfig cfg;
  cfg.num_docs = 10'000;
  cfg.num_terms = 10;
  cfg.scheme = codec::Scheme::kPForDelta;
  const auto idx = workload::generate_corpus(cfg);
  const std::string path = temp_path("griffin_test_index_pfor.bin");
  index::save_index(idx, path);
  const auto loaded = index::load_index(path);
  std::remove(path.c_str());
  std::vector<index::DocId> a, b;
  idx.list(3).docids.decode_all(a);
  loaded.list(3).docids.decode_all(b);
  EXPECT_EQ(a, b);
}

TEST(IndexIO, MixedSchemeRoundTrip) {
  // One list per codec (explicitly forced) plus one adaptively selected —
  // the v4 format must preserve each list's own scheme and the index's
  // adaptive policy flag.
  index::InvertedIndex idx(index::CodecPolicy{codec::Scheme::kEliasFano, true});
  util::Xoshiro256 rng(21);
  for (const codec::Scheme s : codec::all_schemes()) {
    const auto docs = workload::make_uniform_list(700, 40'000, rng);
    const std::vector<std::uint32_t> freqs(docs.size(), 2);
    idx.add_list_as(s, docs, freqs);
  }
  idx.add_list(workload::make_uniform_list(700, 40'000, rng));
  idx.docs().resize(40'000);
  for (index::DocId d = 0; d < 40'000; ++d) idx.docs().set_length(d, d % 7);

  const std::string path = temp_path("griffin_test_index_mixed.bin");
  index::save_index(idx, path);
  const auto loaded = index::load_index(path);
  std::remove(path.c_str());

  EXPECT_TRUE(loaded.adaptive());
  EXPECT_EQ(loaded.scheme(), codec::Scheme::kEliasFano);
  ASSERT_EQ(loaded.num_terms(), idx.num_terms());
  for (index::TermId t = 0; t < idx.num_terms(); ++t) {
    EXPECT_EQ(loaded.list(t).docids.scheme(), idx.list(t).docids.scheme())
        << "term " << t;
    std::vector<index::DocId> a, b;
    idx.list(t).docids.decode_all(a);
    loaded.list(t).docids.decode_all(b);
    ASSERT_EQ(a, b) << "term " << t;
    ASSERT_EQ(loaded.list(t).freqs, idx.list(t).freqs) << "term " << t;
  }
}

TEST(IndexIO, RejectsLegacyV3File) {
  // Only v4 is read: a v3 header (which still stored a block size) fails
  // the version check before any payload is touched.
  const std::string path = temp_path("griffin_test_index_v3.bin");
  std::FILE* f = std::fopen(path.c_str(), "wb");
  ASSERT_NE(f, nullptr);
  const std::uint64_t magic = 0x4752494646494E31ull;
  const std::uint32_t version = 3;
  std::fwrite(&magic, sizeof(magic), 1, f);
  std::fwrite(&version, sizeof(version), 1, f);
  std::fclose(f);
  try {
    index::load_index(path);
    ADD_FAILURE() << "a v3 file loaded";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "index load: version mismatch");
  }
  std::remove(path.c_str());
}

TEST(IndexIO, RejectsSchemeTagsThatNameNoCodec) {
  // A tag no codec owns must fail the load instead of decoding as another
  // codec later: 4 and 5 once named removed codecs, and 255 never named one.
  // The policy byte, each list's byte and each block header's byte are
  // checked, and a block's tag must equal its list's.
  constexpr index::DocId kDocs = 1'000;
  index::InvertedIndex idx(index::CodecPolicy{codec::Scheme::kEliasFano});
  util::Xoshiro256 rng(5);
  idx.add_list(workload::make_uniform_list(300, kDocs, rng));
  idx.docs().resize(kDocs);
  const std::string path = temp_path("griffin_test_index_tags.bin");
  index::save_index(idx, path);
  std::ifstream in(path, std::ios::binary);
  const std::vector<char> bytes{std::istreambuf_iterator<char>(in), {}};
  std::remove(path.c_str());

  // v4 offsets: magic (8) and version (4) precede the policy's scheme byte;
  // the adaptive flag (1), the document count (8), one length per document
  // (4 each), the term count (8) and the list's size (8) precede the list's
  // byte; its blob (a word count, then the words), its block count (8) and
  // the first block's first, last, bit offset and count precede that
  // block's byte.
  const std::uint64_t policy_tag = 8 + 4;
  const std::uint64_t list_tag = policy_tag + 1 + 1 + 8 + 4 * kDocs + 8 + 8;
  const std::uint64_t block_tag =
      list_tag + 1 + 8 + 8 * idx.list(0).docids.blob().size() + 8 + 4 + 4 +
      8 + 2;
  const auto ef = static_cast<char>(codec::Scheme::kEliasFano);
  ASSERT_EQ(bytes.at(policy_tag), ef);
  ASSERT_EQ(bytes.at(list_tag), ef);
  ASSERT_EQ(bytes.at(block_tag), ef);

  const std::string patched = temp_path("griffin_test_index_tags_patched.bin");
  write_patched(bytes, list_tag, bytes.at(list_tag), patched);
  EXPECT_NO_THROW(index::load_index(patched)) << "the unpatched file";
  const auto rejects = [&](std::uint64_t offset, std::uint8_t tag) {
    write_patched(bytes, offset, tag, patched);
    EXPECT_THROW(index::load_index(patched), std::runtime_error)
        << "tag " << int{tag} << " at byte " << offset;
  };
  rejects(list_tag, 4);
  rejects(list_tag, 255);
  rejects(policy_tag, 4);
  rejects(block_tag, 5);
  // A codec's tag, but not the block's list's.
  rejects(block_tag, static_cast<std::uint8_t>(codec::Scheme::kVarByte));
  std::remove(patched.c_str());
}

TEST(IndexIO, MissingFileThrows) {
  EXPECT_THROW(index::load_index("/nonexistent/griffin.bin"),
               std::runtime_error);
}

TEST(IndexIO, CorruptMagicThrows) {
  const std::string path = temp_path("griffin_test_corrupt.bin");
  std::FILE* f = std::fopen(path.c_str(), "wb");
  ASSERT_NE(f, nullptr);
  const char junk[64] = "not an index";
  std::fwrite(junk, 1, sizeof(junk), f);
  std::fclose(f);
  EXPECT_THROW(index::load_index(path), std::runtime_error);
  std::remove(path.c_str());
}

TEST(IndexIO, TruncatedFileThrows) {
  workload::CorpusConfig cfg;
  cfg.num_docs = 5'000;
  cfg.num_terms = 5;
  const auto idx = workload::generate_corpus(cfg);
  const std::string path = temp_path("griffin_test_trunc.bin");
  index::save_index(idx, path);
  // Truncate to half.
  const auto full = std::filesystem::file_size(path);
  std::filesystem::resize_file(path, full / 2);
  EXPECT_THROW(index::load_index(path), std::runtime_error);
  std::remove(path.c_str());
}
