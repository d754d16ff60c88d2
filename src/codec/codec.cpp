#include "codec/codec.h"

#include <algorithm>
#include <cassert>

#include "codec/simple16.h"
#include "codec/varbyte.h"
#include "util/bits.h"

namespace griffin::codec {

namespace {

/// d-gaps minus one (docids are strictly increasing) for positions [1, n).
void gaps_of(std::span<const DocId> docids, std::vector<std::uint32_t>& gaps) {
  gaps.clear();
  for (std::size_t i = 1; i < docids.size(); ++i) {
    assert(docids[i] > docids[i - 1]);
    gaps.push_back(docids[i] - docids[i - 1] - 1);
  }
}

/// Rebuilds absolute docIDs from `first` and count-1 d-gaps.
void undelta(DocId first, const std::uint32_t* gaps, std::uint32_t count,
             DocId* out) {
  out[0] = first;
  for (std::uint32_t i = 1; i < count; ++i) {
    out[i] = out[i - 1] + gaps[i - 1] + 1;
  }
}

class PForCodec final : public PostingCodec {
 public:
  Scheme scheme() const override { return Scheme::kPForDelta; }
  const char* name() const override { return "PForDelta"; }

  BlockHeader encode_block(std::span<const DocId> block,
                           std::vector<std::uint64_t>& blob,
                           std::uint64_t& bit_pos,
                           const EncodeOptions& opt) const override {
    std::vector<std::uint32_t> gaps;
    gaps_of(block, gaps);
    return BlockHeader::from_pfor(
        pfor_encode(gaps, blob, bit_pos, opt.pfor_forced_b));
  }

  void decode_block(std::span<const std::uint64_t> blob, const BlockMeta& m,
                    DocId* out) const override {
    std::uint32_t gaps[1 << 12];
    assert(m.count <= (1u << 12));
    pfor_decode(blob, m.bit_offset, m.count - 1u, m.hdr.pfor(), gaps);
    undelta(m.first, gaps, m.count, out);
  }

  std::uint64_t encoded_bits(std::span<const DocId> block,
                             const EncodeOptions& opt) const override {
    std::vector<std::uint32_t> gaps;
    gaps_of(block, gaps);
    return pfor_encoded_bits(gaps, opt.pfor_forced_b);
  }
};

class EFCodec final : public PostingCodec {
 public:
  Scheme scheme() const override { return Scheme::kEliasFano; }
  const char* name() const override { return "EF"; }

  BlockHeader encode_block(std::span<const DocId> block,
                           std::vector<std::uint64_t>& blob,
                           std::uint64_t& bit_pos,
                           const EncodeOptions&) const override {
    // Absolute values relative to the block's first docID (v0 == 0);
    // universe is the in-block range.
    std::vector<std::uint32_t> rel;
    rel.reserve(block.size());
    for (DocId d : block) rel.push_back(d - block.front());
    return BlockHeader::from_ef(
        ef_encode(rel, block.back() - block.front(), blob, bit_pos));
  }

  void decode_block(std::span<const std::uint64_t> blob, const BlockMeta& m,
                    DocId* out) const override {
    ef_decode(blob, m.bit_offset, m.count, m.hdr.ef(), out);
    for (std::uint32_t i = 0; i < m.count; ++i) out[i] += m.first;
  }

  std::uint64_t encoded_bits(std::span<const DocId> block,
                             const EncodeOptions&) const override {
    return ef_encoded_bits(block.back() - block.front(), block.size());
  }
};

class Simple16Codec final : public PostingCodec {
 public:
  Scheme scheme() const override { return Scheme::kSimple16; }
  const char* name() const override { return "Simple16"; }

  bool can_encode(std::span<const DocId> block) const override {
    for (std::size_t i = 1; i < block.size(); ++i) {
      if (block[i] - block[i - 1] - 1 >= (1u << 28)) return false;
    }
    return true;
  }

  BlockHeader encode_block(std::span<const DocId> block,
                           std::vector<std::uint64_t>& blob,
                           std::uint64_t& bit_pos,
                           const EncodeOptions&) const override {
    std::vector<std::uint32_t> gaps;
    gaps_of(block, gaps);
    std::vector<std::uint32_t> words;
    simple16_encode(gaps, words);
    const std::uint64_t end_bits = bit_pos + 32ull * words.size();
    blob.resize(
        std::max<std::size_t>(blob.size(), util::words_for_bits(end_bits)), 0);
    for (std::size_t i = 0; i < words.size(); ++i) {
      util::write_bits(blob.data(), bit_pos + 32ull * i, 32, words[i]);
    }
    bit_pos = end_bits;
    return BlockHeader{Scheme::kSimple16, 0, 0, 0, 0};
  }

  void decode_block(std::span<const std::uint64_t> blob, const BlockMeta& m,
                    DocId* out) const override {
    // Gather the block's Simple16 words, then unpack the gaps.
    std::uint32_t gaps[1 << 12];
    std::uint32_t words[1 << 12];
    assert(m.count <= (1u << 12));
    // Upper bound on words: one per gap, clamped to the blob's end (the
    // last block's payload may be shorter).
    const std::uint64_t avail = (blob.size() * 64 - m.bit_offset) / 32;
    const std::uint32_t max_words = static_cast<std::uint32_t>(
        std::min<std::uint64_t>({m.count, 1u << 12, avail}));
    for (std::uint32_t i = 0; i < max_words; ++i) {
      words[i] = static_cast<std::uint32_t>(
          util::read_bits(blob.data(), m.bit_offset + 32ull * i, 32));
    }
    simple16_decode(std::span<const std::uint32_t>(words, max_words),
                    m.count - 1u, gaps);
    undelta(m.first, gaps, m.count, out);
  }

  std::uint64_t encoded_bits(std::span<const DocId> block,
                             const EncodeOptions&) const override {
    std::vector<std::uint32_t> gaps;
    gaps_of(block, gaps);
    return 32ull * simple16_encoded_words(gaps);
  }
};

class VByteCodec final : public PostingCodec {
 public:
  Scheme scheme() const override { return Scheme::kVarByte; }
  const char* name() const override { return "VByte"; }

  BlockHeader encode_block(std::span<const DocId> block,
                           std::vector<std::uint64_t>& blob,
                           std::uint64_t& bit_pos,
                           const EncodeOptions&) const override {
    std::vector<std::uint32_t> gaps;
    gaps_of(block, gaps);
    const std::vector<std::uint8_t> bytes = vbyte_encode(gaps);
    const std::uint64_t end_bits = bit_pos + 8ull * bytes.size();
    blob.resize(
        std::max<std::size_t>(blob.size(), util::words_for_bits(end_bits)), 0);
    for (std::size_t i = 0; i < bytes.size(); ++i) {
      util::write_bits(blob.data(), bit_pos + 8ull * i, 8, bytes[i]);
    }
    bit_pos = end_bits;
    return BlockHeader{Scheme::kVarByte, 0, 0, 0, 0};
  }

  void decode_block(std::span<const std::uint64_t> blob, const BlockMeta& m,
                    DocId* out) const override {
    out[0] = m.first;
    std::uint64_t pos = m.bit_offset;
    for (std::uint32_t i = 1; i < m.count; ++i) {
      std::uint32_t v = 0;
      int shift = 0;
      for (;;) {
        const std::uint8_t byte =
            static_cast<std::uint8_t>(util::read_bits(blob.data(), pos, 8));
        pos += 8;
        v |= static_cast<std::uint32_t>(byte & 0x7F) << shift;
        if ((byte & 0x80) == 0) break;
        shift += 7;
      }
      out[i] = out[i - 1] + v + 1;
    }
  }

  std::uint64_t encoded_bits(std::span<const DocId> block,
                             const EncodeOptions&) const override {
    std::vector<std::uint32_t> gaps;
    gaps_of(block, gaps);
    return 8ull * vbyte_encoded_bytes(gaps);
  }
};

constexpr Scheme kAllSchemes[kNumSchemes] = {
    Scheme::kPForDelta,
    Scheme::kEliasFano,
    Scheme::kVarByte,
    Scheme::kSimple16,
};

}  // namespace

const PostingCodec& codec_for(Scheme s) {
  static const PForCodec pfor;
  static const EFCodec ef;
  static const VByteCodec vbyte;
  static const Simple16Codec simple16;
  switch (s) {
    case Scheme::kPForDelta: return pfor;
    case Scheme::kEliasFano: return ef;
    case Scheme::kVarByte: return vbyte;
    case Scheme::kSimple16: return simple16;
  }
  return ef;  // unreachable for valid tags
}

std::span<const Scheme> all_schemes() { return kAllSchemes; }

Scheme select_scheme(std::span<const DocId> docids) {
  const EncodeOptions opt;
  Scheme best = kSelectionOrder[0];
  std::uint64_t best_bits = ~std::uint64_t{0};
  for (Scheme s : kSelectionOrder) {
    const PostingCodec& c = codec_for(s);
    // The whole list gates eligibility (conservative: a >28-bit gap that
    // happens to straddle a block boundary still disqualifies Simple16).
    if (!c.can_encode(docids)) continue;
    std::uint64_t bits = 0;
    for (std::size_t lo = 0; lo < docids.size(); lo += kBlockSize) {
      const std::size_t hi = std::min(docids.size(), lo + kBlockSize);
      bits += c.encoded_bits(docids.subspan(lo, hi - lo), opt);
    }
    if (bits < best_bits) {
      best_bits = bits;
      best = s;
    }
  }
  return best;
}

}  // namespace griffin::codec
