#include "codec/block_codec.h"

#include <algorithm>
#include <stdexcept>

#include "codec/codec.h"
#include "util/bits.h"

namespace griffin::codec {

std::string scheme_name(Scheme s) {
  switch (s) {
    case Scheme::kPForDelta: return "PForDelta";
    case Scheme::kEliasFano: return "EF";
    case Scheme::kVarByte: return "VByte";
    case Scheme::kSimple16: return "Simple16";
  }
  return "?";
}

BlockCompressedList BlockCompressedList::build(std::span<const DocId> docids,
                                               Scheme scheme,
                                               std::uint8_t pfor_forced_b) {
  if (docids.empty()) throw std::invalid_argument("empty posting list");

  const PostingCodec& codec = codec_for(scheme);
  EncodeOptions opt;
  opt.pfor_forced_b = pfor_forced_b;

  BlockCompressedList list;
  list.scheme_ = scheme;
  list.size_ = docids.size();
  list.metas_.reserve(util::div_ceil(docids.size(), kBlockSize));

  std::uint64_t bit_pos = 0;
  for (std::size_t lo = 0; lo < docids.size(); lo += kBlockSize) {
    const std::size_t hi = std::min(docids.size(), lo + kBlockSize);
    const std::span<const DocId> block = docids.subspan(lo, hi - lo);
    if (!codec.can_encode(block)) {
      throw std::invalid_argument(
          std::string(codec.name()) +
          " cannot encode this list: a d-gap in the block starting at docID " +
          std::to_string(block.front()) +
          " exceeds the scheme's limit (Simple16 requires gaps < 2^28); use "
          "another scheme or the adaptive selector");
    }

    BlockMeta meta;
    meta.first = block.front();
    meta.last = block.back();
    meta.count = static_cast<std::uint16_t>(block.size());
    meta.bit_offset = bit_pos;
    meta.hdr = codec.encode_block(block, list.blob_, bit_pos, opt);
    list.metas_.push_back(meta);
  }
  return list;
}

BlockCompressedList BlockCompressedList::from_parts(
    Scheme scheme, std::uint64_t size, std::vector<std::uint64_t> blob,
    std::vector<BlockMeta> metas) {
  if (size == 0 || metas.empty()) {
    throw std::invalid_argument("from_parts: empty list");
  }
  BlockCompressedList list;
  list.scheme_ = scheme;
  list.size_ = size;
  list.blob_ = std::move(blob);
  list.metas_ = std::move(metas);
  return list;
}

std::uint32_t BlockCompressedList::decode_block(std::size_t b,
                                                DocId* out) const {
  const BlockMeta& m = metas_[b];
  codec_for(scheme_).decode_block(blob_, m, out);
  return m.count;
}

void BlockCompressedList::decode_all(std::vector<DocId>& out) const {
  out.resize(size_);
  DocId* p = out.data();
  for (std::size_t b = 0; b < metas_.size(); ++b) {
    p += decode_block(b, p);
  }
}

std::uint64_t BlockCompressedList::compressed_bytes() const {
  // Payload + the parts of the skip table a deployment must keep: first/last
  // docID, offset, count, and the small per-scheme header. One constant for
  // every scheme keeps Table 1's columns (and the adaptive-vs-fixed gate)
  // comparing payload economics, not header packing tricks.
  const std::uint64_t skip_entry_bytes = 4 + 4 + 4 + 2 + 3;
  return blob_.size() * 8 + metas_.size() * skip_entry_bytes;
}

}  // namespace griffin::codec
