// The codec zoo: a uniform PostingCodec interface over every block codec,
// a registry mapping Scheme tags to singleton codec instances, and the
// adaptive per-list selection policy. BlockCompressedList dispatches its
// build/decode through the registry, so adding a codec means implementing
// the interface and extending the Scheme enum — every downstream consumer
// (cpu/gpu decode paths, scheduler cost model, cache byte budgets, index
// serialization) picks it up through the tagged BlockHeader.
#pragma once

#include <span>

#include "codec/block_codec.h"

namespace griffin::codec {

/// Per-build knobs a codec may consume (only PForDelta does today).
struct EncodeOptions {
  /// Pins the PForDelta slot width; 0 = automatic 90%-coverage rule.
  std::uint8_t pfor_forced_b = 0;
};

/// One block codec. Implementations are stateless singletons (registry
/// below); blocks are strictly increasing docID runs of at most 2^12 values.
class PostingCodec {
 public:
  virtual ~PostingCodec() = default;

  virtual Scheme scheme() const = 0;
  virtual const char* name() const = 0;

  /// Encodes one block starting at bit `bit_pos` of `blob` (append style:
  /// bits at and beyond bit_pos must be zero; blob grows as needed);
  /// advances bit_pos. Returns the tagged header the skip table stores.
  virtual BlockHeader encode_block(std::span<const DocId> block,
                                   std::vector<std::uint64_t>& blob,
                                   std::uint64_t& bit_pos,
                                   const EncodeOptions& opt) const = 0;

  /// Decodes the block described by (meta, blob) into out (room for
  /// meta.count values).
  virtual void decode_block(std::span<const std::uint64_t> blob,
                            const BlockMeta& meta, DocId* out) const = 0;

  /// Exact payload bits encode_block would emit — the selection policy's
  /// objective function.
  virtual std::uint64_t encoded_bits(std::span<const DocId> block,
                                     const EncodeOptions& opt) const = 0;

  /// False when the scheme cannot represent the block (Simple16 with a
  /// d-gap over 28 bits); build() rejects, the selector routes elsewhere.
  virtual bool can_encode(std::span<const DocId> block) const {
    (void)block;
    return true;
  }
};

/// The singleton codec for a scheme tag.
const PostingCodec& codec_for(Scheme s);

/// Every registered scheme, in enum order.
std::span<const Scheme> all_schemes();

/// Adaptive per-list codec choice: among the schemes that can represent the
/// whole list (PostingCodec::can_encode; Simple16 drops out when any gap - 1
/// needs more than 28 bits), pick the one with the smallest exact encoded
/// size; ties break toward the earlier scheme in kSelectionOrder
/// (decode-friendlier codecs first). Exhaustive sizing makes the CI
/// invariant — adaptive total <= every fixed scheme's total — hold by
/// construction.
Scheme select_scheme(std::span<const DocId> docids);

/// Tie-break preference order for select_scheme: GPU-parallel and
/// vector-friendly decoders before the selector and byte codecs.
inline constexpr Scheme kSelectionOrder[kNumSchemes] = {
    Scheme::kEliasFano,
    Scheme::kPForDelta,
    Scheme::kSimple16,
    Scheme::kVarByte,
};

}  // namespace griffin::codec
