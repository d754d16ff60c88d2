// Sequential (CPU-side) block decoding with cost accounting. Functionally
// these call straight into the codecs; on top they charge the CPU cost model
// for the per-element decode work and the compressed bytes streamed from
// memory, so decode time shows up in the query latency breakdown.
#pragma once

#include <cstdint>
#include <vector>

#include "codec/block_codec.h"
#include "sim/cpu_cost_model.h"

namespace griffin::cpu {

using codec::BlockCompressedList;
using codec::DocId;

/// Decodes block b of `list` into out (room for codec::kBlockSize values);
/// returns the element count and charges `acc`, the streamed bytes included
/// (codec::block_payload_bytes).
std::uint32_t decode_block(const BlockCompressedList& list, std::size_t b,
                           DocId* out, sim::CpuCostAccumulator& acc);

/// Decodes the full list, charging `acc`.
void decode_all(const BlockCompressedList& list, std::vector<DocId>& out,
                sim::CpuCostAccumulator& acc);

}  // namespace griffin::cpu
