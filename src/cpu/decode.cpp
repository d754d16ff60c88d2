#include "cpu/decode.h"

#include "cpu/simd_cost.h"

namespace griffin::cpu {

std::uint32_t decode_block(const BlockCompressedList& list, std::size_t b,
                           DocId* out, sim::CpuCostAccumulator& acc) {
  const codec::BlockMeta& m = list.meta(b);
  simd::charge(acc, m.count, simd::decode_cost(acc.spec(), list.scheme()));
  // PForDelta's exception patch chain stays scalar in both modes
  // (data-dependent branches).
  if (list.scheme() == codec::Scheme::kPForDelta) {
    acc.pfor_exceptions(m.hdr.pfor().n_exceptions);
  }
  acc.add_bytes(
      codec::block_payload_bytes(list.metas(), list.blob().size(), b));
  return list.decode_block(b, out);
}

void decode_all(const BlockCompressedList& list, std::vector<DocId>& out,
                sim::CpuCostAccumulator& acc) {
  out.resize(list.size());
  DocId* p = out.data();
  for (std::size_t b = 0; b < list.num_blocks(); ++b) {
    p += decode_block(list, b, p, acc);
  }
  // Full materialization: the decoded array leaves cache, and the output
  // writes count against memory bandwidth (unlike the cache-hot per-block
  // decodes the intersection loops use).
  simd::charge(acc, list.size(), simd::materialize_cost(acc.spec()));
  acc.add_bytes(list.size() * sizeof(DocId));
}

}  // namespace griffin::cpu
