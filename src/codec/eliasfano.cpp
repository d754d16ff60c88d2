#include "codec/eliasfano.h"

#include <cassert>

#include "util/bits.h"

namespace griffin::codec {

std::uint8_t ef_low_bits(std::uint64_t universe, std::uint64_t n) {
  assert(n > 0);
  if (universe <= n) return 0;
  return static_cast<std::uint8_t>(util::floor_log2(universe / n));
}

std::uint64_t ef_encoded_bits(std::uint32_t universe, std::uint64_t n) {
  if (n == 0) return 0;
  const std::uint8_t b = ef_low_bits(universe, n);
  const std::uint64_t high_bits =
      (static_cast<std::uint64_t>(universe) >> b) + n + 1;
  const std::uint64_t hb_words = util::div_ceil(high_bits, 32);
  return hb_words * 32 + n * b;
}

EFHeader ef_encode(std::span<const std::uint32_t> values,
                   std::uint32_t universe, std::vector<std::uint64_t>& blob,
                   std::uint64_t& bit_pos) {
  const std::uint64_t n = values.size();
  EFHeader hdr;
  if (n == 0) return hdr;
  hdr.b = ef_low_bits(universe, n);

  const std::uint64_t high_bits =
      (static_cast<std::uint64_t>(universe) >> hdr.b) + n + 1;
  hdr.hb_words = static_cast<std::uint32_t>(util::div_ceil(high_bits, 32));

  const std::uint64_t hb_start = bit_pos;
  const std::uint64_t low_start = hb_start + 32ull * hdr.hb_words;
  const std::uint64_t end_bits = low_start + n * hdr.b;
  blob.resize(
      std::max<std::size_t>(blob.size(), util::words_for_bits(end_bits)), 0);

  [[maybe_unused]] std::uint32_t prev = 0;
  for (std::uint64_t i = 0; i < n; ++i) {
    const std::uint32_t v = values[i];
    assert(v <= universe);
    assert(i == 0 || v >= prev);
    prev = v;
    const std::uint64_t high = v >> hdr.b;
    // i-th set bit at position high + i.
    util::write_bits(blob.data(), hb_start + high + i, 1, 1);
    if (hdr.b > 0) {
      util::write_bits(blob.data(), low_start + i * hdr.b, hdr.b,
                       v & ((1u << hdr.b) - 1));
    }
  }

  bit_pos = end_bits;
  return hdr;
}

void ef_decode(std::span<const std::uint64_t> blob, std::uint64_t bit_pos,
               std::uint32_t count, const EFHeader& hdr, std::uint32_t* out) {
  if (count == 0) return;
  const std::uint64_t hb_start = bit_pos;
  const std::uint64_t low_start = hb_start + 32ull * hdr.hb_words;

  // Scan the unary high-bits vector: the i-th set bit at position p encodes
  // high_i = p - i.
  std::uint32_t i = 0;
  for (std::uint32_t w = 0; w < hdr.hb_words && i < count; ++w) {
    std::uint32_t word = static_cast<std::uint32_t>(
        util::read_bits(blob.data(), hb_start + 32ull * w, 32));
    while (word != 0 && i < count) {
      const int bit = std::countr_zero(word);
      word &= word - 1;
      const std::uint64_t pos = 32ull * w + static_cast<std::uint32_t>(bit);
      const std::uint64_t high = pos - i;
      std::uint64_t low = 0;
      if (hdr.b > 0) {
        low = util::read_bits(
            blob.data(), low_start + static_cast<std::uint64_t>(i) * hdr.b,
            hdr.b);
      }
      out[i] = static_cast<std::uint32_t>((high << hdr.b) | low);
      ++i;
    }
  }
  assert(i == count);
}

}  // namespace griffin::codec
