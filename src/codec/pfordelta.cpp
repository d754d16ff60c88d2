#include "codec/pfordelta.h"

#include <algorithm>
#include <cassert>

#include "util/bits.h"

namespace griffin::codec {

namespace {

struct Plan {
  std::uint8_t b;
  std::vector<std::uint32_t> exceptions;  // slot indices, ascending
};

/// Max distance a b-bit slot can encode to the next exception.
std::uint32_t max_link(std::uint8_t b) {
  return b >= 32 ? 0xFFFFFFFFu : (1u << b) - 1u;
}

bool fits(std::uint32_t v, std::uint8_t b) {
  return b >= 32 || v < (1u << b);
}

Plan make_plan(std::span<const std::uint32_t> values, std::uint8_t forced_b) {
  Plan plan;
  plan.b = forced_b != 0 ? forced_b : pfor_choose_b(values);
  const std::uint32_t link = max_link(plan.b);
  for (std::uint32_t i = 0; i < values.size(); ++i) {
    if (fits(values[i], plan.b)) continue;
    // Force intermediate exceptions when the chain link cannot reach i.
    while (!plan.exceptions.empty() && i - plan.exceptions.back() > link) {
      plan.exceptions.push_back(plan.exceptions.back() + link);
    }
    plan.exceptions.push_back(i);
  }
  assert(plan.exceptions.size() <= values.size());
  return plan;
}

}  // namespace

std::uint8_t pfor_choose_b(std::span<const std::uint32_t> values) {
  if (values.empty()) return 1;
  // Count how many values need exactly w bits, w in [1, 32].
  std::uint32_t width_count[33] = {};
  for (std::uint32_t v : values) ++width_count[util::bit_width_or1(v)];
  const std::size_t need = static_cast<std::size_t>(
      kPForRegularFraction * static_cast<double>(values.size()) + 0.5);
  std::size_t covered = 0;
  for (std::uint8_t b = 1; b <= 32; ++b) {
    covered += width_count[b];
    if (covered >= need) return b;
  }
  return 32;
}

PForHeader pfor_encode(std::span<const std::uint32_t> values,
                       std::vector<std::uint64_t>& blob,
                       std::uint64_t& bit_pos, std::uint8_t forced_b) {
  const Plan plan = make_plan(values, forced_b);
  PForHeader hdr;
  hdr.b = plan.b;
  hdr.n_exceptions = static_cast<std::uint16_t>(plan.exceptions.size());
  hdr.first_exception = plan.exceptions.empty()
                            ? PForHeader::kNoException
                            : static_cast<std::uint16_t>(plan.exceptions[0]);

  const std::uint64_t slots_bits =
      static_cast<std::uint64_t>(values.size()) * plan.b;
  const std::uint64_t exc_bits_start = util::round_up(bit_pos + slots_bits, 32);
  const std::uint64_t end_bits =
      exc_bits_start + 32ull * plan.exceptions.size();
  blob.resize(
      std::max<std::size_t>(blob.size(), util::words_for_bits(end_bits)), 0);

  // Pack the slots: regular values verbatim, exception slots hold the
  // distance to the next exception (0 for the last one).
  std::size_t next_exc = 0;
  for (std::uint32_t i = 0; i < values.size(); ++i) {
    std::uint32_t slot;
    if (next_exc < plan.exceptions.size() && plan.exceptions[next_exc] == i) {
      const bool last = next_exc + 1 == plan.exceptions.size();
      slot = last ? 0 : plan.exceptions[next_exc + 1] - i;
      ++next_exc;
    } else {
      slot = values[i];
    }
    util::write_bits(blob.data(),
                     bit_pos + static_cast<std::uint64_t>(i) * plan.b, plan.b,
                     slot);
  }

  // Append the true exception values, uncompressed, in chain order.
  for (std::size_t k = 0; k < plan.exceptions.size(); ++k) {
    util::write_bits(blob.data(), exc_bits_start + 32ull * k, 32,
                     values[plan.exceptions[k]]);
  }

  bit_pos = end_bits;
  return hdr;
}

void pfor_decode(std::span<const std::uint64_t> blob, std::uint64_t bit_pos,
                 std::uint32_t count, const PForHeader& hdr,
                 std::uint32_t* out) {
  for (std::uint32_t i = 0; i < count; ++i) {
    out[i] = static_cast<std::uint32_t>(util::read_bits(
        blob.data(), bit_pos + static_cast<std::uint64_t>(i) * hdr.b, hdr.b));
  }
  if (hdr.n_exceptions == 0) return;
  const std::uint64_t exc_bits_start =
      util::round_up(bit_pos + static_cast<std::uint64_t>(count) * hdr.b, 32);
  // Walk the chain: each exception slot currently holds the distance to the
  // next exception; patch it with the stored value, then follow the link.
  std::uint32_t pos = hdr.first_exception;
  for (std::uint32_t k = 0; k < hdr.n_exceptions; ++k) {
    assert(pos < count);
    const std::uint32_t dist = out[pos];
    out[pos] = static_cast<std::uint32_t>(
        util::read_bits(blob.data(), exc_bits_start + 32ull * k, 32));
    pos += dist;
  }
}

std::uint64_t pfor_encoded_bits(std::span<const std::uint32_t> values,
                                std::uint8_t forced_b) {
  const Plan plan = make_plan(values, forced_b);
  const std::uint64_t slots_bits =
      static_cast<std::uint64_t>(values.size()) * plan.b;
  return util::round_up(slots_bits, 32) + 32ull * plan.exceptions.size();
}

}  // namespace griffin::codec
