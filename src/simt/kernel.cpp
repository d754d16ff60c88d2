#include "simt/kernel.h"

#include <bit>

namespace griffin::simt {

namespace detail {

std::size_t OrdinalCounter::slot_of(std::uint32_t ord,
                                    std::uint64_t key) const {
  // Fibonacci hashing: the product's high bits index the table.
  const std::uint64_t h =
      (key ^ (static_cast<std::uint64_t>(ord) << 40)) * 0x9E3779B97F4A7C15ull;
  return static_cast<std::size_t>(h >> shift_);
}

std::uint32_t OrdinalCounter::bump(std::uint32_t ord, std::uint64_t key) {
  // Keep the load factor at or below 1/2.
  if (2 * (live_ + 1) > table_.size()) grow();
  const std::size_t mask = table_.size() - 1;
  for (std::size_t i = slot_of(ord, key);; i = (i + 1) & mask) {
    Entry& e = table_[i];
    if (e.gen != gen_) {
      e = Entry{key, gen_, ord, 1};
      ++live_;
      return 1;
    }
    if (e.key == key && e.ord == ord) return ++e.count;
  }
}

void OrdinalCounter::grow() {
  std::vector<Entry> old(std::max<std::size_t>(64, 2 * table_.size()));
  old.swap(table_);
  shift_ = 64 - std::countr_zero(table_.size());
  const std::size_t mask = table_.size() - 1;
  for (const Entry& e : old) {
    if (e.gen != gen_) continue;
    std::size_t i = slot_of(e.ord, e.key);
    while (table_[i].gen == gen_) i = (i + 1) & mask;
    table_[i] = e;
  }
}

}  // namespace detail

WarpTally::WarpTally(sim::KernelStats& stats, std::size_t segment_bytes)
    : stats_(stats), segment_shift_(std::countr_zero(segment_bytes)) {
  if (!std::has_single_bit(segment_bytes)) {
    throw std::invalid_argument(
        "GpuSpec::mem_transaction_bytes must be a power of two");
  }
}

}  // namespace griffin::simt
