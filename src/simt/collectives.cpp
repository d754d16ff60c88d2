#include "simt/collectives.h"

#include "util/bits.h"

namespace griffin::simt {

void block_inclusive_scan(Block& blk, std::span<std::uint32_t> data) {
  const std::size_t n = data.size();
  if (n == 0) return;
  const std::uint32_t dim = blk.dim();
  const std::size_t chunk = util::div_ceil(n, dim);

  auto sums = blk.shared<std::uint32_t>(dim);
  auto sums_alt = blk.shared<std::uint32_t>(dim);

  // Phase 1: each thread scans its own chunk in place and records the total.
  blk.for_each_thread([&](Thread& t) {
    const std::size_t lo = static_cast<std::size_t>(t.tid()) * chunk;
    const std::size_t hi = std::min(n, lo + chunk);
    std::uint32_t acc = 0;
    for (std::size_t i = lo; i < hi; ++i) {
      acc += t.sload(std::span<const std::uint32_t>(data), i);
      t.sstore(data, i, acc);
      t.charge(kAluCycle);
    }
    t.sstore(std::span<std::uint32_t>(sums), t.tid(), acc);
  });

  // Phase 2: Hillis-Steele inclusive scan of the per-thread sums. Only the
  // first m = ceil(n/chunk) slots hold data, so the doubling loop runs
  // ceil(log2 m) rounds.
  const std::uint32_t m = static_cast<std::uint32_t>(util::div_ceil(n, chunk));
  std::span<std::uint32_t> src = sums;
  std::span<std::uint32_t> dst = sums_alt;
  for (std::uint32_t d = 1; d < m; d <<= 1) {
    blk.for_each_thread([&](Thread& t) {
      const std::uint32_t i = t.tid();
      if (i >= m) return;
      std::uint32_t v = t.sload(std::span<const std::uint32_t>(src), i);
      if (i >= d) {
        v += t.sload(std::span<const std::uint32_t>(src), i - d);
        t.charge(kAluCycle);
      }
      t.sstore(dst, i, v);
    });
    std::swap(src, dst);
  }

  // Phase 3: add the preceding chunks' total to each chunk.
  blk.for_each_thread([&](Thread& t) {
    if (t.tid() == 0) return;
    const std::size_t lo = static_cast<std::size_t>(t.tid()) * chunk;
    const std::size_t hi = std::min(n, lo + chunk);
    if (lo >= hi) return;
    const std::uint32_t offset =
        t.sload(std::span<const std::uint32_t>(src), t.tid() - 1);
    for (std::size_t i = lo; i < hi; ++i) {
      t.sstore(data, i,
               t.sload(std::span<const std::uint32_t>(data), i) + offset);
      t.charge(kAluCycle);
    }
  });
}

std::uint32_t block_exclusive_scan(Block& blk, std::span<std::uint32_t> data) {
  if (data.empty()) return 0;
  block_inclusive_scan(blk, data);
  // Shift right by one (in parallel, reading before writing via double read
  // region split: read into registers, barrier, write).
  const std::size_t n = data.size();
  const std::uint32_t dim = blk.dim();
  const std::size_t chunk = util::div_ceil(n, dim);
  std::vector<std::uint32_t> regs(n);  // per-lane registers across the barrier
  blk.for_each_thread([&](Thread& t) {
    const std::size_t lo = static_cast<std::size_t>(t.tid()) * chunk;
    const std::size_t hi = std::min(n, lo + chunk);
    for (std::size_t i = lo; i < hi; ++i) {
      regs[i] = i == 0 ? 0
                       : t.sload(std::span<const std::uint32_t>(data), i - 1);
    }
  });
  std::uint32_t total = data[n - 1];
  blk.for_each_thread([&](Thread& t) {
    const std::size_t lo = static_cast<std::size_t>(t.tid()) * chunk;
    const std::size_t hi = std::min(n, lo + chunk);
    for (std::size_t i = lo; i < hi; ++i) t.sstore(data, i, regs[i]);
  });
  return total;
}

}  // namespace griffin::simt
