#include "simt/collectives.h"

#include <numeric>

#include "util/bits.h"

namespace griffin::simt {

namespace {

/// The inclusive scan's SIMT body over `data`, with its two per-thread sums
/// arrays already allocated.
void inclusive_body(Block& blk, std::span<std::uint32_t> data,
                    std::span<std::uint32_t> sums,
                    std::span<std::uint32_t> sums_alt) {
  const std::size_t n = data.size();
  const std::uint32_t dim = blk.dim();
  const std::size_t chunk = util::div_ceil(n, dim);

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
    t.sstore(sums, t.tid(), acc);
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

/// Turns an inclusive scan into an exclusive one: shift right by one (read
/// into registers, barrier, write).
void shift_body(Block& blk, std::span<std::uint32_t> data) {
  const std::size_t n = data.size();
  const std::size_t chunk = util::div_ceil(n, blk.dim());
  std::vector<std::uint32_t> regs(n);  // per-lane registers across the barrier
  blk.for_each_thread([&](Thread& t) {
    const std::size_t lo = static_cast<std::size_t>(t.tid()) * chunk;
    const std::size_t hi = std::min(n, lo + chunk);
    for (std::size_t i = lo; i < hi; ++i) {
      regs[i] = i == 0 ? 0
                       : t.sload(std::span<const std::uint32_t>(data), i - 1);
    }
  });
  blk.for_each_thread([&](Thread& t) {
    const std::size_t lo = static_cast<std::size_t>(t.tid()) * chunk;
    const std::size_t hi = std::min(n, lo + chunk);
    for (std::size_t i = lo; i < hi; ++i) t.sstore(data, i, regs[i]);
  });
}

/// A non-empty scan: the SIMT body the first time the launch meets its
/// shape, the recorded counts and a host prefix sum after that. Both paths
/// allocate the same two sums arrays.
void scan(Block& blk, std::span<std::uint32_t> data, bool exclusive) {
  const ScanShape shape = blk.scan_shape(data, exclusive);
  auto sums = blk.shared<std::uint32_t>(blk.dim());
  auto sums_alt = blk.shared<std::uint32_t>(blk.dim());
  blk.scan_once(
      shape,
      [&](Block& b) {
        inclusive_body(b, data, sums, sums_alt);
        if (exclusive) shift_body(b, data);
      },
      [&] {
        if (exclusive) {
          std::exclusive_scan(data.begin(), data.end(), data.begin(),
                              std::uint32_t{0});
        } else {
          std::inclusive_scan(data.begin(), data.end(), data.begin());
        }
      });
}

}  // namespace

void block_inclusive_scan(Block& blk, std::span<std::uint32_t> data) {
  if (data.empty()) return;
  scan(blk, data, /*exclusive=*/false);
}

std::uint32_t block_exclusive_scan(Block& blk, std::span<std::uint32_t> data) {
  if (data.empty()) return 0;
  const std::uint32_t total =
      std::accumulate(data.begin(), data.end(), std::uint32_t{0});
  scan(blk, data, /*exclusive=*/true);
  return total;
}

}  // namespace griffin::simt
