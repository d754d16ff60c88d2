#include "cpu/intersect.h"

#include <algorithm>
#include <array>
#include <cassert>

#include "cpu/simd_cost.h"
#include "util/bits.h"

namespace griffin::cpu {

namespace {
/// Aggregated search charge for `probes` skip/gallop searches totalling
/// `steps` binary levels. Vector mode absorbs the last
/// search_levels_absorbed() levels of each probe into one branchless
/// lanes-wide window compare; the remaining levels stay branchy.
void charge_search_steps(sim::CpuCostAccumulator& acc, std::uint64_t steps,
                         std::uint64_t probes) {
  if (!simd::enabled(acc.spec()) || probes == 0) {
    charge_binary_steps(acc, steps);
    return;
  }
  const std::uint64_t absorbed = std::min(
      steps, probes * static_cast<std::uint64_t>(
                          simd::search_levels_absorbed(acc.spec().vector)));
  charge_binary_steps(acc, steps - absorbed);
  simd::charge_probe_windows(acc, probes);
}
}  // namespace

void charge_binary_steps(sim::CpuCostAccumulator& acc, std::uint64_t steps) {
  acc.add_cycles(static_cast<double>(steps) * simd::kProbeCycles);
  acc.branch_misses(static_cast<std::uint64_t>(static_cast<double>(steps) *
                                               simd::kMissFraction));
}

void merge_intersect(std::span<const DocId> a, std::span<const DocId> b,
                     std::vector<DocId>& out, sim::CpuCostAccumulator& acc) {
  out.clear();
  std::size_t i = 0, j = 0;
  while (i < a.size() && j < b.size()) {
    if (a[i] < b[j]) {
      ++i;
    } else if (b[j] < a[i]) {
      ++j;
    } else {
      out.push_back(a[i]);
      ++i;
      ++j;
    }
  }
  simd::charge(acc, i + j, simd::merge_cost(acc.spec()));
  acc.add_bytes((i + j) * sizeof(DocId));
}

void merge_intersect(std::span<const DocId> a, const BlockCompressedList& b,
                     std::vector<DocId>& out, sim::CpuCostAccumulator& acc) {
  out.clear();
  if (a.empty()) return;
  std::array<DocId, codec::kBlockSize> buf{};
  std::size_t i = 0;
  std::uint64_t steps = 0;
  for (std::size_t blk = 0; blk < b.num_blocks() && i < a.size(); ++blk) {
    // A merge still skips a block whose whole range lies below the current
    // probe front? No — a merge must scan; but if the *remaining* probe side
    // starts above the block's last docid, the block contributes nothing and
    // a real implementation would still decode it to advance. We decode it
    // and charge for the scan, staying faithful to a pure merge.
    const std::uint32_t n = decode_block(b, blk, buf.data(), acc);
    std::size_t j = 0;
    while (i < a.size() && j < n) {
      if (a[i] < buf[j]) {
        ++i;
      } else if (buf[j] < a[i]) {
        ++j;
      } else {
        out.push_back(a[i]);
        ++i;
        ++j;
      }
      ++steps;
    }
  }
  simd::charge(acc, steps, simd::merge_cost(acc.spec()));
  acc.add_bytes(steps * sizeof(DocId));
}

void merge_intersect(const BlockCompressedList& a, const BlockCompressedList& b,
                     std::vector<DocId>& out, sim::CpuCostAccumulator& acc) {
  out.clear();
  std::array<DocId, codec::kBlockSize> abuf{}, bbuf{};
  std::size_t ablk = 0, bblk = 0;
  std::uint32_t an = 0, bn = 0;
  std::size_t i = 0, j = 0;
  std::uint64_t steps = 0;

  while (ablk < a.num_blocks() && bblk < b.num_blocks()) {
    if (i == an) {
      an = decode_block(a, ablk, abuf.data(), acc);
      i = 0;
    }
    if (j == bn) {
      bn = decode_block(b, bblk, bbuf.data(), acc);
      j = 0;
    }
    while (i < an && j < bn) {
      if (abuf[i] < bbuf[j]) {
        ++i;
      } else if (bbuf[j] < abuf[i]) {
        ++j;
      } else {
        out.push_back(abuf[i]);
        ++i;
        ++j;
      }
      ++steps;
    }
    if (i == an) ++ablk;
    if (j == bn) ++bblk;
  }
  simd::charge(acc, steps, simd::merge_cost(acc.spec()));
  acc.add_bytes(steps * sizeof(DocId));
}

void skip_intersect(std::span<const DocId> probes,
                    const BlockCompressedList& target, std::vector<DocId>& out,
                    sim::CpuCostAccumulator& acc) {
  out.clear();
  if (probes.empty()) return;
  const auto metas = target.metas();
  std::array<DocId, codec::kBlockSize> buf{};
  std::size_t cur = 0;              // current block cursor (monotone)
  std::size_t decoded_block = SIZE_MAX;
  std::uint32_t decoded_n = 0;
  // Vector mode batches the search charges: the scalar path charges each
  // search where it happens (bit-identical to the pre-SIMD code), the SIMD
  // path aggregates (searches, levels) and charges once at the end.
  const bool vec = simd::enabled(acc.spec());
  std::uint64_t vec_steps = 0, vec_searches = 0;

  for (DocId p : probes) {
    // Gallop over the skip table from the cursor, then binary search the
    // bracketed range — the skip-pointer search of Figure 2.
    if (cur >= metas.size()) break;
    if (metas[cur].last < p) {
      // Gallop forward from the cursor (probes ascend, so consecutive
      // targets are usually nearby), then binary-search the bracket.
      std::size_t step = 1;
      std::size_t lo = cur + 1;
      std::uint64_t steps = 0;
      while (lo + step < metas.size() && metas[lo + step].last < p) {
        lo += step;
        step <<= 1;
        ++steps;
      }
      std::size_t l = lo, r = std::min(lo + step + 1, metas.size());
      while (l < r) {
        const std::size_t mid = (l + r) / 2;
        if (metas[mid].last < p) {
          l = mid + 1;
        } else {
          r = mid;
        }
        ++steps;
      }
      cur = l;
      if (vec) {
        vec_steps += steps;
        ++vec_searches;
      } else {
        charge_binary_steps(acc, steps);
      }
      if (cur >= metas.size()) break;
    }
    if (metas[cur].first > p) continue;  // p falls in a gap between blocks

    if (decoded_block != cur) {
      decoded_n = decode_block(target, cur, buf.data(), acc);
      decoded_block = cur;
    }
    // Binary search within the block.
    const DocId* lo_it = buf.data();
    const DocId* hi_it = buf.data() + decoded_n;
    const DocId* it = std::lower_bound(lo_it, hi_it, p);
    const std::uint64_t levels =
        util::ceil_log2(std::max<std::uint32_t>(decoded_n, 2));
    if (vec) {
      vec_steps += levels;
      ++vec_searches;
    } else {
      charge_binary_steps(acc, levels);
    }
    if (it != hi_it && *it == p) out.push_back(p);
  }
  if (vec) charge_search_steps(acc, vec_steps, vec_searches);
}

void skip_intersect(std::span<const DocId> probes,
                    std::span<const DocId> target, std::vector<DocId>& out,
                    sim::CpuCostAccumulator& acc) {
  out.clear();
  if (probes.empty() || target.empty()) return;
  std::size_t cur = 0;  // search front (probes ascend, so it only advances)
  std::uint64_t steps = 0;
  std::uint64_t searches = 0;
  for (const DocId p : probes) {
    if (cur >= target.size()) break;
    // Gallop from the front, then binary-search the bracketed range.
    std::size_t step = 1;
    std::size_t lo = cur;
    while (lo + step < target.size() && target[lo + step] < p) {
      lo += step;
      step <<= 1;
      ++steps;
    }
    std::size_t l = lo, r = std::min(lo + step + 1, target.size());
    while (l < r) {
      const std::size_t mid = (l + r) / 2;
      if (target[mid] < p) {
        l = mid + 1;
      } else {
        r = mid;
      }
      ++steps;
    }
    cur = l;
    ++searches;
    if (cur < target.size() && target[cur] == p) {
      out.push_back(p);
      ++cur;
    }
  }
  charge_search_steps(acc, steps, searches);
  acc.add_bytes(steps * sizeof(DocId));
}

}  // namespace griffin::cpu
