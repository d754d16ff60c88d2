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

/// merge_intersect's read position in one view: a decoded span is its one
/// block; a compressed list decodes its next block into `buf` only once the
/// current one is used up.
struct BlockCursor {
  explicit BlockCursor(const PostingView& v) {
    if (const auto* d = std::get_if<std::span<const DocId>>(&v)) {
      data = d->data();
      n = d->size();
    } else {
      list = &std::get<1>(v).get();
    }
  }

  /// Elements remain in the current block or in a block not yet decoded.
  bool more() const {
    return i < n || (list != nullptr && next_block < list->num_blocks());
  }

  void fill(sim::CpuCostAccumulator& acc) {
    if (i < n) return;
    n = decode_block(*list, next_block++, buf.data(), acc);
    data = buf.data();
    i = 0;
  }

  const BlockCompressedList* list = nullptr;
  std::size_t next_block = 0;
  std::array<DocId, codec::kBlockSize> buf{};
  const DocId* data = nullptr;
  std::size_t n = 0;
  std::size_t i = 0;
};
}  // namespace

void charge_binary_steps(sim::CpuCostAccumulator& acc, std::uint64_t steps) {
  acc.add_cycles(static_cast<double>(steps) * simd::kProbeCycles);
  acc.branch_misses(static_cast<std::uint64_t>(static_cast<double>(steps) *
                                               simd::kMissFraction));
}

void merge_intersect(PostingView a, PostingView b, std::vector<DocId>& out,
                     sim::CpuCostAccumulator& acc) {
  out.clear();
  BlockCursor x(a), y(b);
  std::uint64_t steps = 0;
  while (x.more() && y.more()) {
    x.fill(acc);
    y.fill(acc);
    while (x.i < x.n && y.i < y.n) {
      if (x.data[x.i] < y.data[y.i]) {
        ++x.i;
      } else if (y.data[y.i] < x.data[x.i]) {
        ++y.i;
      } else {
        out.push_back(x.data[x.i]);
        ++x.i;
        ++y.i;
      }
      ++steps;
    }
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
