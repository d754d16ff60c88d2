#include "gpu/mergepath.h"

#include <algorithm>
#include <array>
#include <bit>
#include <cassert>

#include "simt/collectives.h"

namespace griffin::gpu {

namespace {

constexpr std::uint32_t kMergeWarps = kMergeBlockThreads / 32;
static_assert(kMergeBlockThreads % 32 == 0, "the merge launch runs 4 warps");

/// ALU cycles of one search step (the compare and the bound update).
constexpr double kSearchStepCycles = 2 * simt::kAluCycle;

struct Boundary {
  std::uint64_t a, b;
};

/// Merge-path crossing: smallest a such that the path at diagonal `diag`
/// passes between A[a-1] and B[diag-a]. After the search, equal pairs
/// straddling the boundary are pulled into the right-hand partition so no
/// match can be split (docIDs are unique per list, so one nudge suffices).
/// `step()` runs once per search step. The two loads of every comparison
/// are sequenced, A's before B's, because their order fixes each load's
/// ordinal and so the counted transactions and conflicts.
template <typename LoadA, typename LoadB, typename Step>
Boundary merge_path_search(std::uint64_t diag, std::uint64_t na,
                           std::uint64_t nb, LoadA&& load_a, LoadB&& load_b,
                           Step&& step) {
  std::uint64_t lo = diag > nb ? diag - nb : 0;
  std::uint64_t hi = diag < na ? diag : na;
  while (lo < hi) {
    const std::uint64_t mid = (lo + hi) / 2;
    step();
    const DocId va = load_a(mid);
    const DocId vb = load_b(diag - 1 - mid);
    if (va < vb) {
      lo = mid + 1;
    } else {
      hi = mid;
    }
  }
  Boundary r{lo, diag - lo};
  if (r.a > 0 && r.b < nb) {
    const DocId va = load_a(r.a - 1);
    const DocId vb = load_b(r.b);
    if (va == vb) {
      --r.a;  // keep the equal pair together, in the right partition
      return r;
    }
  }
  if (r.b > 0 && r.a < na) {
    const DocId va = load_a(r.a);
    const DocId vb = load_b(r.b - 1);
    if (va == vb) --r.b;
  }
  return r;
}

/// Shared-memory bank of the word at `p`, as simt::Thread computes it.
std::uint32_t bank_of(const void* p) {
  return static_cast<std::uint32_t>(reinterpret_cast<std::uintptr_t>(p) / 4 %
                                    32);
}

/// The merge launch's staging copy and its sub-partition + merge region,
/// counted from the staged tile instead of lane by lane (DESIGN.md §5, tile
/// counts). Both produce exactly the KernelStats the SIMT regions would;
/// tests/mergepath_reference.h runs those regions as the oracle. One counter
/// serves a launch, so its tables keep their capacity across blocks.
class TileCounter {
 public:
  TileCounter(std::uint32_t items_per_thread, std::size_t segment_bytes)
      : vt_(items_per_thread),
        segment_shift_(std::countr_zero(segment_bytes)),
        // A search over at most span + 1 elements takes at most
        // bit_width(span + 1) steps of two loads, plus four nudge loads.
        probe_cap_(2 * std::bit_width(vt_ * kMergeBlockThreads + 1) + 4),
        // A lane's slice spans at most vt + 1 diagonals (the last lane takes
        // the remainder), so its merge loop runs at most vt + 2 times.
        match_cap_(vt_ + 2),
        probes_((kMergeBlockThreads + 1) * probe_cap_),
        matches_(kMergeBlockThreads * match_cap_),
        table_(32 * (2 * probe_cap_ + 2 * match_cap_ + 1)) {
    assert(std::has_single_bit(segment_bytes));
  }

  /// Copies A[a0, a0 + la) and B[b0, b0 + lb) into the tile and returns the
  /// staging region's counts. Lane t copies elements t, t + 128, ... of A and
  /// then of B, a global load and a shared store each, so per (warp,
  /// ordinal) the lanes fall into two groups of consecutive lanes (those
  /// with one more A element and the rest), each reading one run of
  /// consecutive elements. A run costs the segments it spans and sets its
  /// rotated bank mask; two runs on one bank serialize once. Lane 0 copies
  /// the most elements, so it sets the region's ALU maximum.
  sim::KernelStats stage(const simt::DeviceBuffer<DocId>& a, std::uint64_t a0,
                         std::uint64_t la, std::span<DocId> sa,
                         const simt::DeviceBuffer<DocId>& b, std::uint64_t b0,
                         std::uint64_t lb, std::span<DocId> sb) const {
    // Simulator-only host access to device storage, as Device::upload does.
    std::copy_n(a.raw() + a0, la, sa.begin());
    std::copy_n(b.raw() + b0, lb, sb.begin());

    sim::KernelStats s;
    const std::uint64_t lane0 = util::div_ceil(la, kMergeBlockThreads) +
                                util::div_ceil(lb, kMergeBlockThreads);
    s.warp_cycles = (simt::kGlobalAccessCycles + simt::kSharedAccessCycles) *
                    static_cast<double>(lane0) * kMergeWarps;
    s.global_bytes_requested = (la + lb) * sizeof(DocId);
    s.shared_accesses = la + lb;
    s.barriers = 1;

    struct Run {
      std::uint64_t seg_lo = 0, seg_hi = 0;
      std::uint32_t banks = 0;
    };
    // `lanes` consecutive lanes copying list[first + i0 ...] to tile[i0 ...].
    const auto run = [&](const simt::DeviceBuffer<DocId>& list,
                         std::uint64_t first, std::span<DocId> tile,
                         std::uint64_t i0, std::uint32_t lanes) {
      const std::uint64_t addr = list.device_addr(first + i0);
      const std::uint32_t mask =
          lanes == 32 ? ~0u : (std::uint32_t{1} << lanes) - 1;
      return Run{addr >> segment_shift_,
                 (addr + lanes * sizeof(DocId) - 1) >> segment_shift_,
                 std::rotl(mask, static_cast<int>(bank_of(&tile[i0])))};
    };
    // Group [g0, g1), whose lanes each copy `na` A elements, at ordinal o.
    const auto group = [&](std::uint32_t g0, std::uint32_t g1,
                           std::uint64_t na, std::uint64_t o, Run* out) {
      if (g0 == g1) return 0;
      if (o < na) {
        *out = run(a, a0, sa, g0 + kMergeBlockThreads * o, g1 - g0);
        return 1;
      }
      const std::uint64_t i0 = g0 + kMergeBlockThreads * (o - na);
      if (i0 >= lb) return 0;
      // Lanes g0 + m with i0 + m < lb have a B element left.
      const std::uint64_t lanes = std::min<std::uint64_t>(g1 - g0, lb - i0);
      *out = run(b, b0, sb, i0, static_cast<std::uint32_t>(lanes));
      return 1;
    };

    const std::uint64_t qa = la / kMergeBlockThreads;
    const std::uint64_t ra = la % kMergeBlockThreads;
    for (std::uint32_t w = 0; w < kMergeWarps; ++w) {
      const std::uint32_t lo = 32 * w;
      const std::uint32_t hi = lo + 32;
      const auto cut = static_cast<std::uint32_t>(
          std::clamp<std::uint64_t>(ra, lo, hi));
      // The warp's first lane makes the most accesses.
      const std::uint64_t ords =
          util::div_ceil(la - std::min<std::uint64_t>(la, lo),
                         kMergeBlockThreads) +
          util::div_ceil(lb - std::min<std::uint64_t>(lb, lo),
                         kMergeBlockThreads);
      for (std::uint64_t o = 0; o < ords; ++o) {
        Run r[2];
        int n = group(lo, cut, qa + 1, o, r);
        n += group(cut, hi, qa, o, r + n);
        for (int k = 0; k < n; ++k) {
          s.global_transactions += r[k].seg_hi - r[k].seg_lo + 1;
        }
        if (n == 2) {
          const std::uint64_t lo_seg = std::max(r[0].seg_lo, r[1].seg_lo);
          const std::uint64_t hi_seg = std::min(r[0].seg_hi, r[1].seg_hi);
          if (lo_seg <= hi_seg) s.global_transactions -= hi_seg - lo_seg + 1;
          if ((r[0].banks & r[1].banks) != 0) s.shared_conflict_cycles += 1.0;
        }
      }
    }
    return s;
  }

  /// The sub-partition + merge region over the staged tile: lane t searches
  /// diagonals t * vt and (t + 1) * vt of the tile (the last lane ends at
  /// la + lb), merges between the two crossings, and stores its match count
  /// to counts[t]. Each lane's shared-access stream (search probes, A's
  /// before B's, the nudge loads, the merge loads, the counts[t] store) is
  /// folded, in the order the lane makes the accesses, into a per-warp table
  /// of counts per (ordinal, bank). A diagonal is lane t's first search and
  /// lane t - 1's second, so each is run once and its probes are folded into
  /// both lanes' streams. Writes counts[] and each lane's matches (see
  /// matches()).
  sim::KernelStats merge(std::span<const DocId> sa, std::uint64_t la,
                         std::span<const DocId> sb, std::uint64_t lb,
                         std::span<std::uint32_t> counts) {
    const std::uint64_t lt = la + lb;
    const std::uint32_t bank_a = bank_of(sa.data());
    const std::uint32_t bank_b = bank_of(sb.data());
    const std::uint32_t bank_c = bank_of(counts.data());

    for (std::uint32_t d = 0; d <= kMergeBlockThreads; ++d) {
      const std::uint64_t diag =
          d == kMergeBlockThreads
              ? lt
              : std::min<std::uint64_t>(std::uint64_t{d} * vt_, lt);
      std::uint16_t* p = &probes_[d * probe_cap_];
      std::uint32_t n = 0;
      std::uint32_t steps = 0;
      const Boundary bd = merge_path_search(
          diag, la, lb,
          [&](std::uint64_t k) {
            p[n++] = static_cast<std::uint16_t>((bank_a + k) % 32);
            return sa[k];
          },
          [&](std::uint64_t k) {
            p[n++] = static_cast<std::uint16_t>((bank_b + k) % 32);
            return sb[k];
          },
          [&] { ++steps; });
      assert(n <= probe_cap_);
      searches_[d] = {bd, steps, n};
    }

    std::uint16_t* const table = table_.data();
    std::uint64_t accesses = 0;
    std::uint64_t conflicts = 0;
    double max_alu = 0.0;
    for (std::uint32_t w = 0; w < kMergeWarps; ++w) {
      std::uint32_t ords = 0;
      for (std::uint32_t t = 32 * w; t < 32 * w + 32; ++t) {
        std::uint32_t o = 0;
        const auto touch = [&](std::uint32_t bank) {
          ++table[32 * o++ + bank];
        };
        const Search& s = searches_[t];
        const Search& e = searches_[t + 1];
        for (std::uint32_t k = 0; k < s.probes; ++k) {
          touch(probes_[t * probe_cap_ + k]);
        }
        for (std::uint32_t k = 0; k < e.probes; ++k) {
          touch(probes_[(t + 1) * probe_cap_ + k]);
        }
        DocId* out = &matches_[t * match_cap_];
        std::uint64_t i = s.bd.a, j = s.bd.b;
        std::uint32_t n = 0;
        std::uint32_t iters = 0;
        while (i < e.bd.a && j < e.bd.b) {
          const DocId va = sa[i];
          const DocId vb = sb[j];
          touch(static_cast<std::uint32_t>((bank_a + i) % 32));
          touch(static_cast<std::uint32_t>((bank_b + j) % 32));
          // Branch-free step: va is kept only if it matches.
          out[n] = va;
          n += va == vb;
          i += va <= vb;
          j += vb <= va;
          ++iters;
        }
        assert(iters <= match_cap_);
        matches_n_[t] = n;
        counts[t] = n;
        touch((bank_c + t) % 32);

        accesses += o;
        ords = std::max(ords, o);
        max_alu = std::max(
            max_alu, simt::kSharedAccessCycles * o +
                         kSearchStepCycles * (s.steps + e.steps) +
                         simt::kAluCycle * iters);
      }
      // Every ordinal below `ords` was reached by some lane of the warp. The
      // plain loop reads and clears a row in vector registers.
      for (std::uint32_t o = 0; o < ords; ++o) {
        std::uint16_t* row = table + 32 * o;
        std::uint16_t most = 0;
        for (std::uint32_t bank = 0; bank < 32; ++bank) {
          most = std::max(most, row[bank]);
          row[bank] = 0;
        }
        conflicts += most - 1u;
      }
    }

    sim::KernelStats k;
    k.warp_cycles = max_alu * kMergeWarps;
    k.shared_accesses = accesses;
    k.shared_conflict_cycles = static_cast<double>(conflicts);
    k.barriers = 1;
    return k;
  }

  /// Lane t's matches from the last merge().
  std::span<const DocId> matches(std::uint32_t t) const {
    return {matches_.data() + t * match_cap_, matches_n_[t]};
  }

 private:
  struct Search {
    Boundary bd{0, 0};
    std::uint32_t steps = 0;
    std::uint32_t probes = 0;
  };

  std::uint32_t vt_;
  int segment_shift_;
  std::uint32_t probe_cap_;
  std::uint32_t match_cap_;
  /// Bank of each shared load of diagonal d's search, at d * probe_cap_.
  std::vector<std::uint16_t> probes_;
  std::array<Search, kMergeBlockThreads + 1> searches_;
  /// Lane t's matches at t * match_cap_, matches_n_[t] of them.
  std::vector<DocId> matches_;
  std::array<std::uint32_t, kMergeBlockThreads> matches_n_{};
  /// The current warp's shared accesses per (ordinal, bank), row-major.
  std::vector<std::uint16_t> table_;
};

}  // namespace

GpuIntersectResult mergepath_intersect(simt::Device& dev,
                                       const simt::DeviceBuffer<DocId>& a,
                                       std::uint64_t na,
                                       const simt::DeviceBuffer<DocId>& b,
                                       std::uint64_t nb,
                                       const pcie::Link& link,
                                       pcie::TransferLedger& ledger,
                                       MergeTuning tuning,
                                       MergeRecord* record) {
  const std::uint32_t span = tuning.items_per_thread * kMergeBlockThreads;
  assert(span >= 2);
  // Two staging tiles of span+2 DocIds must fit the 48 KB shared budget.
  assert((span + 2) * 2 * sizeof(DocId) + 4096 <=
         dev.spec().shared_mem_per_block);
  GpuIntersectResult res;
  if (na == 0 || nb == 0) {
    res.result = dev.alloc<DocId>(1);
    ledger.add_alloc(link);
    return res;
  }
  assert(na <= a.size() && nb <= b.size());

  const std::uint64_t total = na + nb;
  const std::uint32_t nblocks =
      static_cast<std::uint32_t>(util::div_ceil(total, span));

  auto aparts = dev.alloc<std::uint64_t>(nblocks + 1);
  auto bparts = dev.alloc<std::uint64_t>(nblocks + 1);
  auto temp = dev.alloc<DocId>(static_cast<std::uint64_t>(nblocks) * span);
  auto block_counts = dev.alloc<std::uint32_t>(nblocks);
  for (int i = 0; i < 4; ++i) ledger.add_alloc(link);

  // --- After launches 1-2: offsets round trip + Launch 3: compaction. ---
  // A replay runs this tail too: the recorded block counts stand in for
  // launches 1-2, and the host writes the matches in place of launch 3.
  const bool replay = record != nullptr && record->recorded();
  const auto gather = [&] {
    std::vector<std::uint32_t> counts_host(nblocks);
    dev.download(std::span<std::uint32_t>(counts_host), block_counts);
    ledger.add_transfer(link, nblocks * 4, /*h2d=*/false);

    CompactResult c = compact_segments(dev, temp, counts_host, span, link,
                                       ledger, /*launch=*/!replay);
    ++res.kernels;
    if (replay) {
      // Simulator-only host access to device storage, as Device::upload does.
      [[maybe_unused]] const DocId* end = std::set_intersection(
          a.raw(), a.raw() + na, b.raw(), b.raw() + nb, c.data.raw());
      assert(static_cast<std::uint64_t>(end - c.data.raw()) == c.count);
    } else {
      res.stats += c.stats;
      if (record != nullptr) *record = {res.stats, std::move(counts_host)};
    }
    res.result = std::move(c.data);
    res.count = c.count;
  };
  if (replay) {
    assert(record->block_counts.size() == nblocks);
    std::copy(record->block_counts.begin(), record->block_counts.end(),
              block_counts.raw());
    res.stats = record->stats;
    res.kernels = 2;
    gather();
    return res;
  }

  // --- Launch 1: block-level partition (one thread per cross diagonal). ---
  res.stats = simt::launch(
      dev, {simt::blocks_for(nblocks + 1, 128), 128}, [&](simt::Block& blk) {
        blk.for_each_thread([&](simt::Thread& t) {
          const std::uint32_t i = t.gid();
          if (i > nblocks) return;
          const std::uint64_t diag =
              std::min<std::uint64_t>(static_cast<std::uint64_t>(i) * span,
                                      total);
          const Boundary bd = merge_path_search(
              diag, na, nb, [&](std::uint64_t k) { return t.load(a, k); },
              [&](std::uint64_t k) { return t.load(b, k); },
              [&] { t.charge(kSearchStepCycles); });
          t.store(aparts, i, bd.a);
          t.store(bparts, i, bd.b);
        });
      });
  ++res.kernels;

  // --- Launch 2: staged merge-intersect, one block per partition. ---
  TileCounter tiles(tuning.items_per_thread,
                    dev.spec().mem_transaction_bytes);
  sim::KernelStats merge_stats = simt::launch(
      dev, {nblocks, kMergeBlockThreads}, [&](simt::Block& blk) {
        const std::uint32_t bid = blk.block_id();

        // Shared staging (+2 covers the boundary nudges).
        auto sa = blk.shared<DocId>(span + 2);
        auto sb = blk.shared<DocId>(span + 2);
        auto counts = blk.shared<std::uint32_t>(blk.dim());

        std::uint64_t a0 = 0, a1 = 0, b0 = 0, b1 = 0;
        blk.for_each_thread([&](simt::Thread& t) {
          if (t.tid() != 0) return;
          a0 = t.load(aparts, bid);
          a1 = t.load(aparts, bid + 1);
          b0 = t.load(bparts, bid);
          b1 = t.load(bparts, bid + 1);
        });
        const std::uint64_t la = a1 - a0;
        const std::uint64_t lb = b1 - b0;
        // Each boundary sits on its diagonal or one before it.
        assert(la + lb <= span + 1);

        // Coalesced staging of both segments into shared memory, then the
        // thread-level sub-partition + serial intersection in shared memory:
        // both counted from the tile.
        sim::KernelStats tile = tiles.stage(a, a0, la, sa, b, b0, lb, sb);
        tile += tiles.merge(sa, la, sb, lb, counts);
        blk.add_counts(tile);

        const std::uint32_t block_total =
            simt::block_exclusive_scan(blk, counts);

        // Scatter matches to the block's temp segment; store the count.
        blk.for_each_thread([&](simt::Thread& t) {
          const std::uint32_t off =
              t.sload(std::span<const std::uint32_t>(counts), t.tid());
          const std::span<const DocId> out = tiles.matches(t.tid());
          for (std::size_t k = 0; k < out.size(); ++k) {
            t.store(temp,
                    static_cast<std::uint64_t>(bid) * span + off + k,
                    out[k]);
          }
          if (t.tid() == 0) t.store(block_counts, bid, block_total);
        });
      });
  res.stats += merge_stats;
  ++res.kernels;
  gather();
  return res;
}

}  // namespace griffin::gpu
