#include "gpu/sort.h"

#include <algorithm>
#include <bit>
#include <cassert>

#include "simt/collectives.h"
#include "simt/kernel.h"

namespace griffin::gpu {

std::uint32_t float_to_key(float f) {
  const std::uint32_t bits = std::bit_cast<std::uint32_t>(f);
  // Flip so that the unsigned order of keys equals the numeric order of
  // floats (negative floats reverse, positives get the sign bit set).
  return (bits & 0x80000000u) ? ~bits : bits | 0x80000000u;
}

float key_to_float(std::uint32_t k) {
  const std::uint32_t bits = (k & 0x80000000u) ? k & 0x7FFFFFFFu : ~k;
  return std::bit_cast<float>(bits);
}

namespace {

constexpr std::uint32_t kThreads = 256;
constexpr std::uint32_t kBuckets = 256;

/// One histogram pass: count digit occurrences of keys matching
/// (key >> prefix_shift) == prefix (prefix_shift == 32 means "all").
sim::KernelStats histogram_pass(simt::Device& dev,
                                const simt::DeviceBuffer<DevScored>& items,
                                std::uint64_t n, int digit_shift,
                                std::uint32_t prefix, int prefix_shift,
                                simt::DeviceBuffer<std::uint32_t>& hist) {
  const std::uint32_t grid =
      std::min<std::uint32_t>(simt::blocks_for(n, kThreads), 64);
  const std::uint64_t stride = static_cast<std::uint64_t>(grid) * kThreads;
  return simt::launch(dev, {grid, kThreads}, [&](simt::Block& blk) {
    blk.for_each_thread([&](simt::Thread& t) {
      for (std::uint64_t i = t.gid(); i < n; i += stride) {
        const DevScored v = t.load(items, i);
        t.charge(2 * simt::kAluCycle);
        if (prefix_shift < 32 &&
            (v.key >> prefix_shift) != prefix) {
          continue;
        }
        const std::uint32_t digit = (v.key >> digit_shift) & 0xFFu;
        t.atomic_add(hist, digit, 1u);
      }
    });
  });
}

}  // namespace

SelectResult radix_sort_topk(simt::Device& dev,
                             simt::DeviceBuffer<DevScored>& items,
                             std::uint64_t n, std::uint32_t k,
                             const pcie::Link& link,
                             pcie::TransferLedger& ledger) {
  SelectResult res;
  if (n == 0) return res;

  auto temp = dev.alloc<DevScored>(n);
  auto hist = dev.alloc<std::uint32_t>(kBuckets);
  auto offsets = dev.alloc<std::uint32_t>(kBuckets);
  for (int i = 0; i < 3; ++i) ledger.add_alloc(link);

  const std::vector<std::uint32_t> zeros(kBuckets, 0);
  simt::DeviceBuffer<DevScored>* src = &items;
  simt::DeviceBuffer<DevScored>* dst = &temp;

  for (int pass = 0; pass < 4; ++pass) {
    const int shift = 8 * pass;
    dev.upload(hist, std::span<const std::uint32_t>(zeros));
    ledger.add_transfer(link, kBuckets * 4, true);

    res.stats += histogram_pass(dev, *src, n, shift, 0, 32, hist);
    ++res.kernels;

    // Small round trip: exclusive scan of the 256 bucket counts.
    std::vector<std::uint32_t> h(kBuckets);
    dev.download(std::span<std::uint32_t>(h), hist);
    ledger.add_transfer(link, kBuckets * 4, false);
    std::uint32_t acc = 0;
    for (auto& c : h) {
      const std::uint32_t v = c;
      c = acc;
      acc += v;
    }
    dev.upload(offsets, std::span<const std::uint32_t>(h));
    ledger.add_transfer(link, kBuckets * 4, true);

    // Scatter. Stability note: the simulator executes lanes and blocks in
    // index order, so the atomic ticket order equals element order and each
    // pass is stable — cost-wise this matches the per-block-rank scatter of
    // real GPU radix sorts (same loads, same uncoalesced stores, same
    // atomic traffic).
    sim::KernelStats scatter = simt::launch(
        dev, {simt::blocks_for(n, kThreads), kThreads},
        [&](simt::Block& blk) {
          blk.for_each_thread([&](simt::Thread& t) {
            if (t.gid() >= n) return;
            const DevScored v = t.load(*src, t.gid());
            const std::uint32_t digit = (v.key >> shift) & 0xFFu;
            const std::uint32_t pos = t.atomic_add(offsets, digit, 1u);
            t.store(*dst, pos, v);
            t.charge(simt::kAluCycle);
          });
        });
    res.stats += scatter;
    ++res.kernels;
    std::swap(src, dst);
  }

  // After 4 passes `src` is ascending by key; take the top k from the end.
  const std::uint32_t kk =
      static_cast<std::uint32_t>(std::min<std::uint64_t>(k, n));
  std::vector<DevScored> tail(kk);
  dev.download(std::span<DevScored>(tail), *src, n - kk);
  ledger.add_transfer(link, kk * sizeof(DevScored), false);
  res.topk.assign(tail.rbegin(), tail.rend());
  return res;
}

SelectResult bucket_select_topk(simt::Device& dev,
                                simt::DeviceBuffer<DevScored>& items,
                                std::uint64_t n, std::uint32_t k,
                                const pcie::Link& link,
                                pcie::TransferLedger& ledger) {
  SelectResult res;
  if (n == 0) return res;
  const std::uint32_t kk =
      static_cast<std::uint32_t>(std::min<std::uint64_t>(k, n));

  auto hist = dev.alloc<std::uint32_t>(kBuckets);
  ledger.add_alloc(link);
  const std::vector<std::uint32_t> zeros(kBuckets, 0);

  // Locate the K-th max key by refining one byte per pass: after pass p the
  // top (32 - 8(p+1)) bits of the K-th key are known.
  std::uint32_t prefix = 0;
  std::uint64_t need = kk;  // elements still needed within the prefix bucket
  for (int pass = 0; pass < 4; ++pass) {
    const int shift = 24 - 8 * pass;
    dev.upload(hist, std::span<const std::uint32_t>(zeros));
    ledger.add_transfer(link, kBuckets * 4, true);
    res.stats += histogram_pass(dev, items, n, shift, prefix,
                                pass == 0 ? 32 : shift + 8, hist);
    ++res.kernels;

    std::vector<std::uint32_t> h(kBuckets);
    dev.download(std::span<std::uint32_t>(h), hist);
    ledger.add_transfer(link, kBuckets * 4, false);

    // Walk buckets from the top until `need` elements are covered.
    std::uint32_t b = kBuckets - 1;
    for (;; --b) {
      if (h[b] >= need) break;
      need -= h[b];
      if (b == 0) break;
    }
    prefix = (prefix << 8) | b;
  }
  const std::uint32_t kth_key = prefix;

  // Compact everything >= kth_key (>= kk elements; == kk unless keys tie).
  const std::uint32_t pblocks = simt::blocks_for(n, kThreads);
  auto temp =
      dev.alloc<DevScored>(static_cast<std::uint64_t>(pblocks) * kThreads);
  auto block_counts = dev.alloc<std::uint32_t>(pblocks);
  ledger.add_alloc(link);
  ledger.add_alloc(link);

  sim::KernelStats sel = simt::launch(
      dev, {pblocks, kThreads}, [&](simt::Block& blk) {
        auto counts = blk.shared<std::uint32_t>(blk.dim());
        std::vector<DevScored> keep(blk.dim());
        std::vector<bool> has(blk.dim(), false);
        blk.for_each_thread([&](simt::Thread& t) {
          std::uint32_t c = 0;
          if (t.gid() < n) {
            const DevScored v = t.load(items, t.gid());
            t.charge(simt::kAluCycle);
            if (v.key >= kth_key) {
              keep[t.tid()] = v;
              has[t.tid()] = true;
              c = 1;
            }
          }
          t.sstore(std::span<std::uint32_t>(counts), t.tid(), c);
        });
        const std::uint32_t total = simt::block_exclusive_scan(blk, counts);
        blk.for_each_thread([&](simt::Thread& t) {
          if (has[t.tid()]) {
            const std::uint32_t off =
                t.sload(std::span<const std::uint32_t>(counts), t.tid());
            const std::uint64_t base =
                static_cast<std::uint64_t>(blk.block_id()) * kThreads;
            // Store key and doc as one 8-byte element.
            t.store(temp, base + off, keep[t.tid()]);
          }
          if (t.tid() == 0) t.store(block_counts, blk.block_id(), total);
        });
      });
  res.stats += sel;
  ++res.kernels;

  std::vector<std::uint32_t> counts_host(pblocks);
  dev.download(std::span<std::uint32_t>(counts_host), block_counts);
  ledger.add_transfer(link, pblocks * 4, false);
  std::uint64_t total = 0;
  for (auto c : counts_host) total += c;

  // Download the candidates (a hair above k when keys tie) and finish with
  // a tiny host-side ordering — the same tail step real bucketSelect
  // deployments use once the candidate set fits in a cache line or two.
  std::vector<DevScored> cand;
  cand.reserve(total);
  std::vector<DevScored> seg(kThreads);
  for (std::uint32_t bidx = 0; bidx < pblocks; ++bidx) {
    const std::uint32_t c = counts_host[bidx];
    if (c == 0) continue;
    dev.download(std::span<DevScored>(seg.data(), c), temp,
                 static_cast<std::uint64_t>(bidx) * kThreads);
    cand.insert(cand.end(), seg.begin(), seg.begin() + c);
  }
  ledger.add_transfer(link, total * sizeof(DevScored), false);

  std::partial_sort(cand.begin(), cand.begin() + kk, cand.end(),
                    [](const DevScored& a, const DevScored& b) {
                      return a.key > b.key;
                    });
  cand.resize(kk);
  res.topk = std::move(cand);
  return res;
}

}  // namespace griffin::gpu
