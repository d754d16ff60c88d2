// Para-EF (paper Algorithm 1) — functional correctness against the CPU
// decoder plus the performance-shape properties the paper claims — and the
// one device decode launch path (gpu::decode_range / decode_selected)
// checked block for block against the CPU decoder for every codec. A device
// copy replays the counts its blocks' first decodes recorded; the replay
// cases compare it with a fresh upload of the same list, which simulates.
#include <gtest/gtest.h>

#include "codec/codec.h"
#include "gpu/decode.h"
#include "util/fields.h"
#include "util/rng.h"
#include "workload/corpus.h"

namespace gg = griffin::gpu;
using griffin::codec::BlockCompressedList;
using griffin::codec::DocId;
using griffin::codec::Scheme;

namespace {

std::vector<DocId> gpu_decode_all(
    griffin::simt::Device& dev, const BlockCompressedList& list,
    griffin::sim::KernelStats* stats_out = nullptr) {
  griffin::pcie::Link link;
  griffin::pcie::TransferLedger ledger;
  gg::DeviceList dlist = gg::upload_list(dev, list, link, ledger);
  auto out = dev.alloc<DocId>(list.size());
  const auto stats = gg::decode_range(dev, dlist, 0, dlist.num_blocks(), out);
  if (stats_out != nullptr) *stats_out = stats;
  std::vector<DocId> host(list.size());
  dev.download(std::span<DocId>(host), out);
  return host;
}

/// The CPU decoder's output for posting blocks [lo, hi), concatenated.
std::vector<DocId> cpu_decode_blocks(const BlockCompressedList& list,
                                     std::size_t lo, std::size_t hi) {
  std::vector<DocId> out;
  std::vector<DocId> buf(griffin::codec::kBlockSize);
  for (std::size_t b = lo; b < hi; ++b) {
    const std::uint32_t n = list.decode_block(b, buf.data());
    out.insert(out.end(), buf.begin(), buf.begin() + n);
  }
  return out;
}

/// One decode's counts and the docIDs it wrote.
struct Decoded {
  griffin::sim::KernelStats stats;
  std::vector<DocId> docs;
};

/// decode_range over blocks [lo, hi) into a fresh buffer at out_base.
Decoded decode_blocks(griffin::simt::Device& dev, const gg::DeviceList& dlist,
                      std::size_t lo, std::size_t hi,
                      std::uint64_t out_base = 0) {
  const std::uint64_t n = (hi < dlist.num_blocks()
                               ? dlist.host_descs[hi].out_offset
                               : dlist.size) -
                          dlist.host_descs[lo].out_offset;
  auto out = dev.alloc<DocId>(out_base + n);
  Decoded d;
  d.stats = gg::decode_range(dev, dlist, lo, hi, out, out_base);
  d.docs.resize(n);
  dev.download(std::span<DocId>(d.docs), out, out_base);
  return d;
}

/// decode_selected over `ids`, every slot's docIDs concatenated.
Decoded decode_ids(griffin::simt::Device& dev, const gg::DeviceList& dlist,
                   const std::vector<std::uint32_t>& ids) {
  auto ids_dev = dev.alloc<std::uint32_t>(ids.size());
  dev.upload(ids_dev, std::span<const std::uint32_t>(ids));
  auto out = dev.alloc<DocId>(ids.size() * griffin::codec::kBlockSize);
  Decoded d;
  d.stats = gg::decode_selected(dev, dlist, ids_dev, ids, out);
  std::vector<DocId> slots(out.size());
  dev.download(std::span<DocId>(slots), out);
  for (std::size_t s = 0; s < ids.size(); ++s) {
    const auto begin = slots.begin() + s * griffin::codec::kBlockSize;
    d.docs.insert(d.docs.end(), begin,
                  begin + dlist.host_descs[ids[s]].count);
  }
  return d;
}

/// A list of the given scheme and a device to upload copies of it to. A new
/// copy has no block recorded yet, so its decodes simulate.
struct ReplayLists {
  explicit ReplayLists(Scheme scheme) {
    griffin::util::Xoshiro256 rng(9);
    docs = griffin::workload::make_uniform_list(1500, 400'000, rng);
    list = BlockCompressedList::build(docs, scheme);
  }
  gg::DeviceList upload() { return gg::upload_list(dev, list, link, ledger); }

  std::vector<DocId> docs;
  BlockCompressedList list;
  griffin::simt::Device dev;
  griffin::pcie::Link link;
  griffin::pcie::TransferLedger ledger;
};

/// Whole-struct equality, with a per-field report when it fails.
void expect_same_stats(const griffin::sim::KernelStats& got,
                       const griffin::sim::KernelStats& want) {
  EXPECT_EQ(got, want);
  griffin::util::for_each_field<griffin::sim::KernelStats>(
      [&](const auto& f) {
        EXPECT_EQ(got.*f.member, want.*f.member) << f.key;
      });
}

}  // namespace

TEST(ParaEF, PaperFigure4Sequence) {
  griffin::simt::Device dev;
  const std::vector<DocId> docs{5, 6, 8, 15, 18, 33};
  const auto list = BlockCompressedList::build(docs, Scheme::kEliasFano);
  EXPECT_EQ(gpu_decode_all(dev, list), docs);
}

class ParaEFParam : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(ParaEFParam, MatchesCpuDecode) {
  const auto [size, density_log2] = GetParam();
  griffin::util::Xoshiro256 rng(size * 3 + density_log2);
  const auto universe = static_cast<DocId>(
      std::min<std::uint64_t>(std::uint64_t{static_cast<std::uint64_t>(size)}
                                  << density_log2,
                              0xFFFFFFF0u));
  const auto docs = griffin::workload::make_uniform_list(
      size, std::max<DocId>(universe, size), rng);
  const auto list = BlockCompressedList::build(docs, Scheme::kEliasFano);

  griffin::simt::Device dev;
  EXPECT_EQ(gpu_decode_all(dev, list), docs);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, ParaEFParam,
    ::testing::Combine(::testing::Values(1, 2, 127, 128, 129, 1000, 20000),
                       ::testing::Values(1, 5, 10)));

class GpuDecodeLaunch : public ::testing::TestWithParam<Scheme> {};

TEST_P(GpuDecodeLaunch, SelectedBlocksDecode) {
  griffin::util::Xoshiro256 rng(5);
  const auto docs = griffin::workload::make_uniform_list(2000, 1'000'000, rng);
  const auto list = BlockCompressedList::build(docs, GetParam());

  griffin::simt::Device dev;
  griffin::pcie::Link link;
  griffin::pcie::TransferLedger ledger;
  gg::DeviceList dlist = gg::upload_list(dev, list, link, ledger);

  const std::vector<std::uint32_t> ids{1, 3, 7, 15};
  auto ids_dev = dev.alloc<std::uint32_t>(ids.size());
  dev.upload(ids_dev, std::span<const std::uint32_t>(ids));
  auto out = dev.alloc<DocId>(ids.size() * griffin::codec::kBlockSize);
  gg::decode_selected(dev, dlist, ids_dev, ids, out);

  std::vector<DocId> host(out.size());
  dev.download(std::span<DocId>(host), out);
  for (std::size_t s = 0; s < ids.size(); ++s) {
    const auto want = cpu_decode_blocks(list, ids[s], ids[s] + 1);
    for (std::size_t i = 0; i < want.size(); ++i) {
      EXPECT_EQ(host[s * griffin::codec::kBlockSize + i], want[i])
          << "slot " << s << " elem " << i;
    }
  }
}

TEST_P(GpuDecodeLaunch, OutBaseOffsetRespected) {
  griffin::util::Xoshiro256 rng(6);
  const auto docs = griffin::workload::make_uniform_list(300, 100'000, rng);
  const auto list = BlockCompressedList::build(docs, GetParam());

  griffin::simt::Device dev;
  griffin::pcie::Link link;
  griffin::pcie::TransferLedger ledger;
  gg::DeviceList dlist = gg::upload_list(dev, list, link, ledger);
  auto out = dev.alloc<DocId>(list.size() + 64);
  gg::decode_range(dev, dlist, 0, dlist.num_blocks(), out, 64);
  std::vector<DocId> host(list.size());
  dev.download(std::span<DocId>(host), out, 64);
  EXPECT_EQ(host, cpu_decode_blocks(list, 0, list.num_blocks()));
}

TEST_P(GpuDecodeLaunch, PartialRangeDecode) {
  griffin::util::Xoshiro256 rng(7);
  const auto docs = griffin::workload::make_uniform_list(1000, 500'000, rng);
  const auto list = BlockCompressedList::build(docs, GetParam());
  ASSERT_GE(list.num_blocks(), 4u);

  griffin::simt::Device dev;
  griffin::pcie::Link link;
  griffin::pcie::TransferLedger ledger;
  gg::DeviceList dlist = gg::upload_list(dev, list, link, ledger);
  auto out = dev.alloc<DocId>(2 * griffin::codec::kBlockSize);
  gg::decode_range(dev, dlist, 1, 3, out);
  std::vector<DocId> host(2 * griffin::codec::kBlockSize);
  dev.download(std::span<DocId>(host), out);
  EXPECT_EQ(host, cpu_decode_blocks(list, 1, 3));
}

TEST_P(GpuDecodeLaunch, RepeatDecodeReplaysSameCounts) {
  ReplayLists r(GetParam());
  const gg::DeviceList dlist = r.upload();
  const std::size_t nb = dlist.num_blocks();
  const Decoded first = decode_blocks(r.dev, dlist, 0, nb);
  const Decoded again = decode_blocks(r.dev, dlist, 0, nb);
  EXPECT_EQ(first.docs, r.docs);
  EXPECT_EQ(again.docs, r.docs);
  expect_same_stats(again.stats, first.stats);
}

TEST_P(GpuDecodeLaunch, SelectedBlocksReplayMatchesFreshUpload) {
  ReplayLists r(GetParam());
  const gg::DeviceList recorded = r.upload();
  const std::size_t nb = recorded.num_blocks();
  decode_blocks(r.dev, recorded, 0, nb);
  const std::vector<std::uint32_t> ids{0, 2, 3,
                                       static_cast<std::uint32_t>(nb - 1)};
  const gg::DeviceList fresh = r.upload();
  const Decoded want = decode_ids(r.dev, fresh, ids);
  const Decoded got = decode_ids(r.dev, recorded, ids);
  EXPECT_EQ(got.docs, want.docs);
  expect_same_stats(got.stats, want.stats);
  std::vector<DocId> cpu;
  for (const std::uint32_t b : ids) {
    const auto blk = cpu_decode_blocks(r.list, b, b + 1);
    cpu.insert(cpu.end(), blk.begin(), blk.end());
  }
  EXPECT_EQ(got.docs, cpu);
}

TEST_P(GpuDecodeLaunch, ChunkedReplayMatchesFreshUpload) {
  ReplayLists r(GetParam());
  const gg::DeviceList recorded = r.upload();
  const std::size_t nb = recorded.num_blocks();
  const std::size_t k = nb / 3;
  decode_blocks(r.dev, recorded, 0, nb);
  const gg::DeviceList fresh = r.upload();
  for (const auto& [lo, hi] :
       {std::pair{std::size_t{0}, k}, std::pair{k, nb}}) {
    // The engine's chunk shape: each chunk lands at its own out_offset.
    const std::uint64_t at = recorded.host_descs[lo].out_offset;
    const Decoded want = decode_blocks(r.dev, fresh, lo, hi, at);
    const Decoded got = decode_blocks(r.dev, recorded, lo, hi, at);
    EXPECT_EQ(got.docs, want.docs);
    EXPECT_EQ(got.docs, cpu_decode_blocks(r.list, lo, hi));
    expect_same_stats(got.stats, want.stats);
  }
}

TEST_P(GpuDecodeLaunch, UnalignedOutputSimulates) {
  ReplayLists r(GetParam());
  const gg::DeviceList recorded = r.upload();
  const std::size_t nb = recorded.num_blocks();
  const Decoded aligned = decode_blocks(r.dev, recorded, 0, nb);
  // An output off the 128-byte segment grid touches other segments than the
  // recorded decode did: it must simulate, on a recorded copy too...
  const gg::DeviceList fresh = r.upload();
  const Decoded want = decode_blocks(r.dev, fresh, 0, nb, 5);
  const Decoded got = decode_blocks(r.dev, recorded, 0, nb, 5);
  EXPECT_EQ(want.docs, r.docs);
  EXPECT_EQ(got.docs, r.docs);
  expect_same_stats(got.stats, want.stats);
  // ...and record nothing: `fresh` has only simulated unaligned decodes, so
  // its first aligned decode must count what a first aligned decode counts.
  const Decoded later = decode_blocks(r.dev, fresh, 0, nb);
  EXPECT_EQ(later.docs, r.docs);
  expect_same_stats(later.stats, aligned.stats);
}

INSTANTIATE_TEST_SUITE_P(
    AllSchemes, GpuDecodeLaunch,
    ::testing::ValuesIn(griffin::codec::all_schemes()),
    [](const ::testing::TestParamInfo<Scheme>& info) {
      return griffin::codec::scheme_name(info.param);
    });

TEST(ParaEF, WorkScalesLinearlyAndCoalescesWell) {
  griffin::util::Xoshiro256 rng(8);
  griffin::simt::Device dev;
  griffin::sim::KernelStats small_stats, big_stats;
  const auto small_docs =
      griffin::workload::make_uniform_list(10'000, 320'000, rng);
  const auto big_docs =
      griffin::workload::make_uniform_list(100'000, 3'200'000, rng);
  gpu_decode_all(dev,
                 BlockCompressedList::build(small_docs, Scheme::kEliasFano),
                 &small_stats);
  gpu_decode_all(dev, BlockCompressedList::build(big_docs, Scheme::kEliasFano),
                 &big_stats);

  // 10x the elements => ~10x the counted work, and the streaming access
  // pattern should stay reasonably coalesced.
  const double ratio = big_stats.warp_cycles / small_stats.warp_cycles;
  EXPECT_GT(ratio, 6.0);
  EXPECT_LT(ratio, 14.0);
  EXPECT_GT(big_stats.coalescing_efficiency(dev.spec()), 0.10);
}
