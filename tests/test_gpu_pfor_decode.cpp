// The PFor-on-GPU ablation kernel: functionally correct, pathologically
// divergent — the negative result of paper §2.3/§3.1.1.
#include <gtest/gtest.h>

#include "gpu/decode.h"
#include "util/rng.h"
#include "workload/corpus.h"

namespace gg = griffin::gpu;
using griffin::codec::BlockCompressedList;
using griffin::codec::DocId;
using griffin::codec::Scheme;

namespace {
std::vector<DocId> gpu_pfor_decode_all(
    griffin::simt::Device& dev, const BlockCompressedList& list,
    griffin::sim::KernelStats* stats = nullptr) {
  griffin::pcie::Link link;
  griffin::pcie::TransferLedger ledger;
  gg::DeviceList dlist = gg::upload_list(dev, list, link, ledger);
  auto out = dev.alloc<DocId>(list.size());
  const auto s = gg::decode_range(dev, dlist, 0, dlist.num_blocks(), out);
  if (stats != nullptr) *stats = s;
  std::vector<DocId> host(list.size());
  dev.download(std::span<DocId>(host), out);
  return host;
}
}  // namespace

class GpuPForParam : public ::testing::TestWithParam<int> {};

TEST_P(GpuPForParam, MatchesOriginal) {
  const int size = GetParam();
  griffin::util::Xoshiro256 rng(size);
  const auto docs = griffin::workload::make_uniform_list(
      size, static_cast<DocId>(size) * 40u, rng);
  const auto list = BlockCompressedList::build(docs, Scheme::kPForDelta);
  griffin::simt::Device dev;
  EXPECT_EQ(gpu_pfor_decode_all(dev, list), docs);
}

INSTANTIATE_TEST_SUITE_P(Sweep, GpuPForParam,
                         ::testing::Values(1, 2, 127, 128, 129, 5000));

TEST(GpuPFor, ExceptionHeavyListsStillDecode) {
  // Mostly tiny gaps with occasional enormous jumps: many exceptions and
  // forced chain links.
  std::vector<DocId> docs;
  DocId d = 0;
  griffin::util::Xoshiro256 rng(9);
  for (int i = 0; i < 1000; ++i) {
    d += (rng.uniform01() < 0.1) ? 1'000'000 : 1 + rng.bounded(3);
    docs.push_back(d);
  }
  const auto list = BlockCompressedList::build(docs, Scheme::kPForDelta);
  griffin::simt::Device dev;
  EXPECT_EQ(gpu_pfor_decode_all(dev, list), docs);
}

TEST(GpuPFor, ExceptionChainIsTheBottleneck) {
  // §2.3's trade-off, as the ablation bench sweeps it: forcing a smaller
  // slot width b turns most values into exceptions, and the serial chain
  // walk (one lane, whole block stalled at the barrier) blows up the
  // counted warp time.
  griffin::util::Xoshiro256 rng(10);
  const auto docs =
      griffin::workload::make_uniform_list(50'000, 1'600'000, rng);
  griffin::simt::Device dev;

  griffin::sim::KernelStats auto_stats, forced_stats;
  const auto auto_b = BlockCompressedList::build(docs, Scheme::kPForDelta);
  const auto small_b =
      BlockCompressedList::build(docs, Scheme::kPForDelta, 3);
  EXPECT_EQ(gpu_pfor_decode_all(dev, auto_b, &auto_stats), docs);
  EXPECT_EQ(gpu_pfor_decode_all(dev, small_b, &forced_stats), docs);
  EXPECT_GT(forced_stats.warp_cycles, auto_stats.warp_cycles * 3.0);
}

TEST(GpuPFor, EFCompressesTighterAtComparableGpuSpeed) {
  // The reason Griffin-GPU adopts EF: on typical geometric-gap lists EF's
  // footprint beats PForDelta's while the GPU decode work stays in the same
  // ballpark (within 2x).
  griffin::util::Xoshiro256 rng(11);
  const auto docs =
      griffin::workload::make_uniform_list(100'000, 3'200'000, rng);
  griffin::simt::Device dev;
  griffin::pcie::Link link;
  griffin::pcie::TransferLedger ledger;

  const auto pf = BlockCompressedList::build(docs, Scheme::kPForDelta);
  const auto ef = BlockCompressedList::build(docs, Scheme::kEliasFano);
  EXPECT_LT(ef.compressed_bytes(), pf.compressed_bytes());

  griffin::sim::KernelStats pf_stats;
  gpu_pfor_decode_all(dev, pf, &pf_stats);
  gg::DeviceList def = gg::upload_list(dev, ef, link, ledger);
  auto out = dev.alloc<DocId>(ef.size());
  const auto ef_stats = gg::decode_range(dev, def, 0, def.num_blocks(), out);
  EXPECT_LT(ef_stats.warp_cycles, pf_stats.warp_cycles * 2.0);
  EXPECT_LT(pf_stats.warp_cycles, ef_stats.warp_cycles * 2.0);
}
