#include "simt/collectives.h"

#include <gtest/gtest.h>

#include <numeric>
#include <string>

#include "util/fields.h"
#include "util/rng.h"

namespace gs = griffin::simt;

namespace {

std::vector<std::uint32_t> run_inclusive_scan(std::vector<std::uint32_t> data,
                                              std::uint32_t block_dim) {
  gs::Device dev;
  std::vector<std::uint32_t> result;
  gs::launch(dev, {1, block_dim}, [&](gs::Block& blk) {
    auto sh = blk.shared<std::uint32_t>(data.size());
    std::copy(data.begin(), data.end(), sh.begin());
    gs::block_inclusive_scan(blk, sh);
    result.assign(sh.begin(), sh.end());
  });
  return result;
}

std::vector<std::uint32_t> reference_inclusive(std::vector<std::uint32_t> v) {
  std::partial_sum(v.begin(), v.end(), v.begin());
  return v;
}

}  // namespace

class ScanTest : public ::testing::TestWithParam<std::tuple<int, std::uint32_t>> {};

TEST_P(ScanTest, MatchesReference) {
  const auto [n, dim] = GetParam();
  griffin::util::Xoshiro256 rng(n * 31 + dim);
  std::vector<std::uint32_t> data(n);
  for (auto& x : data) x = static_cast<std::uint32_t>(rng.bounded(100));
  EXPECT_EQ(run_inclusive_scan(data, dim), reference_inclusive(data));
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, ScanTest,
    ::testing::Combine(::testing::Values(1, 2, 13, 32, 100, 128, 129, 1000),
                       ::testing::Values(32u, 128u, 256u)));

TEST(Collectives, ExclusiveScanAndTotal) {
  gs::Device dev;
  std::vector<std::uint32_t> data{3, 1, 4, 1, 5, 9, 2, 6};
  std::uint32_t total = 0;
  std::vector<std::uint32_t> result;
  gs::launch(dev, {1, 64}, [&](gs::Block& blk) {
    auto sh = blk.shared<std::uint32_t>(data.size());
    std::copy(data.begin(), data.end(), sh.begin());
    total = gs::block_exclusive_scan(blk, sh);
    result.assign(sh.begin(), sh.end());
  });
  EXPECT_EQ(total, 31u);
  EXPECT_EQ(result, (std::vector<std::uint32_t>{0, 3, 4, 8, 9, 14, 23, 25}));
}

TEST(Collectives, ScanChargesLogDepthBarriers) {
  gs::Device dev;
  const auto stats = gs::launch(dev, {1, 128}, [&](gs::Block& blk) {
    auto sh = blk.shared<std::uint32_t>(128);
    gs::block_inclusive_scan(blk, sh);
  });
  // Hillis-Steele over 128 threads: 7 doubling rounds plus the chunk phases.
  EXPECT_GE(stats.barriers, 8u);
  EXPECT_GT(stats.shared_accesses, 0u);
}

// Scan records (DESIGN.md §5): within a launch, a scan whose ScanShape an
// earlier block already scanned replays that block's counts and writes the
// prefix sum on the host. One launch whose blocks scan every case twice
// must count, field for field, what the same blocks count as one-block
// launches, where every scan simulates.
namespace {

struct ScanCase {
  std::size_t n = 0;
  std::size_t lead = 0;   ///< words allocated before the data (its offset)
  std::size_t trail = 0;  ///< words allocated after it (arena bytes in use)
  bool exclusive = false;
};

/// One block's scan of `c` over `input`, writing the scanned data and, for
/// an exclusive scan, the returned total to `out`.
void scan_case(gs::Block& blk, const ScanCase& c,
               const std::vector<std::uint32_t>& input,
               std::vector<std::uint32_t>& out) {
  if (c.lead > 0) blk.shared<std::uint32_t>(c.lead);
  auto data = blk.shared<std::uint32_t>(c.n);
  if (c.trail > 0) blk.shared<std::uint32_t>(c.trail);
  std::copy(input.begin(), input.end(), data.begin());
  std::uint32_t total = 0;
  if (c.exclusive) {
    total = gs::block_exclusive_scan(blk, data);
  } else {
    gs::block_inclusive_scan(blk, data);
  }
  out.assign(data.begin(), data.end());
  if (c.exclusive) out.push_back(total);
}

}  // namespace

TEST(Collectives, ScanRecordsCountWhatEveryScanSimulatingCounts) {
  // (lead, trail) words around the data. With (0, 28), one word of data
  // leaves 128 bytes in use, so the sums arrays' banks line up with the
  // data's; (0, 0) shifts them by four.
  const std::size_t layouts[][2] = {{0, 0}, {3, 0}, {0, 28}, {5, 7}};
  std::vector<ScanCase> cases;
  for (const std::size_t n : {0, 1, 31, 32, 33, 127, 128, 129, 1000}) {
    for (const bool exclusive : {false, true}) {
      for (const auto& l : layouts) {
        cases.push_back({n, l[0], l[1], exclusive});
      }
    }
  }
  griffin::util::Xoshiro256 rng(2024);
  std::vector<std::vector<std::uint32_t>> inputs;
  for (int pass = 0; pass < 2; ++pass) {
    for (const ScanCase& c : cases) {
      // Full 32-bit values: the sums wrap around.
      std::vector<std::uint32_t> v(c.n);
      for (auto& x : v) x = static_cast<std::uint32_t>(rng());
      inputs.push_back(std::move(v));
    }
  }
  const std::size_t blocks = inputs.size();

  for (const std::uint32_t dim : {32u, 128u}) {
    gs::Device dev;
    std::vector<std::vector<std::uint32_t>> one_launch(blocks);
    const auto stats = gs::launch(
        dev, {static_cast<std::uint32_t>(blocks), dim}, [&](gs::Block& blk) {
          const std::size_t b = blk.block_id();
          scan_case(blk, cases[b % cases.size()], inputs[b], one_launch[b]);
        });

    griffin::sim::KernelStats simulated;
    for (std::size_t b = 0; b < blocks; ++b) {
      const ScanCase& c = cases[b % cases.size()];
      std::vector<std::uint32_t> out;
      simulated += gs::launch(dev, {1, dim}, [&](gs::Block& blk) {
        scan_case(blk, c, inputs[b], out);
      });
      const std::string at = "dim " + std::to_string(dim) + " block " +
                             std::to_string(b) + " n " + std::to_string(c.n);
      EXPECT_EQ(out, one_launch[b]) << at;

      std::vector<std::uint32_t> want(c.n);
      if (c.exclusive) {
        std::exclusive_scan(inputs[b].begin(), inputs[b].end(), want.begin(),
                            std::uint32_t{0});
        want.push_back(std::accumulate(inputs[b].begin(), inputs[b].end(),
                                       std::uint32_t{0}));
      } else {
        std::inclusive_scan(inputs[b].begin(), inputs[b].end(), want.begin());
      }
      EXPECT_EQ(one_launch[b], want) << at;
    }
    griffin::util::for_each_field<griffin::sim::KernelStats>(
        [&](const auto& f) {
          EXPECT_EQ(stats.*f.member, simulated.*f.member)
              << "dim " << dim << ": " << f.key;
        });
  }
}
