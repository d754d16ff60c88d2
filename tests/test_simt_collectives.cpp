#include "simt/collectives.h"

#include <gtest/gtest.h>

#include <numeric>

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
