#include "pcie/link.h"

#include <gtest/gtest.h>

#include "sim/timeline.h"

namespace gp = griffin::pcie;
using griffin::sim::Duration;

TEST(PcieLink, TransferTimeIsLatencyPlusBandwidth) {
  gp::Link link;  // paper testbed: 8 GB/s, 8 us latency
  const Duration t0 = link.transfer_time(0);
  EXPECT_NEAR(t0.us(), 8.0, 0.01);
  // 8 GB at 8 GB/s = 1 s.
  const Duration big = link.transfer_time(8ull * 1000 * 1000 * 1000);
  EXPECT_NEAR(big.seconds(), 1.0, 0.01);
  // Monotone in size.
  EXPECT_LT(link.transfer_time(1000).ps(), link.transfer_time(2000).ps());
}

TEST(PcieLink, SmallTransfersAreLatencyBound) {
  gp::Link link;
  const Duration small = link.transfer_time(4096);
  // 4 KB takes 0.5 us of wire time; latency dominates 16:1.
  EXPECT_LT(small.us(), 9.0);
  EXPECT_GT(small.us(), 8.0);
}

TEST(TransferLedger, AccumulatesDirectionsAndAllocs) {
  gp::Link link;
  gp::TransferLedger ledger;
  ledger.add_transfer(link, 1000, true);
  ledger.add_transfer(link, 2000, true);
  ledger.add_transfer(link, 500, false);
  ledger.add_alloc(link);

  EXPECT_EQ(ledger.h2d_bytes, 3000u);
  EXPECT_EQ(ledger.d2h_bytes, 500u);
  EXPECT_EQ(ledger.transfers, 3u);
  EXPECT_EQ(ledger.allocs, 1u);
  const Duration expect = link.transfer_time(1000) + link.transfer_time(2000) +
                          link.transfer_time(500) + link.alloc_time();
  EXPECT_EQ(ledger.total.ps(), expect.ps());

  ledger.reset();
  EXPECT_EQ(ledger.transfers, 0u);
  EXPECT_EQ(ledger.total.ps(), 0);
}

TEST(TransferLedger, PooledAllocationRecordsNoOp) {
  // The host core runs a 100 us op while a copy stream allocates and then
  // uploads. An unpooled allocation is host-synchronous: it queues behind
  // that op and holds the core for alloc_time, and the upload chained
  // behind it waits both out. A pooled one (alloc_us = 0) costs nothing and
  // records no op, so the upload starts at once.
  using griffin::sim::Resource;
  using griffin::sim::Stage;
  using griffin::sim::Timeline;
  for (const bool pooled : {false, true}) {
    griffin::sim::PcieSpec spec;
    if (pooled) spec.alloc_us = 0.0;
    const gp::Link link(spec);
    Timeline tl;
    const auto host = tl.stream();
    tl.record(host, Resource::kCpu, Stage::kIntersect, Duration::from_us(100));
    gp::TransferLedger ledger;
    ledger.bind(&tl, tl.stream(), {});
    ledger.add_alloc(link);
    ledger.add_transfer(link, 4096, true);

    EXPECT_EQ(ledger.allocs, 1u);
    EXPECT_EQ(ledger.total.ps(),
              (link.alloc_time() + link.transfer_time(4096)).ps());
    const auto& upload = tl.ops().back();
    EXPECT_EQ(upload.resource, Resource::kCopyH2D);
    if (pooled) {
      EXPECT_EQ(tl.num_ops(), 2u);  // the host op and the upload
      EXPECT_EQ(upload.start.ps(), 0);
    } else {
      ASSERT_EQ(tl.num_ops(), 3u);
      const auto& alloc = tl.ops()[1];
      EXPECT_EQ(alloc.resource, Resource::kCpu);
      EXPECT_EQ(alloc.stage, Stage::kTransfer);
      EXPECT_EQ(alloc.start.ps(), Duration::from_us(100).ps());
      EXPECT_EQ(upload.start.ps(), alloc.end.ps());
      EXPECT_EQ((alloc.end - alloc.start).ps(), link.alloc_time().ps());
    }
  }
}
