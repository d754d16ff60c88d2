#include "util/stats.h"

#include <gtest/gtest.h>

namespace gu = griffin::util;

TEST(SummaryStats, MeanVarMinMax) {
  gu::SummaryStats s;
  for (double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) s.add(x);
  EXPECT_EQ(s.count(), 8u);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  EXPECT_DOUBLE_EQ(s.variance(), 4.0);
  EXPECT_DOUBLE_EQ(s.stddev(), 2.0);
  EXPECT_DOUBLE_EQ(s.min(), 2.0);
  EXPECT_DOUBLE_EQ(s.max(), 9.0);
}

TEST(SummaryStats, SingleSample) {
  gu::SummaryStats s;
  s.add(42.0);
  EXPECT_DOUBLE_EQ(s.mean(), 42.0);
  EXPECT_DOUBLE_EQ(s.variance(), 0.0);
  EXPECT_DOUBLE_EQ(s.min(), 42.0);
  EXPECT_DOUBLE_EQ(s.max(), 42.0);
}

TEST(PercentileTracker, NearestRank) {
  gu::PercentileTracker t;
  for (int i = 1; i <= 100; ++i) t.add(i);
  EXPECT_DOUBLE_EQ(t.percentile(0), 1.0);
  EXPECT_DOUBLE_EQ(t.percentile(50), 50.0);
  EXPECT_DOUBLE_EQ(t.percentile(95), 95.0);
  EXPECT_DOUBLE_EQ(t.percentile(99), 99.0);
  EXPECT_DOUBLE_EQ(t.percentile(100), 100.0);
  EXPECT_DOUBLE_EQ(t.median(), 50.0);
  EXPECT_DOUBLE_EQ(t.max(), 100.0);
  EXPECT_NEAR(t.mean(), 50.5, 1e-9);
}

TEST(PercentileTracker, UnsortedInsertOrder) {
  gu::PercentileTracker t;
  for (double x : {5.0, 1.0, 9.0, 3.0, 7.0}) t.add(x);
  EXPECT_DOUBLE_EQ(t.percentile(20), 1.0);
  EXPECT_DOUBLE_EQ(t.percentile(100), 9.0);
  // Adding after a query re-sorts correctly.
  t.add(0.5);
  EXPECT_DOUBLE_EQ(t.percentile(1), 0.5);
}

TEST(PercentileTracker, P999NeedsManySamples) {
  gu::PercentileTracker t;
  for (int i = 0; i < 10000; ++i) t.add(i < 9990 ? 1.0 : 1000.0);
  EXPECT_DOUBLE_EQ(t.percentile(99.0), 1.0);
  EXPECT_DOUBLE_EQ(t.percentile(99.9), 1000.0);
}

TEST(LogHistogram, BucketsAndCdf) {
  gu::LogHistogram h(1.0, 1000.0, 10.0);
  // Buckets: [0,1), [1,10), [10,100), [100,1000), [1000,inf)
  h.add(0.5);
  h.add(2.0);
  h.add(20.0);
  h.add(200.0);
  h.add(2000.0);
  EXPECT_EQ(h.total(), 5u);
  EXPECT_EQ(h.count(0), 1u);
  EXPECT_EQ(h.count(1), 1u);
  EXPECT_DOUBLE_EQ(h.cdf(0), 0.2);
  EXPECT_DOUBLE_EQ(h.cdf(1), 0.4);
  EXPECT_DOUBLE_EQ(h.cdf(h.bucket_count() - 1), 1.0);
}
