// Latency statistics: percentile estimation over stored samples plus
// streaming summary moments. The tail-latency study (paper Figure 15) reports
// p80/p90/p95/p99/p99.9, so percentiles here are exact (nearest-rank over the
// full sample set), not sketched.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

namespace griffin::util {

/// Nearest-rank percentile of ascending samples, p in [0, 100]: the
/// smallest value with at least ceil(p/100 * N) samples <= it. The one rule
/// behind PercentileTracker and cluster::HedgeController's windowed delay.
/// Precondition: !sorted.empty().
double nearest_rank(std::span<const double> sorted, double p);

/// Streaming mean / variance / min / max (Welford).
class SummaryStats {
 public:
  void add(double x);
  std::size_t count() const { return count_; }
  double mean() const { return mean_; }
  double variance() const;  // population variance; 0 for fewer than 2 samples
  double stddev() const;
  double min() const { return min_; }
  double max() const { return max_; }

 private:
  std::size_t count_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
};

/// Stores every sample; answers exact percentile queries.
class PercentileTracker {
 public:
  void add(double x) { samples_.push_back(x); sorted_ = false; }
  void reserve(std::size_t n) { samples_.reserve(n); }
  std::size_t count() const { return samples_.size(); }

  /// Nearest-rank percentile, p in [0, 100]. Precondition: count() > 0.
  double percentile(double p) const;
  double median() const { return percentile(50.0); }
  double mean() const;
  double max() const;

  const std::vector<double>& samples() const { return samples_; }

 private:
  mutable std::vector<double> samples_;
  mutable bool sorted_ = false;
};

/// Fixed-bucket histogram over log-spaced bucket edges; used by the workload
/// characterization bench (Figures 10 and 11) to print CDF rows.
class LogHistogram {
 public:
  /// Buckets: [lo, lo*base), [lo*base, lo*base^2), ... until >= hi.
  LogHistogram(double lo, double hi, double base);

  void add(double x);
  std::size_t bucket_count() const { return counts_.size(); }
  double bucket_lo(std::size_t i) const;
  std::uint64_t count(std::size_t i) const { return counts_[i]; }
  std::uint64_t total() const { return total_; }
  /// Cumulative fraction of samples with value < upper edge of bucket i.
  double cdf(std::size_t i) const;

 private:
  double lo_, base_;
  std::vector<std::uint64_t> counts_;
  std::uint64_t total_ = 0;
};

}  // namespace griffin::util
