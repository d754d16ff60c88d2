#include "util/stats.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <limits>

namespace griffin::util {

void SummaryStats::add(double x) {
  if (count_ == 0) {
    min_ = max_ = x;
  } else {
    min_ = std::min(min_, x);
    max_ = std::max(max_, x);
  }
  ++count_;
  const double delta = x - mean_;
  mean_ += delta / static_cast<double>(count_);
  m2_ += delta * (x - mean_);
}

double SummaryStats::variance() const {
  if (count_ < 2) return 0.0;
  return m2_ / static_cast<double>(count_);
}

double SummaryStats::stddev() const { return std::sqrt(variance()); }

double nearest_rank(std::span<const double> sorted, double p) {
  assert(!sorted.empty());
  assert(p >= 0.0 && p <= 100.0);
  if (p <= 0.0) return sorted.front();
  const std::size_t n = sorted.size();
  std::size_t rank = static_cast<std::size_t>(
      std::ceil(p / 100.0 * static_cast<double>(n)));
  if (rank == 0) rank = 1;
  if (rank > n) rank = n;
  return sorted[rank - 1];
}

double PercentileTracker::percentile(double p) const {
  if (!sorted_) {
    std::sort(samples_.begin(), samples_.end());
    sorted_ = true;
  }
  return nearest_rank(samples_, p);
}

double PercentileTracker::mean() const {
  if (samples_.empty()) return 0.0;
  double acc = 0.0;
  for (double s : samples_) acc += s;
  return acc / static_cast<double>(samples_.size());
}

double PercentileTracker::max() const {
  assert(!samples_.empty());
  if (sorted_) return samples_.back();
  return *std::max_element(samples_.begin(), samples_.end());
}

LogHistogram::LogHistogram(double lo, double hi, double base)
    : lo_(lo), base_(base) {
  assert(lo > 0 && hi > lo && base > 1.0);
  std::size_t buckets = 1;
  for (double edge = lo * base; edge < hi; edge *= base) ++buckets;
  counts_.assign(buckets + 1, 0);  // final bucket catches [top_edge, inf)
}

void LogHistogram::add(double x) {
  std::size_t i = 0;
  if (x >= lo_) {
    i = static_cast<std::size_t>(std::log(x / lo_) / std::log(base_)) + 1;
    if (i >= counts_.size()) i = counts_.size() - 1;
  }
  ++counts_[i];
  ++total_;
}

double LogHistogram::bucket_lo(std::size_t i) const {
  if (i == 0) return 0.0;
  return lo_ * std::pow(base_, static_cast<double>(i - 1));
}

double LogHistogram::cdf(std::size_t i) const {
  if (total_ == 0) return 0.0;
  std::uint64_t acc = 0;
  for (std::size_t j = 0; j <= i && j < counts_.size(); ++j) acc += counts_[j];
  return static_cast<double>(acc) / static_cast<double>(total_);
}

}  // namespace griffin::util
