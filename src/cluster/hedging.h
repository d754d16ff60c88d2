// Hedged requests — the classic tail-at-scale mitigation (Dean & Barroso,
// CACM 2013): if a shard has not answered within a delay derived from the
// observed latency distribution (e.g. its p95), re-issue the request to a
// replica and take whichever response lands first. The delay is adaptive:
// the controller keeps every observed shard response time and answers the
// configured percentile, so hedges fire only on genuine stragglers (~5% of
// requests at p95) instead of doubling all load.
//
// In the discrete-event timeline "the timer fires before the reply" is the
// condition primary_done > issue_time + delay(), which the broker can test
// exactly (cluster/broker.cpp). Hedged work is not cancelled on either side
// — the conservative no-cancellation variant — so replica queues absorb the
// duplicate service time.
//
// The delay estimate runs over a bounded sliding window of the most recent
// observations (HedgeConfig::window), not the full history: a long service
// run would otherwise grow memory without bound, and — worse — the estimate
// would never adapt to a regime shift (a warming cache, a recovered
// replica), because millions of stale samples outvote every new one.
#pragma once

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdint>
#include <optional>
#include <stdexcept>
#include <vector>

#include "sim/time.h"
#include "sim/timeline.h"

namespace griffin::cluster {

/// What arms a hedge (DESIGN.md §12). The latency-percentile trigger reacts
/// to the *symptom* — this request is already slow; the occupancy trigger
/// reacts to the *cause* — the replica's bottleneck resource is saturated,
/// so queueing delay is coming even for requests that have not lagged yet.
enum class HedgeTrigger : std::uint8_t {
  /// Classic Dean & Barroso: hedge when the primary's reply lags the
  /// observed response-time percentile.
  kLatencyPercentile = 0,
  /// Resource-accurate: hedge immediately when the primary replica's
  /// bottleneck-resource busy fraction (windowed, from the shards' timeline
  /// accounting) is at or above occupancy_threshold.
  kBottleneckOccupancy = 1,
};

struct HedgeConfig {
  bool enabled = false;
  HedgeTrigger trigger = HedgeTrigger::kLatencyPercentile;
  /// Hedge when a shard's response lags this percentile of observed
  /// per-shard response times (kLatencyPercentile).
  double percentile = 95.0;
  /// Windowed bottleneck busy fraction at/above which the occupancy trigger
  /// fires (kBottleneckOccupancy).
  double occupancy_threshold = 0.65;
  /// Observations required before the estimate (either trigger) is trusted;
  /// no hedges fire during warm-up.
  std::uint32_t min_samples = 32;
  /// Sliding-window size for the estimate: only the most recent `window`
  /// observations vote. Must be > 0 (rejected at construction).
  std::uint32_t window = 512;
};

/// A sliding window must hold at least one observation.
inline std::uint32_t checked_window(std::uint32_t window) {
  if (window == 0) throw std::invalid_argument("hedge window must be > 0");
  return window;
}

/// Windowed per-resource occupancy of one replica, fed from the per-query
/// timeline busy durations the shards report (core::OverlapCounters). The
/// bottleneck is the resource with the highest windowed busy fraction:
/// sum(busy_r) / sum(span) over the resident samples — a span-weighted
/// average, so long queries count for what they occupied.
class ReplicaOccupancy {
 public:
  ReplicaOccupancy(std::uint32_t window, std::uint32_t min_samples)
      : window_(checked_window(window)), min_samples_(min_samples) {}

  struct Sample {
    std::array<sim::Duration, sim::kNumResources> busy{};
    sim::Duration span;
  };

  void record(const Sample& s) {
    for (std::size_t r = 0; r < sim::kNumResources; ++r) {
      busy_[r] += s.busy[r];
    }
    span_ += s.span;
    if (samples_.size() < window_) {
      samples_.push_back(s);
    } else {
      const Sample& old = samples_[next_];
      for (std::size_t r = 0; r < sim::kNumResources; ++r) {
        busy_[r] -= old.busy[r];
      }
      span_ -= old.span;
      samples_[next_] = s;
      next_ = (next_ + 1) % window_;
    }
    ++total_;
  }

  /// The bottleneck resource's windowed busy fraction, or nullopt while
  /// warming up / with an empty span. Can exceed 1 under multi-tenant
  /// contention (a resource busier than one query-span's worth of time).
  std::optional<double> bottleneck() const {
    if (total_ < min_samples_ || span_.ps() <= 0) return std::nullopt;
    sim::Duration top;
    for (const auto& b : busy_) top = sim::max(top, b);
    return top / span_;
  }

  /// The resource the bottleneck fraction belongs to (kCpu on an empty
  /// window).
  sim::Resource bottleneck_resource() const {
    std::size_t arg = 0;
    for (std::size_t r = 1; r < sim::kNumResources; ++r) {
      if (busy_[r] > busy_[arg]) arg = r;
    }
    return static_cast<sim::Resource>(arg);
  }

  std::size_t observations() const { return total_; }

 private:
  std::uint32_t window_;
  std::uint32_t min_samples_;
  std::vector<Sample> samples_;  ///< ring buffer once full
  std::size_t next_ = 0;
  std::size_t total_ = 0;
  std::array<sim::Duration, sim::kNumResources> busy_{};  ///< windowed sums
  sim::Duration span_;                                    ///< windowed sum
};

class HedgeController {
 public:
  explicit HedgeController(HedgeConfig cfg) : cfg_(cfg) {
    checked_window(cfg.window);
  }

  const HedgeConfig& config() const { return cfg_; }

  /// Current hedge delay, or nullopt while disabled / warming up. Warm-up
  /// counts *total* observations, so a controller stays trusted once warmed
  /// even though the window holds only the newest samples.
  std::optional<sim::Duration> delay() const {
    if (!cfg_.enabled || total_ < cfg_.min_samples || samples_.empty()) {
      return std::nullopt;
    }
    return sim::Duration::from_ms(percentile(cfg_.percentile));
  }

  /// Feeds one observed shard response time (queueing + service, as seen by
  /// the broker). Past the window bound, the oldest observation is
  /// overwritten (ring buffer).
  void record(sim::Duration shard_response) {
    const double ms = shard_response.ms();
    if (samples_.size() < cfg_.window) {
      samples_.push_back(ms);
    } else {
      samples_[next_] = ms;
      next_ = (next_ + 1) % cfg_.window;
    }
    ++total_;
  }

  /// Observations ever recorded (not the window occupancy).
  std::size_t observations() const { return total_; }
  std::size_t window_size() const { return samples_.size(); }

 private:
  /// Nearest-rank percentile over the current window — the same rule
  /// util::PercentileTracker uses, restricted to the resident samples.
  double percentile(double p) const {
    scratch_ = samples_;
    std::sort(scratch_.begin(), scratch_.end());
    const auto n = static_cast<double>(scratch_.size());
    auto rank = static_cast<std::size_t>(std::ceil(p / 100.0 * n));
    rank = std::clamp<std::size_t>(rank, 1, scratch_.size());
    return scratch_[rank - 1];
  }

  HedgeConfig cfg_;
  std::vector<double> samples_;  ///< ring buffer once full
  std::size_t next_ = 0;         ///< overwrite cursor
  std::size_t total_ = 0;        ///< lifetime observation count
  mutable std::vector<double> scratch_;
};

struct HedgeStats {
  std::uint64_t issued = 0;  ///< hedges sent to a replica
  std::uint64_t won = 0;     ///< hedges that beat the primary
};

}  // namespace griffin::cluster
