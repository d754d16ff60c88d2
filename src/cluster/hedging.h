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
// kHedgeWindow observations, not the full history: a long service run would
// otherwise grow memory without bound, and — worse — the estimate would
// never adapt to a regime shift (a warming cache, a recovered replica),
// because millions of stale samples outvote every new one.
#pragma once

#include <algorithm>
#include <cstdint>
#include <optional>
#include <vector>

#include "sim/time.h"
#include "util/stats.h"

namespace griffin::cluster {

/// Sliding-window size for the hedge delay estimate: only the most recent
/// kHedgeWindow observations vote.
inline constexpr std::uint32_t kHedgeWindow = 512;

struct HedgeConfig {
  bool enabled = false;
  /// Hedge when a shard's response lags this percentile of observed
  /// per-shard response times.
  double percentile = 95.0;
  /// Observations required before the estimate is trusted; no hedges fire
  /// during warm-up.
  std::uint32_t min_samples = 32;
};

class HedgeController {
 public:
  explicit HedgeController(HedgeConfig cfg) : cfg_(cfg) {}

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
    if (samples_.size() < kHedgeWindow) {
      samples_.push_back(ms);
    } else {
      samples_[next_] = ms;
      next_ = (next_ + 1) % kHedgeWindow;
    }
    ++total_;
  }

  /// Observations ever recorded (not the window occupancy).
  std::size_t observations() const { return total_; }
  std::size_t window_size() const { return samples_.size(); }

 private:
  /// Nearest-rank percentile over the current window (the ring buffer
  /// keeps arrival order, so a sorted copy answers).
  double percentile(double p) const {
    scratch_ = samples_;
    std::sort(scratch_.begin(), scratch_.end());
    return util::nearest_rank(scratch_, p);
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
