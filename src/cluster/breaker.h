// Per-replica circuit breaker (DESIGN.md §11) on the simulated clock. The
// classic three-state machine: Closed passes requests through and counts
// consecutive failures; at the threshold the breaker Opens and short-
// circuits every attempt (the broker skips the replica without paying the
// crash-detection timeout); after `open_duration` it becomes Half-Open and
// admits a single probe — a success closes it, a failure re-opens it for
// another window. Everything is synchronous in the broker's discrete-event
// loop, so no in-flight probe bookkeeping is needed: allow() is always
// followed by record_success() or record_failure() at the same instant.
#pragma once

#include <cstdint>

#include "sim/time.h"

namespace griffin::cluster {

/// Consecutive failures that open the breaker.
inline constexpr std::uint32_t kBreakerFailureThreshold = 3;

struct BreakerConfig {
  bool enabled = false;
  /// Open time before the half-open probe window.
  sim::Duration open_duration = sim::Duration::from_ms(50);
};

class CircuitBreaker {
 public:
  enum class State : std::uint8_t { kClosed, kOpen, kHalfOpen };

  explicit CircuitBreaker(BreakerConfig cfg = {}) : cfg_(cfg) {}

  State state(sim::Duration now) const {
    if (!open_) return State::kClosed;
    return now >= opened_at_ + cfg_.open_duration ? State::kHalfOpen
                                                  : State::kOpen;
  }

  /// May a request be sent to the replica at `now`? True when closed or
  /// half-open (the probe); false while open (short-circuit).
  bool allow(sim::Duration now) const {
    return !cfg_.enabled || state(now) != State::kOpen;
  }

  /// Records a failed attempt. Returns true when this failure opened (or
  /// re-opened, from half-open) the breaker.
  bool record_failure(sim::Duration now) {
    if (!cfg_.enabled) return false;
    if (state(now) == State::kHalfOpen) {
      opened_at_ = now;  // failed probe: re-open for another window
      return true;
    }
    ++consecutive_failures_;
    if (!open_ && consecutive_failures_ >= kBreakerFailureThreshold) {
      open_ = true;
      opened_at_ = now;
      return true;
    }
    return false;
  }

  void record_success() {
    consecutive_failures_ = 0;
    open_ = false;
  }

  const BreakerConfig& config() const { return cfg_; }

 private:
  BreakerConfig cfg_;
  std::uint32_t consecutive_failures_ = 0;
  bool open_ = false;
  sim::Duration opened_at_;
};

}  // namespace griffin::cluster
