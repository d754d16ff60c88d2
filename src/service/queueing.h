// Queueing primitives shared by the single-node service simulation
// (service_sim.h) and the multi-node cluster broker (cluster/broker.h):
// a Poisson arrival process and an FCFS single-server queue, both in the
// repository-wide simulated clock. Factoring these out is what lets the
// cluster layer model per-shard and per-replica queues with exactly the
// same discipline the single-node simulation uses.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <vector>

#include "sim/time.h"
#include "util/rng.h"

namespace griffin::service {

/// Poisson arrival process: exponential inter-arrival gaps with mean 1/qps.
/// Degenerate loads are guarded rather than undefined: qps <= 0 (or small
/// enough that a gap would overflow the int64 picosecond clock) caps each
/// gap at one simulated hour — far beyond any service time in the repo, so
/// such a stream behaves as "no queueing" instead of crashing.
class PoissonArrivals {
 public:
  PoissonArrivals(double qps, std::uint64_t seed) : rng_(seed) {
    mean_gap_s_ = qps > 0.0 ? 1.0 / qps : kMaxGapSeconds;
  }

  /// Advances and returns the next arrival time (nondecreasing).
  sim::Duration next() {
    const double u = std::max(rng_.uniform01(), 1e-12);
    const double gap_s =
        std::min(-mean_gap_s_ * std::log(u), kMaxGapSeconds);
    clock_ += sim::Duration::from_seconds(gap_s);
    return clock_;
  }

 private:
  static constexpr double kMaxGapSeconds = 3600.0;
  util::Xoshiro256 rng_;
  double mean_gap_s_;
  sim::Duration clock_;
};

/// A job's schedule on one server.
struct Completion {
  sim::Duration start;  ///< service begins (>= arrival)
  sim::Duration done;   ///< service ends
};

/// Single FCFS server: one job at a time, work-conserving. submit() is the
/// whole discipline — a job arriving at `arrival` starts when the server
/// frees and holds it for `service`. Out-of-order submissions (the hedging
/// path re-issues work at later timestamps) are still scheduled correctly:
/// start = max(arrival, free_at) is valid for any submission order, it just
/// is no longer strictly first-come-first-served across interleaved streams.
class FcfsServer {
 public:
  Completion submit(sim::Duration arrival, sim::Duration service) {
    const sim::Duration start = sim::max(arrival, free_at_);
    const sim::Duration done = start + service;
    free_at_ = done;
    busy_ += service;
    return {start, done};
  }

  sim::Duration free_at() const { return free_at_; }

  /// Busy fraction over [0, horizon]; 0 for an empty horizon.
  double utilization(sim::Duration horizon) const {
    if (horizon.ps() <= 0) return 0.0;
    return busy_ / horizon;
  }

 private:
  sim::Duration free_at_;
  sim::Duration busy_;
};

/// Tracks the maximum number of jobs simultaneously in the system (queued +
/// in service), observed at arrival instants — the backlog a newly arriving
/// query sees, itself included. Every completion is kept, sorted, so the
/// depth at any arrival is one binary search however deep the backlog (one
/// Duration per job, like the latency samples callers already store).
class QueueDepthTracker {
 public:
  /// Records a job's (arrival, completion); returns the depth at arrival:
  /// the recorded jobs, this one included, still in the system after it.
  std::uint64_t observe(sim::Duration arrival, sim::Duration done) {
    record(done);
    const std::uint64_t depth = in_system(arrival);
    max_depth_ = std::max(max_depth_, depth);
    return depth;
  }

  /// Records a job's completion without observing a depth.
  void record(sim::Duration done) {
    auto& c = completions_;
    c.insert(std::upper_bound(c.begin(), c.end(), done), done);
  }

  /// The recorded jobs still in the system at `t`: those completing after
  /// it.
  std::uint64_t in_system(sim::Duration t) const {
    const auto& c = completions_;
    return static_cast<std::uint64_t>(
        c.end() - std::upper_bound(c.begin(), c.end(), t));
  }

  std::uint64_t max_depth() const { return max_depth_; }

 private:
  std::vector<sim::Duration> completions_;  ///< ascending
  std::uint64_t max_depth_ = 0;
};

}  // namespace griffin::service
