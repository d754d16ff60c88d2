// Interactive-service simulation: the paper closes by noting Griffin should
// be evaluated "in more complex scenarios under heavy system loads with
// multiple users" — this module provides that as a discrete-event queueing
// simulation in the same simulated clock the engines use.
//
// Queries arrive as a Poisson process and queue FCFS for a single query-
// processing node (the paper's per-node intra-query setting). A query's
// service time is its engine latency (simulated); its *response* time adds
// the queueing delay. Because Griffin shortens exactly the long queries
// that block the queue, its tail-latency advantage compounds under load —
// the classic head-of-line effect this bench quantifies.
#pragma once

#include <array>
#include <cstdint>
#include <span>
#include <vector>

#include "core/query.h"
#include "tenancy/device_manager.h"
#include "util/rng.h"
#include "util/stats.h"

namespace griffin::service {

struct ServiceConfig {
  /// Mean offered load in queries per second (Poisson arrivals). Non-positive
  /// or vanishingly small rates degrade gracefully to a no-queueing stream
  /// (gaps capped at one simulated hour; see service/queueing.h).
  double arrival_qps = 100.0;
  std::uint64_t seed = 99;
};

/// One service run. The core::RunTotals members sum the executed queries
/// (the engine and multi-tenant overloads; zero in the precomputed-
/// service-times overload). Every offered query is answered: the queues are
/// unbounded, and admission control lives in DeviceManager::run's
/// `max_in_system` (DESIGN.md §11).
struct ServiceResult : core::RunTotals {
  util::PercentileTracker response_ms;  ///< queueing + service
  util::PercentileTracker service_ms;   ///< engine latency alone
  /// Busy fraction of the server as a whole: the FCFS server's busy/span
  /// in the single-server overloads, the bottleneck resource's fraction in
  /// the multi-tenant overload.
  double utilization = 0.0;
  /// Per-resource busy fractions (indexed by sim::Resource) of the run's
  /// span: from summed per-query timeline busy in the engine overload,
  /// from the shared timeline in the multi-tenant overload. Zero in the
  /// precomputed-service-times overload, which has no resource data.
  std::array<double, sim::kNumResources> resource_utilization{};
  /// The run's makespan: when the server (or shared device) finally went
  /// idle. The denominator of the utilization fractions.
  sim::Duration horizon;
  std::uint64_t max_queue_depth = 0;
};

/// Queueing simulation over precomputed per-query service times (engine
/// latencies are deterministic, so load sweeps reuse one execution pass).
ServiceResult run_service(std::span<const sim::Duration> service_times,
                          const ServiceConfig& cfg);

/// Convenience: executes each query once through `engine`, then simulates.
ServiceResult run_service(core::Engine& engine,
                          const std::vector<core::Query>& queries,
                          const ServiceConfig& cfg);

/// Multi-tenant service simulation (DESIGN.md §12): queries arrive Poisson
/// and run concurrently through the DeviceManager's shared timeline — a
/// query completes when its critical path through the *shared* device
/// finishes, so queueing, contention, and cross-query batching all shape
/// the response distribution. resource_utilization comes from the shared
/// timeline's busy clocks; `utilization` is the bottleneck resource's.
ServiceResult run_service(tenancy::DeviceManager& device,
                          const std::vector<core::Query>& queries,
                          const ServiceConfig& cfg);

/// One execution pass: the service-time vector for a query set. When
/// `totals` is non-null, every executed query is added to it.
std::vector<sim::Duration> measure_service_times(
    core::Engine& engine, const std::vector<core::Query>& queries,
    core::RunTotals* totals = nullptr);

}  // namespace griffin::service
