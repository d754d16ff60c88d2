// The scatter-gather broker: the serving layer that turns N single-node
// Griffin engines into one cluster. A query arrives at the broker, which
//
//   1. consults the LRU result cache (result_cache.h) — a hit answers in
//      kCacheHitLatency without touching any shard;
//   2. on a miss, scatters the query to every shard (one network half-RTT
//      out), where it queues FCFS behind that shard's backlog;
//   3. optionally *hedges*: when a shard has not answered within the
//      adaptive percentile delay (hedging.h), the same query is re-issued
//      to that shard's replica and the first response wins;
//   4. gathers the per-shard top-k heaps (half-RTT back) and merges them
//      into the global top-k — exactly the result the unpartitioned engine
//      would return, because document partitioning decomposes conjunctive
//      queries losslessly and shards score with global statistics
//      (index/shard.h).
//
// Everything runs in the repository's simulated clock: service times come
// from the deterministic engines, queueing from service/queueing.h, and all
// randomness (arrivals, straggler injection) is seeded — a run is exactly
// reproducible.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "cluster/breaker.h"
#include "cluster/hedging.h"
#include "cluster/partitioner.h"
#include "cluster/result_cache.h"
#include "cluster/shard_node.h"
#include "core/hybrid_engine.h"
#include "fault/fault.h"
#include "service/service_sim.h"

namespace griffin::cluster {

/// Broker <-> shard round trip (intra-datacenter).
inline constexpr sim::Duration kNetRtt = sim::Duration::from_us(200);
/// Gather-merge cost charged per participating shard.
inline constexpr sim::Duration kMergePerShard = sim::Duration::from_us(3);

struct ClusterConfig {
  std::uint32_t num_shards = 4;
  PartitionStrategy partition = PartitionStrategy::kRoundRobin;
  /// Replicas per shard; hedging needs >= 2 (the second queue).
  std::uint32_t replicas_per_shard = 2;
  HedgeConfig hedge;
  /// Result-cache entry bound at the broker (0 = no count bound).
  std::size_t cache_capacity = 0;
  /// Result-cache byte budget (0 = no byte bound). Caching is enabled when
  /// either bound is set; both zero disables it.
  std::uint64_t cache_budget_bytes = 0;
  double arrival_qps = 200.0;
  std::uint64_t seed = 1;

  /// Fault-injection schedule (DESIGN.md §11). Engine sites (gpu, pcie) are
  /// copied into every shard's HybridOptions with fault_scope = shard id;
  /// cluster sites (crash, slow, outages) drive the broker's attempt loop.
  /// The slow site is the straggler model: the *primary* replica's service
  /// time is multiplied by slow_factor (a GC pause, a flaky disk, a noisy
  /// neighbor), while the hedge replica runs at normal speed — the scenario
  /// hedging exists for.
  /// The fault seed is mixed with `seed` at construction so two runs that
  /// differ only in the cluster seed see different fault placements.
  fault::FaultConfig faults;
  /// Per-shard response deadline, measured from the instant the scatter
  /// reaches the shard. A shard that has not answered by then is dropped
  /// from the gather (partial result, coverage < 1). Zero disables it.
  sim::Duration shard_deadline;
  /// Submission attempts per shard before giving up; attempt i goes to
  /// replica (i mod replicas_per_shard). A crashed replica costs
  /// kCrashDetect plus a kRetryBackoff * 2^i backoff (cluster/broker.cpp).
  std::uint32_t max_attempts = 3;
  /// Per-replica circuit breaker; open breakers short-circuit attempts
  /// without paying kCrashDetect.
  BreakerConfig breaker;
  /// Record a per-query outcome row (coverage, degraded flag, merged top-k)
  /// in ClusterResult::outcomes. Off by default: it holds the merged top-k
  /// per query, so memory grows with the stream.
  bool record_outcomes = false;
};

/// Per-query gather outcome, recorded when ClusterConfig::record_outcomes
/// is set. Non-degraded outcomes are bit-identical to a fault-free run —
/// the equivalence test_fault_cluster sweeps.
struct QueryOutcome {
  std::uint64_t query = 0;  ///< index in the replayed stream
  bool cache_hit = false;
  bool degraded = false;  ///< gathered with coverage < 1
  double coverage = 1.0;  ///< shards answered / shards total
  std::vector<core::ScoredDoc> topk;
};

struct ClusterResult {
  util::PercentileTracker response_ms;  ///< arrival -> merged answer
  /// Critical-path shard time per cache-missing query: max over shards of
  /// (queueing + service) as the broker observes it.
  util::PercentileTracker shard_critical_ms;
  util::LruStats cache;
  HedgeStats hedge;
  /// Shard-engine cache-tier counters (device list cache + host decoded
  /// cache), summed over every shard execution in the run.
  core::CacheCounters engine_cache;
  /// Plan-step aggregate (QueryResult::trace) over every shard execution in
  /// the run: how the cluster's work split across processors and stages.
  core::TraceSummary trace;
  /// Copy/compute-overlap counters (DESIGN.md §10) summed over every shard
  /// execution in the run.
  core::OverlapCounters engine_overlap;
  /// Resident bytes in the broker's result cache at the end of the run.
  std::uint64_t result_cache_bytes = 0;
  std::vector<double> shard_utilization;  ///< primary replica, per shard
  std::uint64_t max_queue_depth = 0;      ///< across primary replicas
  std::uint64_t cache_hits_served = 0;
  sim::Duration horizon;  ///< last event in the run

  /// Fault and degradation counters: engine-level faults summed over every
  /// shard execution plus the broker's own failure handling.
  fault::FaultCounters faults;
  /// Coverage (shards answered / total) accumulated over gathered (cache-
  /// missing) queries; mean_coverage() is 1.0 exactly when nothing degraded.
  double coverage_sum = 0.0;
  double min_coverage = 1.0;
  std::uint64_t gathered_queries = 0;
  /// Per-query outcomes; filled only when ClusterConfig::record_outcomes.
  std::vector<QueryOutcome> outcomes;

  double mean_response_ms() const { return response_ms.mean(); }
  double mean_coverage() const {
    return gathered_queries == 0 ? 1.0
                                 : coverage_sum / double(gathered_queries);
  }
};

class ClusterBroker {
 public:
  /// Partitions `full` into cfg.num_shards document shards and stands up
  /// one ShardNode per shard. `full` is only read during construction.
  ClusterBroker(const index::InvertedIndex& full, ClusterConfig cfg,
                sim::HardwareSpec hw = {}, core::HybridOptions opt = {});

  /// Untimed scatter-gather: executes on every shard and merges. Returns
  /// the exact global top-k (the equivalence the cluster tests sweep).
  /// Metrics model the parallel fan-out: total = slowest shard + merge.
  core::QueryResult execute(const core::Query& q);

  /// Timed replay of a query stream: Poisson arrivals, per-replica FCFS
  /// queues, hedging, and the result cache, all in simulated time. Queue,
  /// cache, and hedge state live inside the call — runs are independent,
  /// so the same broker can replay any number of streams deterministically.
  ClusterResult run(const std::vector<core::Query>& queries);

  std::uint32_t num_shards() const {
    return static_cast<std::uint32_t>(nodes_.size());
  }
  ShardNode& node(std::uint32_t s) { return *nodes_[s]; }
  const ShardNode& node(std::uint32_t s) const { return *nodes_[s]; }
  const ClusterConfig& config() const { return cfg_; }
  const fault::FaultInjector& injector() const { return injector_; }

 private:
  ClusterConfig cfg_;  ///< normalized: fault seed mixed with the seed
  fault::FaultInjector injector_;
  std::vector<std::unique_ptr<ShardNode>> nodes_;
};

/// Merges per-shard top-k lists into the global top-k with the same
/// ordering the single-node engines use (score desc, docID asc). Document
/// partitioning guarantees no docID appears in more than one part.
std::vector<core::ScoredDoc> merge_topk(
    std::span<const std::vector<core::ScoredDoc>> parts, std::uint32_t k);

}  // namespace griffin::cluster
