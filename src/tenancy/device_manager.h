// Multi-tenant device ownership (DESIGN.md §12). Every engine so far charged
// a query as if it owned the GPU: a private sim::Timeline per query, reset
// at begin_query. The DeviceManager inverts that: it owns ONE shared
// timeline spanning all co-admitted queries, so the per-resource busy
// clocks (kernel pipeline, dual copy engines, host core) serialize ops
// *across* queries — one tenant's H2D rides under another tenant's
// intersect kernels, and contention shows up as queueing on the clocks
// instead of being wished away.
//
// Three mechanisms:
//   * an admission window of `max_concurrency` lanes — each lane is one
//     core::HybridEngine (its own planner, executor and caches) holding one
//     in-flight query; queued queries admit FIFO into the lane that freed
//     earliest;
//   * min-frontier interleaved stepping — the lane whose next step issues
//     earliest on the shared timeline runs next, so ops are recorded in
//     (approximately) nondecreasing simulated time and the busy clocks'
//     FCFS semantics stay honest;
//   * cross-query kernel batching (tenancy/batch.h) — compatible GPU
//     decode/intersect steps ready within a small window fuse into one
//     launch with shared overhead and a warp-fill bonus.
//
// Results are bit-identical to sequential execution (the golden parity
// test asserts it): tenancy and batching reshape *timing* only.
#pragma once

#include <array>
#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "core/hybrid_engine.h"
#include "index/inverted_index.h"
#include "service/queueing.h"
#include "sim/hardware_spec.h"
#include "sim/timeline.h"
#include "tenancy/batch.h"

namespace griffin::tenancy {

struct TenancyOptions {
  /// Admission window: queries allowed on the device concurrently. 1
  /// degenerates to a sequential device (still on the shared timeline).
  std::uint32_t max_concurrency = 4;
  /// Cross-query kernel batching (tenancy/batch.h).
  BatchOptions batch;
  /// Per-lane engine configuration (scheduler policy, GPU options, CPU
  /// options). Arming engine.faults arms every lane's injector (DESIGN.md
  /// §16): the injector is a stateless function of the seeded coordinate
  /// (engine.fault_scope, query id, step index), so an armed tenant run
  /// injects exactly the faults the same queries would draw sequentially —
  /// a fault inside a fused batch degrades only the hit query, and
  /// survivors' accounting on the shared timeline stays exact.
  core::HybridOptions engine;
};

/// One query offered to the device, with its arrival time. Arrivals must be
/// nondecreasing across a load vector.
struct TenantQuery {
  core::Query query;
  sim::Duration arrival;
};

/// One query's outcome: the usual QueryResult (metrics.total is the query's
/// span on the shared timeline, admission to last op) plus the queueing
/// timestamps. response time = finish - arrival.
struct TenantResult {
  core::QueryResult result;
  sim::Duration arrival;
  sim::Duration release;  ///< admission time (streams opened here)
  sim::Duration finish;   ///< release + result.metrics.total
  /// Rejected by admission control; the result is empty but for
  /// metrics.faults.shed_queries = 1, which core::RunTotals::add counts.
  bool shed = false;
};

class DeviceManager {
 public:
  DeviceManager(const index::InvertedIndex& idx, sim::HardwareSpec hw = {},
                TenancyOptions opt = {});
  ~DeviceManager();

  /// Runs the whole load through the shared device. `max_in_system` > 0 is
  /// admission control (DESIGN.md §11): a query arriving while that many
  /// queries are already in the system (admitted-but-unfinished + queued)
  /// is shed. Resets the shared timeline and the batch-group counter;
  /// per-lane caches persist across run() calls (a warm serving system).
  std::vector<TenantResult> run(std::span<const TenantQuery> load,
                                std::uint32_t max_in_system = 0);

  /// The shared timeline of the last run(): horizon, per-resource busy.
  const sim::Timeline& timeline() const { return tl_; }

  /// Per-resource busy fractions of the last run()'s horizon, indexed by
  /// sim::Resource.
  std::array<double, sim::kNumResources> busy_fractions() const;

  /// Cross-query batches composed by the last run() alone: its nonzero
  /// StepRecord::batch_group ids are exactly 1..batch_groups().
  std::uint64_t batch_groups() const { return composer_.groups(); }

  const TenancyOptions& options() const { return opt_; }

 private:
  struct Lane;

  void admit(Lane& lane, const TenantQuery& tq, std::size_t slot);
  /// Advances the leader lane's pending step (plus any batch members) and
  /// finishes members whose plans drained.
  void step(std::vector<TenantResult>& results);
  void finish(Lane& lane, std::vector<TenantResult>& results);

  TenancyOptions opt_;
  sim::Timeline tl_;
  BatchComposer composer_;
  std::vector<std::unique_ptr<Lane>> lanes_;
  std::uint32_t active_ = 0;  ///< lanes with an in-flight query
  /// Completions of the current run()'s finished queries — the in-system
  /// count at an arrival needs "finished later than t".
  service::QueueDepthTracker finished_;
};

}  // namespace griffin::tenancy
