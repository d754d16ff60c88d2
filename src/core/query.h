// Query types, per-query metrics and trace records, and the core::Engine
// interface that core::HybridEngine (and so its CPU-only and GPU-only
// presets) implements. Kept dependency-light so every layer can include it
// without cycles.
#pragma once

#include <array>
#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "fault/fault.h"
#include "index/inverted_index.h"
#include "sim/cpu_cost_model.h"
#include "sim/time.h"
#include "sim/timeline.h"
#include "util/fields.h"
#include "util/lru_cache.h"

namespace griffin::core {

/// A conjunctive (AND) query: documents must contain every term.
struct Query {
  std::vector<index::TermId> terms;
  std::uint32_t k = 10;  ///< results to return
  std::uint64_t id = 0;  ///< caller-assigned id (trace position)
};

struct ScoredDoc {
  index::DocId doc = 0;
  float score = 0.0f;
  bool operator==(const ScoredDoc&) const = default;
};

/// Where one intersection step ran — the scheduler's decision trail.
/// kSplit is the co-execution placement (DESIGN.md §15): the probe side is
/// partitioned into two docID-disjoint ranges and both processors run their
/// range at once; the concatenated partials are bit-identical to either
/// single-processor result.
enum class Placement : std::uint8_t { kCpu, kGpu, kSplit };

/// The step taxonomy of the physical-plan layer (core/plan.h holds the typed
/// step structs; the kind tag lives here so trace records stay
/// dependency-light).
enum class StepKind : std::uint8_t {
  kDecode,
  kIntersect,
  kTransfer,
  kRank,
  /// Asynchronous H2D of a later step's posting list on the copy engine,
  /// overlapping the current step's kernels (DESIGN.md §10). Never changes
  /// results; dropped (its entry discarded) when the plan migrates to CPU.
  kPrefetch,
  /// Host-side decode of a later step's posting list into the decoded
  /// cache while the GPU runs the current intersect (DESIGN.md §15): the
  /// idle processor works ahead on a step with no data dependence — only a
  /// later consumer (via the host cache) benefits.
  kHostDecode,
};

/// One intersection step as the scheduler sees it (core/scheduler.h decides
/// on exactly this; core/planner.h builds it from the intermediate-result
/// state plus the cache-residency probes).
struct StepShape {
  std::uint64_t shorter = 0;       ///< current intermediate (or short list)
  /// Terms the shorter side holds: 1 for a list, more for an intermediate,
  /// whose rows carry one position column per term (core/rows.h). Its row
  /// width prices the intermediate's PCIe crossings.
  std::uint32_t terms = 1;
  std::uint64_t longer = 0;        ///< next posting list length
  std::uint64_t longer_bytes = 0;  ///< its compressed payload bytes
  /// The share of the collection's documents that hold the long list's
  /// term (collection-wide df / N, so a shard reads the global share): the
  /// chance that one probe matches when docIDs fall independently. The
  /// split's GPU leg prices its partial's D2H at the expected matches; 1
  /// prices every probe matching.
  double longer_density = 1.0;
  /// The long list's compression scheme: the cost model prices the CPU
  /// decode through the per-codec lane model and charges the GPU a decode
  /// penalty for codecs with no lane-parallel kernel (gpu/decode.h).
  codec::Scheme longer_scheme = codec::Scheme::kEliasFano;
  /// Long list already resident in the GPU's list cache (no H2D transfer).
  bool longer_device_resident = false;
  /// Long list already decoded in the host cache (no CPU decode work).
  bool longer_host_decoded = false;
  /// Long list already in flight to (or landed on) the device via a
  /// kPrefetch step: the H2D is paid and hidden, so the GPU side owes no
  /// transfer for it (scheduler crossover shifts accordingly).
  bool longer_prefetched = false;
  std::optional<Placement> current_location;  ///< where the intermediate lives
  bool operator==(const StepShape&) const = default;
};

/// One executed plan step, as appended to QueryResult::trace. The duration
/// fields and the issue/start/end placement are derived from the timeline
/// ops the step recorded, and the QueryMetrics stage totals from all of the
/// query's ops, so summing any stage over a trace reproduces that
/// QueryMetrics field exactly — every op in the system belongs to some step.
struct StepRecord {
  StepKind kind = StepKind::kDecode;
  /// The query this step belongs to (Query::id). Under multi-tenancy the
  /// trace JSONL interleaves co-admitted queries; this keeps rows
  /// attributable.
  std::uint64_t query = 0;
  /// Cross-query kernel batch this step was coalesced into (tenancy
  /// BatchComposer). 0 = unbatched; equal non-zero ids mark steps whose
  /// kernels launched together and shared the launch overhead.
  std::uint64_t batch_group = 0;
  /// Decode/intersect: the processor that ran the step (kSplit when both
  /// ran a range of it). Transfer: the destination. Rank: kCpu.
  Placement placement = Placement::kCpu;
  /// kSplit intersects only: the GPU's share of the probe side — the
  /// scheduler's throughput-proportional fraction α (Scheduler::split_alpha
  /// replays it from `shape`).
  double alpha = 0.0;
  index::TermId term = 0;  ///< posting list consumed (decode/intersect)
  /// Intersect steps: the scheduler's input, residency bits included
  /// (Scheduler::decide(shape) replays to `placement`).
  StepShape shape;
  std::uint64_t output_count = 0;  ///< intermediate size after the step
  std::uint64_t gpu_kernels = 0;   ///< kernel launches charged by the step
  /// kTransfer only: a mid-query placement flip (QueryMetrics::migrations),
  /// as opposed to the final device->host drain before ranking.
  bool migration = false;
  /// The step was abandoned by an injected GPU device fault (DESIGN.md §11)
  /// or by the OOM ladder's re-plan rung (DESIGN.md §16): its duration is
  /// the wasted device time, its work was redone on the CPU by the
  /// re-planned steps that follow it in the trace.
  bool faulted = false;
  /// kSplit only: the GPU leg was lost to an injected device fault but the
  /// step still completed — the CPU leg's partial survived and the high
  /// range was redone host-side (DESIGN.md §16). Unlike `faulted`, the step
  /// did its full stage work and counts normally.
  bool leg_faulted = false;
  sim::Duration duration;          ///< decode + intersect + transfer + rank
  sim::Duration decode;
  sim::Duration intersect;
  sim::Duration transfer;
  sim::Duration rank;
  /// Lane-accounting delta this step added to QueryMetrics::simd (all zero
  /// for scalar-mode CPUs, GPU-placed steps and transfers). simd.utilization()
  /// is the step's vector-lane occupancy.
  sim::SimdCounters simd;
  /// Timeline placement (DESIGN.md §10): when the step's first op could
  /// issue (stream + event dependencies met), when its resource actually
  /// started it, and when its last op finished. duration sums the op
  /// durations, so end - start < duration exactly when the step's own ops
  /// overlapped each other (double-buffered decode).
  sim::Duration issue;
  sim::Duration start;
  sim::Duration end;
  /// The step's primary resource: compute unit for decode/intersect, the
  /// copy engine for transfer/prefetch, the host for rank.
  sim::Resource resource = sim::Resource::kCpu;
  bool operator==(const StepRecord&) const = default;
};

/// Order-free aggregate of step records: RunTotals::add folds every
/// executed query's trace into one of these (per broker run, per service
/// run), next to the run's CacheCounters.
struct TraceSummary {
  std::uint64_t steps = 0;
  std::uint64_t decode_steps = 0;
  std::uint64_t intersect_steps = 0;
  std::uint64_t transfer_steps = 0;
  std::uint64_t rank_steps = 0;
  std::uint64_t prefetch_steps = 0;
  std::uint64_t cpu_intersects = 0;  ///< intersect steps placed on the CPU
  std::uint64_t gpu_intersects = 0;  ///< intersect steps placed on the GPU
  /// Intersect steps co-executed on both processors (Placement::kSplit).
  std::uint64_t split_intersects = 0;
  std::uint64_t host_decode_steps = 0;  ///< kHostDecode work-ahead steps
  std::uint64_t migrations = 0;      ///< transfer steps that were migrations
  std::uint64_t faulted_steps = 0;   ///< steps abandoned by injected faults
  /// Split steps that completed with their GPU leg redone on the CPU after
  /// an injected device fault (StepRecord::leg_faulted).
  std::uint64_t leg_faulted_steps = 0;
  /// Steps coalesced into a cross-query batch.
  std::uint64_t batched_steps = 0;
  /// Summed StepRecord::duration — the *serial* stage time, i.e. per query
  /// QueryMetrics::total (critical path) + overlap.saved.
  sim::Duration step_time;
  /// Summed lane-accounting counters over every CPU step (DESIGN.md §13).
  sim::SimdCounters simd;

  /// Vector-lane occupancy across the whole trace (0 when no vectorized
  /// loop ran anywhere — scalar CPUs or pure-GPU plans).
  double lane_utilization() const { return simd.utilization(); }

  void add(const StepRecord& r) {
    ++steps;
    if (r.batch_group != 0) ++batched_steps;
    if (r.leg_faulted) ++leg_faulted_steps;
    simd += r.simd;
    if (r.faulted) {
      // An abandoned step's wasted time is real, but it did no stage work —
      // counting it as a gpu_intersect would misstate the processor split.
      ++faulted_steps;
      step_time += r.duration;
      return;
    }
    switch (r.kind) {
      case StepKind::kDecode: ++decode_steps; break;
      case StepKind::kIntersect:
        ++intersect_steps;
        switch (r.placement) {
          case Placement::kCpu: ++cpu_intersects; break;
          case Placement::kGpu: ++gpu_intersects; break;
          case Placement::kSplit: ++split_intersects; break;
        }
        break;
      case StepKind::kTransfer:
        ++transfer_steps;
        if (r.migration) ++migrations;
        break;
      case StepKind::kRank: ++rank_steps; break;
      case StepKind::kPrefetch: ++prefetch_steps; break;
      case StepKind::kHostDecode: ++host_decode_steps; break;
    }
    step_time += r.duration;
  }
  void add(std::span<const StepRecord> trace) {
    for (const auto& r : trace) add(r);
  }
  bool operator==(const TraceSummary&) const = default;

  /// Fraction of single-processor intersects that ran on the GPU. Split
  /// steps engage both processors at once, so they are excluded here and
  /// reported through split_intersects instead.
  double gpu_intersect_fraction() const {
    const std::uint64_t n = cpu_intersects + gpu_intersects;
    return n == 0 ? 0.0
                  : static_cast<double>(gpu_intersects) /
                        static_cast<double>(n);
  }
};

/// Hit/miss/eviction counts for the two engine-side caching tiers: the
/// device-resident compressed-list cache (gpu/list_cache.h) and the host
/// decoded-postings cache (cpu/decoded_cache.h). Pure counters — the time
/// saved by a hit shows up as *absent* charges in the stage durations, so
/// decode + intersect + transfer + rank still sums to total. The engines
/// count each lookup and eviction here as they make it (the caches count
/// nothing). `+=` and the bench JSON come from fields() (util/fields.h).
struct CacheCounters {
  std::uint64_t device_hits = 0;
  std::uint64_t device_misses = 0;
  std::uint64_t device_evictions = 0;
  std::uint64_t host_hits = 0;
  std::uint64_t host_misses = 0;
  std::uint64_t host_evictions = 0;

  static constexpr auto fields() {
    using C = CacheCounters;
    return std::tuple{util::field("device_hits", &C::device_hits),
                      util::field("device_misses", &C::device_misses),
                      util::field("device_evictions", &C::device_evictions),
                      util::field("host_hits", &C::host_hits),
                      util::field("host_misses", &C::host_misses),
                      util::field("host_evictions", &C::host_evictions)};
  }

  CacheCounters& operator+=(const CacheCounters& o) {
    return util::add_fields(*this, o);
  }
  bool operator==(const CacheCounters&) const = default;

  double device_hit_rate() const {
    return util::hit_rate(device_hits, device_misses);
  }
  double host_hit_rate() const {
    return util::hit_rate(host_hits, host_misses);
  }
};

/// Asynchronous-execution counters (DESIGN.md §10). `saved` is the exact
/// picosecond difference between the serial stage sum and the critical
/// path, so QueryMetrics::total + overlap.saved reproduces the stage sums
/// bit-exactly; the busy durations measure copy-engine occupancy for
/// utilization reporting. `+=` and the bench JSON, in list order, come from
/// fields() (util/fields.h).
struct OverlapCounters {
  std::uint64_t prefetch_issued = 0;   ///< kPrefetch uploads started
  std::uint64_t prefetch_used = 0;     ///< consumed by a later GPU step
  std::uint64_t prefetch_dropped = 0;  ///< discarded (migration / query end)
  sim::Duration saved;                 ///< serial stage sum - critical path
  sim::Duration cpu_busy;              ///< host-core busy time
  sim::Duration gpu_busy;              ///< kernel-pipeline busy time
  sim::Duration h2d_busy;              ///< H2D copy-engine busy time
  sim::Duration d2h_busy;              ///< D2H copy-engine busy time

  static constexpr auto fields() {
    using O = OverlapCounters;
    return std::tuple{util::field("saved_us", &O::saved),
                      util::field("prefetch_issued", &O::prefetch_issued),
                      util::field("prefetch_used", &O::prefetch_used),
                      util::field("prefetch_dropped", &O::prefetch_dropped),
                      util::field("cpu_busy_us", &O::cpu_busy),
                      util::field("gpu_busy_us", &O::gpu_busy),
                      util::field("h2d_busy_us", &O::h2d_busy),
                      util::field("d2h_busy_us", &O::d2h_busy)};
  }

  /// Busy time of one resource, mapped from the timeline's resource enum.
  sim::Duration busy(sim::Resource r) const {
    switch (r) {
      case sim::Resource::kCpu: return cpu_busy;
      case sim::Resource::kGpuCompute: return gpu_busy;
      case sim::Resource::kCopyH2D: return h2d_busy;
      case sim::Resource::kCopyD2H: return d2h_busy;
    }
    return {};
  }

  /// Busy fraction of each resource (sim::Resource order) over `span`, such
  /// as a run's makespan; all zero for an empty span.
  std::array<double, sim::kNumResources> busy_fractions(
      sim::Duration span) const {
    std::array<double, sim::kNumResources> f{};
    if (span.ps() > 0) {
      for (std::size_t r = 0; r < sim::kNumResources; ++r) {
        f[r] = busy(static_cast<sim::Resource>(r)) / span;
      }
    }
    return f;
  }

  OverlapCounters& operator+=(const OverlapCounters& o) {
    return util::add_fields(*this, o);
  }
  bool operator==(const OverlapCounters&) const = default;
};

/// Per-query latency breakdown in simulated time, settled once when the
/// query finishes from its timeline scope (DESIGN.md §10): `total` is the
/// *critical path* — what a wall clock would measure with copies
/// overlapping kernels — while the four stage durations are the serial op
/// sums per stage, so the stage identity is
///   decode + intersect + transfer + rank == total + overlap.saved.
/// Per-step placements live in QueryResult::trace. `+=` and the bench JSON
/// come from fields() (util/fields.h), sub-structs included; a sum of
/// several queries' metrics (the broker's shard merge) sums `total` too.
struct QueryMetrics {
  sim::Duration total;
  sim::Duration decode;
  sim::Duration intersect;
  sim::Duration transfer;   ///< PCIe traffic + device allocations
  sim::Duration rank;
  std::uint64_t gpu_kernels = 0;
  std::uint64_t migrations = 0;   ///< GPU<->CPU hand-offs mid-query
  std::uint64_t result_count = 0; ///< docs matching all terms
  CacheCounters cache;            ///< per-query cache-tier counters
  OverlapCounters overlap;        ///< copy/compute-overlap accounting
  fault::FaultCounters faults;    ///< injected-fault / degradation counters
  sim::SimdCounters simd;         ///< lane accounting over CPU vector loops

  static constexpr auto fields() {
    using Q = QueryMetrics;
    return std::tuple{util::field("total_us", &Q::total),
                      util::field("decode_us", &Q::decode),
                      util::field("intersect_us", &Q::intersect),
                      util::field("transfer_us", &Q::transfer),
                      util::field("rank_us", &Q::rank),
                      util::field("gpu_kernels", &Q::gpu_kernels),
                      util::field("migrations", &Q::migrations),
                      util::field("result_count", &Q::result_count),
                      util::field("cache", &Q::cache),
                      util::field("overlap", &Q::overlap),
                      util::field("faults", &Q::faults),
                      util::field("simd", &Q::simd)};
  }

  QueryMetrics& operator+=(const QueryMetrics& o) {
    return util::add_fields(*this, o);
  }
  bool operator==(const QueryMetrics&) const = default;
};

struct QueryResult {
  std::vector<ScoredDoc> topk;
  QueryMetrics metrics;
  /// One record per executed plan step (core/executor.h appends them); the
  /// introspection/replay surface for scheduling experiments.
  std::vector<StepRecord> trace;
  bool operator==(const QueryResult&) const = default;
};

/// The run-level sum of per-query counters: a run folds each QueryResult
/// through add(). service::ServiceResult and cluster::ClusterResult extend
/// it and add their own sheds and broker failures to `faults`.
struct RunTotals {
  CacheCounters engine_cache;      ///< engine cache-tier counters
  TraceSummary trace;              ///< plan-step aggregate
  OverlapCounters engine_overlap;  ///< copy/compute-overlap counters
  fault::FaultCounters faults;     ///< per-query faults, plus the owner's

  void add(const QueryResult& r) {
    engine_cache += r.metrics.cache;
    trace.add(r.trace);
    engine_overlap += r.metrics.overlap;
    faults += r.metrics.faults;
  }
};

/// Common interface: execute one query over a fixed index.
class Engine {
 public:
  virtual ~Engine() = default;
  virtual QueryResult execute(const Query& q) = 0;
};

}  // namespace griffin::core
