// Seeded, deterministic fault injection (DESIGN.md §11). Every layer that
// can fail — a GPU compute step (simulated kernel/ECC error), a PCIe DMA
// (link-level transfer error with bounded retry), a shard replica (crash /
// recovery window), a whole replica running slow (the straggler model the
// hedging bench uses) — asks one injector whether a fault fires at a given
// *coordinate* (query id, step index, transfer sequence, simulated instant).
//
// Decisions are pure hashes of (run seed, site salt, coordinates), not draws
// from a shared random stream: they are order-independent and replayable, a
// retry re-asks a *different* coordinate (the attempt number) rather than
// perturbing anyone else's randomness, and a site with probability zero
// consumes nothing — which is what makes the zero-fault configuration
// bit-identical to a build without the injector at all (the golden-parity
// invariant the fault tests enforce).
#pragma once

#include <algorithm>
#include <cassert>
#include <cstdint>
#include <vector>

#include "sim/time.h"
#include "util/fields.h"
#include "util/rng.h"

namespace griffin::fault {

/// Probabilities are per-coordinate chances; anything outside [0, 1] is a
/// configuration bug (>1 silently behaved as always-fire before). The
/// injector asserts on construction and clamps, so a release build with a
/// bad config degrades to the nearest meaningful schedule instead of
/// misreporting the rate it ran at.
inline double clamp01(double p) { return std::clamp(p, 0.0, 1.0); }

/// A scripted fault point: fires for exactly one (query, scope) pair, where
/// scope is the shard id in a cluster (0 for a standalone engine). Scripted
/// triggers make single-fault tests readable: no probability tuning, the
/// fault lands exactly where the test points.
struct Trigger {
  std::uint64_t query = 0;
  std::uint32_t scope = 0;
};

/// One fault site's schedule: a per-coordinate probability, scripted
/// triggers, or both. Probability zero with no triggers disarms the site.
struct SiteConfig {
  double probability = 0.0;
  std::vector<Trigger> triggers;

  bool armed() const { return probability > 0.0 || !triggers.empty(); }
  bool triggered(std::uint64_t query, std::uint32_t scope) const {
    return std::any_of(triggers.begin(), triggers.end(),
                       [&](const Trigger& t) {
                         return t.query == query && t.scope == scope;
                       });
  }
};

/// A scripted replica outage: the replica is unreachable for t in
/// [start, end). Complements the probabilistic crash-window model for tests
/// that need an exact failure interval.
struct Outage {
  std::uint32_t shard = 0;
  std::uint32_t replica = 0;
  sim::Duration start;
  sim::Duration end;
};

struct FaultConfig {
  /// GPU device faults: per (scope, query, step-index) coordinate, checked
  /// for every plan step touching GPU compute. A hit on a kGpu step
  /// abandons it and degrades the rest of the query to the CPU; a hit on a
  /// kSplit step loses only the GPU leg (the CPU leg's partial survives and
  /// the high range is redone host-side); a hit on a kPrefetch drops the
  /// upload without poisoning the device cache (core/executor.cpp).
  SiteConfig gpu;
  /// PCIe transfer errors: per (scope, query, transfer-sequence, attempt)
  /// coordinate, checked inside pcie::TransferLedger. Each failed attempt
  /// re-pays the full transfer time; after pcie::kPcieMaxRetries failures the
  /// link-level retry is assumed to have succeeded (timing-only — data is
  /// never corrupted).
  SiteConfig pcie;
  /// Replica crashes: per (shard, replica, time-window) coordinate — a
  /// window hashing under this probability is an outage of one
  /// `crash_window_ms`, so recovery happens naturally at the next window.
  /// Scripted crashes are `outages`.
  double crash_probability = 0.0;
  /// Slow replicas (the straggler model): per (query, shard) coordinate,
  /// multiplying the primary replica's service time by `slow_factor`.
  SiteConfig slow;
  /// Device memory pressure (DESIGN.md §16): per (scope, query, step-index)
  /// coordinate, checked for every step that allocates device memory — a
  /// GPU decode/intersect, the GPU leg of a split, an H2D migration upload,
  /// a prefetch, a fused batch launch. A hit does NOT abandon the query;
  /// the executor climbs a degradation ladder instead: evict device-cache
  /// bytes -> unfuse the batch -> re-plan just the hit step to the CPU.
  /// Every rung is charged on the timeline and counted in FaultCounters;
  /// results stay bit-identical.
  SiteConfig oom;

  /// Granularity of the probabilistic replica-outage model.
  double crash_window_ms = 50.0;
  double slow_factor = 10.0;
  std::vector<Outage> outages;  ///< scripted replica outages

  std::uint64_t seed = 1;
};

/// Per-query / per-run fault and degradation counters. The engine fills the
/// first block per query; core::RunTotals::add sums them over a run, and the
/// broker and service sim add the rest. fields() is the one list of members
/// (util/fields.h): `+=` and the bench JSON are generated from it.
struct FaultCounters {
  // Engine-level (per query, summed upward).
  std::uint64_t gpu_faults = 0;   ///< GPU steps abandoned mid-query
  std::uint64_t pcie_errors = 0;  ///< failed DMA attempts (retried)
  /// Split steps whose GPU leg was lost: the CPU leg's partial survived and
  /// the high range was redone host-side (counted inside gpu_faults too).
  std::uint64_t split_leg_faults = 0;
  /// kPrefetch uploads killed by a device fault: dropped without entering
  /// the cache; the plan continues unchanged (a prefetch is optional work).
  std::uint64_t prefetch_faults = 0;
  /// Device allocations that hit injected memory pressure (OOM site), and
  /// the ladder rungs that resolved them (DESIGN.md §16).
  std::uint64_t oom_faults = 0;
  std::uint64_t oom_evictions = 0;       ///< cache entries freed by rung 1
  std::uint64_t oom_evicted_bytes = 0;   ///< device-cache bytes freed
  std::uint64_t oom_unfused = 0;         ///< batch memberships dissolved
  std::uint64_t oom_degraded_steps = 0;  ///< steps re-planned to the CPU
  sim::Duration gpu_wasted;       ///< time charged to abandoned GPU steps
  sim::Duration pcie_retry_time;  ///< transfer time re-paid by retries
  sim::Duration oom_recovery;     ///< ladder charges (evict/unfuse/stall)

  // Broker-level (per run).
  std::uint64_t replica_failures = 0;  ///< submits that found a replica down
  std::uint64_t failovers = 0;    ///< queries answered by a non-primary
  std::uint64_t slow_replicas = 0;     ///< straggler injections
  sim::Duration backoff_time;          ///< time spent in retry backoff
  std::uint64_t breaker_opens = 0;
  std::uint64_t breaker_short_circuits = 0;  ///< attempts skipped while open
  std::uint64_t deadline_misses = 0;  ///< shards dropped past the deadline
  std::uint64_t shards_dropped = 0;  ///< (query, shard) pairs left unanswered
  std::uint64_t degraded_queries = 0;  ///< gathered with coverage < 1

  // Service-level (per run).
  std::uint64_t shed_queries = 0;  ///< rejected by admission control

  static constexpr auto fields() {
    using F = FaultCounters;
    return std::tuple{
        util::field("gpu_faults", &F::gpu_faults),
        util::field("pcie_errors", &F::pcie_errors),
        util::field("split_leg_faults", &F::split_leg_faults),
        util::field("prefetch_faults", &F::prefetch_faults),
        util::field("oom_faults", &F::oom_faults),
        util::field("oom_evictions", &F::oom_evictions),
        util::field("oom_evicted_bytes", &F::oom_evicted_bytes),
        util::field("oom_unfused", &F::oom_unfused),
        util::field("oom_degraded_steps", &F::oom_degraded_steps),
        util::field("gpu_wasted_us", &F::gpu_wasted),
        util::field("pcie_retry_us", &F::pcie_retry_time),
        util::field("oom_recovery_us", &F::oom_recovery),
        util::field("replica_failures", &F::replica_failures),
        util::field("failovers", &F::failovers),
        util::field("slow_replicas", &F::slow_replicas),
        util::field("backoff_us", &F::backoff_time),
        util::field("breaker_opens", &F::breaker_opens),
        util::field("breaker_short_circuits", &F::breaker_short_circuits),
        util::field("deadline_misses", &F::deadline_misses),
        util::field("shards_dropped", &F::shards_dropped),
        util::field("degraded_queries", &F::degraded_queries),
        util::field("shed_queries", &F::shed_queries)};
  }

  FaultCounters& operator+=(const FaultCounters& o) {
    return util::add_fields(*this, o);
  }
  bool operator==(const FaultCounters&) const = default;
  /// True when any counter moved: compares every field, so it cannot drift
  /// from the struct.
  bool any() const { return *this != FaultCounters{}; }
};

/// Stateless decision oracle over a FaultConfig. Every question is a pure
/// function of (config, coordinates), so the injector can be shared by any
/// number of shards/executors and asked in any order.
class FaultInjector {
 public:
  explicit FaultInjector(FaultConfig cfg) : cfg_(std::move(cfg)) {
    validate(cfg_.gpu.probability);
    validate(cfg_.pcie.probability);
    validate(cfg_.crash_probability);
    validate(cfg_.slow.probability);
    validate(cfg_.oom.probability);
  }

  const FaultConfig& config() const { return cfg_; }

  /// Deterministic uniform in [0, 1) for one fault coordinate: a splitmix64
  /// chain absorbing the seed, a per-site salt, and three coordinates.
  static double coord01(std::uint64_t seed, std::uint64_t salt,
                        std::uint64_t a, std::uint64_t b, std::uint64_t c) {
    std::uint64_t s = seed ^ salt;
    std::uint64_t h = util::splitmix64(s);
    s = h ^ a;
    h = util::splitmix64(s);
    s = h ^ b;
    h = util::splitmix64(s);
    s = h ^ c;
    h = util::splitmix64(s);
    return static_cast<double>(h >> 11) * 0x1.0p-53;
  }

  /// Does plan step `step` of query `query` (running at shard `scope`) hit
  /// a simulated device fault? Asked only for GPU-placed compute steps.
  bool gpu_step_fault(std::uint32_t scope, std::uint64_t query,
                      std::uint64_t step) const {
    return fires(cfg_.gpu, kGpuSalt, scope, query, step);
  }

  /// Does the device allocation behind plan step `step` of query `query`
  /// hit injected memory pressure? Asked for every device-allocating step
  /// (GPU decode/intersect, split GPU leg, H2D migration, prefetch, fused
  /// batch launch). Independent of the gpu site: a different salt over the
  /// same coordinates.
  bool oom_fault(std::uint32_t scope, std::uint64_t query,
                 std::uint64_t step) const {
    return fires(cfg_.oom, kOomSalt, scope, query, step);
  }

  /// Does attempt `attempt` of DMA number `transfer` within query `query`
  /// fail? Scripted triggers fail the first attempt of every transfer of
  /// the (query, scope) pair — the retry then succeeds.
  bool pcie_error(std::uint32_t scope, std::uint64_t query,
                  std::uint64_t transfer, std::uint32_t attempt) const {
    return fires(cfg_.pcie, kPcieSalt, scope, query,
                 (transfer << 8) | attempt, attempt == 0);
  }

  /// Is (shard, replica) unreachable at simulated instant `t`? Scripted
  /// outages are checked first; otherwise each crash window of
  /// `crash_window_ms` is down independently with `crash_probability`, so
  /// a crashed replica recovers at the next window boundary.
  bool replica_down(std::uint32_t shard, std::uint32_t replica,
                    sim::Duration t) const {
    for (const Outage& o : cfg_.outages) {
      if (o.shard == shard && o.replica == replica && t >= o.start &&
          t < o.end) {
        return true;
      }
    }
    if (cfg_.crash_probability <= 0.0 || cfg_.crash_window_ms <= 0.0) {
      return false;
    }
    const auto window = static_cast<std::uint64_t>(
        t.ms() / cfg_.crash_window_ms);
    return coord01(cfg_.seed, kCrashSalt, shard, replica, window) <
           cfg_.crash_probability;
  }

  /// Does query `query` run `slow_factor` slow on shard `shard`'s primary?
  bool slow(std::uint64_t query, std::uint32_t shard) const {
    return fires(cfg_.slow, kSlowSalt, shard, query, 0);
  }

 private:
  static constexpr std::uint64_t kGpuSalt = 0x4750555f45434331ULL;
  static constexpr std::uint64_t kPcieSalt = 0x504349455f455252ULL;
  static constexpr std::uint64_t kCrashSalt = 0x435241534857494eULL;
  static constexpr std::uint64_t kSlowSalt = 0x534c4f575f524550ULL;
  static constexpr std::uint64_t kOomSalt = 0x4f4f4d5f50524553ULL;

  /// The one site rule: a disarmed site never fires; a scripted trigger
  /// for (query, scope) fires when `scripted` lets it; otherwise the
  /// coordinate (scope, query, c) fires under the site's probability.
  bool fires(const SiteConfig& site, std::uint64_t salt, std::uint32_t scope,
             std::uint64_t query, std::uint64_t c, bool scripted = true) const {
    if (!site.armed()) return false;
    if (scripted && site.triggered(query, scope)) return true;
    return site.probability > 0.0 &&
           coord01(cfg_.seed, salt, scope, query, c) < site.probability;
  }

  static void validate(double& probability) {
    assert(probability >= 0.0 && probability <= 1.0 &&
           "fault site probability outside [0,1]");
    probability = clamp01(probability);
  }

  FaultConfig cfg_;
};

}  // namespace griffin::fault
