// Discrete-event timeline for asynchronous execution (DESIGN.md §10), and
// the engines' only ledger: every charge in the system is one op recorded
// here, tagged with the latency stage it belongs to and placed on a stream
// and a hardware resource. The per-stage sums are the serial work; the
// timeline additionally answers "when would this query finish on hardware
// with dual copy engines and asynchronous kernel launches?":
//
//   * ops on the same stream serialize in issue order (CUDA stream rule);
//   * ops on the same resource serialize in issue order (one DMA at a time
//     per copy engine, one kernel at a time on our modeled device);
//   * an op may additionally wait on an Event recorded by another stream's
//     op (cudaStreamWaitEvent), which is how cross-stream data dependencies
//     — "this kernel reads what that copy delivered" — are expressed.
//
// Query latency is the critical path (the horizon: max end time over all
// ops); the serial stage sum is serial_total(), and the difference is
// QueryMetrics::overlap.saved. Both are integer picoseconds, so
// serial_total == critical_path + saved holds exactly, never approximately
// — the trace-invariant tests assert it per query.
#pragma once

#include <cassert>
#include <cstdint>
#include <vector>

#include "sim/time.h"

namespace griffin::sim {

/// The four hardware units ops contend for. The K20 testbed has dual copy
/// engines (one per direction), one kernel pipeline we model as serial, and
/// the host core driving the query.
enum class Resource : std::uint8_t {
  kCpu = 0,
  kGpuCompute = 1,
  kCopyH2D = 2,
  kCopyD2H = 3,
};
inline constexpr std::size_t kNumResources = 4;

inline const char* resource_name(Resource r) {
  switch (r) {
    case Resource::kCpu: return "cpu";
    case Resource::kGpuCompute: return "gpu";
    case Resource::kCopyH2D: return "h2d";
    case Resource::kCopyD2H: return "d2h";
  }
  return "?";
}

/// The four latency stages of the paper's per-query breakdown (§3.2,
/// Figure 14). Every op carries one, so the stage split of a query — or of
/// any one plan step — is a sum over its ops.
enum class Stage : std::uint8_t {
  kDecode = 0,
  kIntersect = 1,
  kTransfer = 2,  ///< PCIe traffic + device allocations
  kRank = 3,
};
inline constexpr std::size_t kNumStages = 4;

class Timeline {
 public:
  using StreamId = std::uint32_t;
  using ScopeId = std::uint32_t;

  /// A completion timestamp another op can wait on (cudaEvent analogue).
  /// The default event is "the beginning of time": waiting on it is free.
  struct Event {
    Duration at;
  };
  static Event join(Event a, Event b) { return Event{max(a.at, b.at)}; }

  /// One recorded operation. issue <= start <= end always: issue is when
  /// the op's stream and event dependencies were satisfied, start is when
  /// its resource freed up, end = start + duration.
  struct Op {
    Resource resource = Resource::kCpu;
    Stage stage = Stage::kDecode;  ///< packed into the padding before scope
    ScopeId scope = 0;
    Duration issue;
    Duration start;
    Duration end;
  };
  static_assert(sizeof(Op) == 32, "the stage tag must not grow an op");

  /// Per-scope (per-query) accounting under multi-tenancy. A scope's serial
  /// sum and per-resource busy time partition the global totals exactly:
  /// sum over scopes == global, in integer picoseconds. The per-stage sums
  /// partition the scope's serial sum the same way.
  struct ScopeStats {
    Duration serial;               ///< sum of op durations in this scope
    Duration finish;               ///< max op end time in this scope
    Duration busy[kNumResources];  ///< per-resource busy time in this scope
    Duration stage[kNumStages];    ///< per-stage op durations in this scope
    std::uint64_t ops = 0;
  };

  Timeline() { scopes_.emplace_back(); }

  /// Opens a new stream whose tail starts at `open_at` (time zero by
  /// default; a later release time for queries admitted mid-run).
  StreamId stream(Duration open_at = {}) {
    tails_.push_back(open_at);
    return static_cast<StreamId>(tails_.size() - 1);
  }

  /// Allocates a new accounting scope (one per co-admitted query). Scope 0
  /// always exists and is active by default, so single-tenant callers never
  /// see scopes at all.
  ScopeId scope() {
    scopes_.emplace_back();
    return static_cast<ScopeId>(scopes_.size() - 1);
  }

  /// Selects the scope that subsequent record() calls charge against.
  void set_scope(ScopeId s) {
    assert(s < scopes_.size());
    active_scope_ = s;
  }
  ScopeId active_scope() const { return active_scope_; }

  /// Records an op of `dur` charged to stage `st`, on stream `s` and
  /// resource `r`, optionally waiting on `wait` (an Event from any stream).
  /// Returns the op's completion event.
  Event record(StreamId s, Resource r, Stage st, Duration dur,
               Event wait = {}) {
    assert(s < tails_.size());
    auto& busy = busy_until_[static_cast<std::size_t>(r)];
    Op op;
    op.resource = r;
    op.stage = st;
    op.scope = active_scope_;
    op.issue = max(tails_[s], wait.at);
    op.start = max(op.issue, busy);
    op.end = op.start + dur;
    tails_[s] = op.end;
    busy = op.end;
    busy_[static_cast<std::size_t>(r)] += dur;
    serial_ += dur;
    horizon_ = max(horizon_, op.end);
    auto& sc = scopes_[active_scope_];
    sc.serial += dur;
    sc.finish = max(sc.finish, op.end);
    sc.busy[static_cast<std::size_t>(r)] += dur;
    sc.stage[static_cast<std::size_t>(st)] += dur;
    ++sc.ops;
    ops_.push_back(op);
    return Event{op.end};
  }

  /// When the last op finishes: the query's latency under overlap (or, on a
  /// shared timeline, the device-occupancy horizon across all tenants).
  Duration critical_path() const { return horizon_; }
  /// Sum of all op durations: the latency had nothing overlapped.
  Duration serial_total() const { return serial_; }
  /// Total busy time of one resource (copy-engine utilization etc.).
  Duration busy(Resource r) const {
    return busy_[static_cast<std::size_t>(r)];
  }
  /// Fraction of the horizon one resource spent busy, in [0, 1]. Zero on an
  /// empty timeline.
  double busy_fraction(Resource r) const {
    if (horizon_.ps() == 0) return 0.0;
    return double(busy_[static_cast<std::size_t>(r)].ps()) /
           double(horizon_.ps());
  }

  const ScopeStats& scope_stats(ScopeId s) const {
    assert(s < scopes_.size());
    return scopes_[s];
  }

  const std::vector<Op>& ops() const { return ops_; }
  std::size_t num_ops() const { return ops_.size(); }

  /// Drops all streams, scopes, and ops (start of a new query). Outstanding
  /// StreamIds, ScopeIds, and Events become invalid; scope 0 is re-created
  /// and active.
  void reset() {
    tails_.clear();
    ops_.clear();
    for (auto& b : busy_until_) b = Duration();
    for (auto& b : busy_) b = Duration();
    serial_ = Duration();
    horizon_ = Duration();
    scopes_.clear();
    scopes_.emplace_back();
    active_scope_ = 0;
  }

 private:
  std::vector<Duration> tails_;  ///< per-stream last-op end time
  Duration busy_until_[kNumResources];
  Duration busy_[kNumResources];
  Duration serial_;
  Duration horizon_;
  std::vector<Op> ops_;
  std::vector<ScopeStats> scopes_;
  ScopeId active_scope_ = 0;
};

}  // namespace griffin::sim
