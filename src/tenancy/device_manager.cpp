#include "tenancy/device_manager.h"

#include <cassert>
#include <deque>
#include <limits>

namespace griffin::tenancy {

namespace {
constexpr sim::Duration kFar = sim::Duration::from_ps(
    std::numeric_limits<std::int64_t>::max());
}  // namespace

/// One admission slot: a persistent engine stack plus the admission
/// bookkeeping of its in-flight query. The engine and its caches persist
/// across the queries the lane serves — a lane is a worker in a warm
/// serving process, not a per-query object.
struct DeviceManager::Lane {
  Lane(const index::InvertedIndex& idx, const sim::HardwareSpec& hw,
       const core::HybridOptions& opt)
      : engine(idx, hw, opt) {}

  core::HybridEngine engine;
  bool active = false;
  sim::Duration arrival;
  sim::Duration release;
  std::size_t slot = 0;   ///< index into the results vector
  sim::Duration free_at;  ///< previous query's finish time
};

DeviceManager::DeviceManager(const index::InvertedIndex& idx,
                             sim::HardwareSpec hw, TenancyOptions opt)
    : opt_(opt), composer_(opt.batch) {
  if (opt_.max_concurrency == 0) opt_.max_concurrency = 1;
  lanes_.reserve(opt_.max_concurrency);
  for (std::uint32_t i = 0; i < opt_.max_concurrency; ++i) {
    lanes_.push_back(std::make_unique<Lane>(idx, hw, opt_.engine));
  }
}

DeviceManager::~DeviceManager() = default;

std::array<double, sim::kNumResources> DeviceManager::busy_fractions() const {
  std::array<double, sim::kNumResources> f{};
  for (std::size_t r = 0; r < sim::kNumResources; ++r) {
    f[r] = tl_.busy_fraction(static_cast<sim::Resource>(r));
  }
  return f;
}

void DeviceManager::admit(Lane& lane, const TenantQuery& tq,
                          std::size_t slot) {
  lane.active = true;
  lane.arrival = tq.arrival;
  // The query cannot start before it arrived, nor before its lane's
  // previous tenant finished (the admission window is the lane count).
  lane.release = sim::max(tq.arrival, lane.free_at);
  lane.slot = slot;
  lane.engine.begin(tq.query, &tl_, lane.release);
  ++active_;
}

void DeviceManager::finish(Lane& lane, std::vector<TenantResult>& results) {
  TenantResult& out = results[lane.slot];
  out.result = lane.engine.finish();
  const sim::Duration done = lane.release + out.result.metrics.total;
  out.arrival = lane.arrival;
  out.release = lane.release;
  out.finish = done;
  lane.free_at = done;
  lane.active = false;
  finished_.record(done);
  assert(active_ > 0);
  --active_;
}

void DeviceManager::step(std::vector<TenantResult>& results) {
  const auto candidate = [&](std::size_t i) {
    const core::HybridEngine& e = lanes_[i]->engine;
    return BatchComposer::Candidate{i, e.frontier().at, e.pending()};
  };
  // The leader: the active lane whose next step issues earliest on the
  // shared timeline (tie: lowest index). Stepping min-frontier-first keeps
  // op recording in (approximately) nondecreasing simulated time, which is
  // what makes the busy clocks' record-order FCFS honest.
  std::size_t leader = lanes_.size();
  for (std::size_t i = 0; i < lanes_.size(); ++i) {
    if (!lanes_[i]->active) continue;
    const sim::Duration at = lanes_[i]->engine.frontier().at;
    if (leader == lanes_.size() || at < lanes_[leader]->engine.frontier().at) {
      leader = i;
    }
  }
  assert(leader < lanes_.size());

  std::vector<BatchComposer::Candidate> others;
  for (std::size_t i = 0; i < lanes_.size(); ++i) {
    if (i == leader || !lanes_[i]->active) continue;
    if (lanes_[i]->engine.pending() != nullptr) others.push_back(candidate(i));
  }
  const auto members = composer_.compose(candidate(leader), others);
  const std::uint32_t width = static_cast<std::uint32_t>(members.size());
  const std::uint64_t group = width > 1 ? composer_.next_group() : 0;

  // Members run in ascending lane order: a batch commits together, so the
  // intra-batch order is a determinism convention, not a timing statement.
  // A fault inside a fused launch degrades only the hit member (its
  // engine's advance() applies the recovery): co-batched members already
  // ran (or will run) their own step unperturbed, and their ops on the
  // shared timeline are untouched. An OOM that unfuses inside the step
  // only shrinks the hit member's launch accounting.
  for (const std::size_t i : members) {
    Lane& lane = *lanes_[i];
    if (!lane.engine.advance(width, group)) finish(lane, results);
  }
}

std::vector<TenantResult> DeviceManager::run(
    std::span<const TenantQuery> load, std::uint32_t max_in_system) {
  tl_.reset();
  finished_ = service::QueueDepthTracker{};
  composer_ = BatchComposer(opt_.batch);
  for (auto& lane : lanes_) {
    lane->active = false;
    lane->free_at = sim::Duration();
  }
  active_ = 0;

  std::vector<TenantResult> results(load.size());
  std::deque<std::size_t> pending;  // arrived, not yet admitted (FIFO)
  std::size_t next_arrival = 0;

  // In system at an arrival: the in-flight and queued queries, plus the
  // finished ones that complete after it.
  const auto ingest = [&](std::size_t i) {
    results[i].arrival = load[i].arrival;
    if (max_in_system > 0 &&
        active_ + pending.size() + finished_.in_system(load[i].arrival) >=
            max_in_system) {
      results[i].shed = true;
      ++results[i].result.metrics.faults.shed_queries;
      return;
    }
    pending.push_back(i);
  };

  while (next_arrival < load.size() || !pending.empty() || active_ > 0) {
    // Ingest every arrival up to the next step event, so the shed check
    // sees the system state at its arrival time.
    sim::Duration t_step = kFar;
    for (const auto& lane : lanes_) {
      if (lane->active) t_step = sim::min(t_step, lane->engine.frontier().at);
    }
    while (next_arrival < load.size() &&
           load[next_arrival].arrival <= t_step) {
      ingest(next_arrival++);
    }
    if (active_ == 0 && pending.empty()) {
      if (next_arrival >= load.size()) break;
      ingest(next_arrival++);
      continue;
    }

    // Admit FIFO into free lanes; the lane that freed earliest serves next
    // (deterministic tie-break: lowest index). Queries with no terms finish
    // at admission with an empty result, like HybridEngine::execute's.
    while (!pending.empty() && active_ < opt_.max_concurrency) {
      std::size_t best = lanes_.size();
      for (std::size_t i = 0; i < lanes_.size(); ++i) {
        if (lanes_[i]->active) continue;
        if (best == lanes_.size() ||
            lanes_[i]->free_at < lanes_[best]->free_at) {
          best = i;
        }
      }
      const std::size_t qi = pending.front();
      pending.pop_front();
      if (load[qi].query.terms.empty()) {
        TenantResult& out = results[qi];
        out.arrival = load[qi].arrival;
        out.release = sim::max(load[qi].arrival, lanes_[best]->free_at);
        out.finish = out.release;
        continue;
      }
      admit(*lanes_[best], load[qi], qi);
      // A non-empty query always plans at least one step; the guard keeps
      // the loop live if that invariant ever changes.
      if (lanes_[best]->engine.pending() == nullptr) {
        finish(*lanes_[best], results);
      }
    }

    if (active_ > 0) step(results);
  }
  return results;
}

}  // namespace griffin::tenancy
