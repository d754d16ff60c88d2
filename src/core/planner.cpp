#include "core/planner.h"

#include <algorithm>
#include <cassert>

#include "cpu/svs_step.h"
#include "gpu/engine.h"

namespace griffin::core {

namespace {
/// Don't prefetch a list longer than this ratio times the current
/// intermediate: above it the binary-search path's deferred transfer (skip
/// table + candidate blocks only) moves less data than the full payload a
/// prefetch would, hidden or not.
constexpr double kPrefetchRatioLimit = 2 * gpu::kPathRatio;

/// A prefetch queued behind a CPU-placed intersect is only worth paying for
/// when the predicted device consumer survives the intersect cutting the
/// intermediate: the prediction must also hold at probe size shorter / this
/// factor, else the upload is pure loss the moment the shrunken ratio
/// re-favors the host. Device-placed steps keep the unconditional prefetch.
constexpr double kPrefetchShrinkRobustness = 8.0;
}  // namespace

StepShape Planner::shape_for(std::uint64_t shorter, index::TermId longer_term,
                             std::optional<Placement> location) const {
  StepShape s;
  s.shorter = shorter;
  // The intermediate after next_term_ terms: the first pair's probe list
  // (next_term_ 0), the intermediate decide() places, and the one a bet
  // predicts for (next_term_ already past the step it rides on).
  s.terms = std::max<std::uint32_t>(static_cast<std::uint32_t>(next_term_), 1);
  s.longer = idx_->list(longer_term).size();
  s.longer_bytes = idx_->list(longer_term).docids.compressed_bytes();
  s.longer_density =
      static_cast<double>(idx_->df(longer_term)) /
      static_cast<double>(std::max<std::size_t>(idx_->docs().num_docs(), 1));
  // Every codec stores at least a header for a nonempty list; the
  // scheduler's transfer terms divide by this, so a zero here means a list
  // was built outside index construction.
  assert(s.longer == 0 || s.longer_bytes > 0);
  s.longer_scheme = idx_->list(longer_term).docids.scheme();
  // Residency bits from the two cache tiers: cold caches leave both false,
  // so the first queries decide exactly as the paper's rule does.
  s.longer_device_resident = gpu_->device_resident(longer_term);
  s.longer_host_decoded = svs_->host_decoded(longer_term);
  s.longer_prefetched = gpu_->prefetched(longer_term);
  s.current_location = location;
  return s;
}

void Planner::rewind(const PlanStep& step) {
  clear();
  const auto* i = std::get_if<IntersectStep>(&step);
  if (i != nullptr && !i->first_pair) {
    // Un-consume the faulted step's term; next() re-decides it at the
    // current intermediate, CPU-pinned — which queues the normal migration
    // when the intermediate is device-resident.
    --next_term_;
    return;
  }
  // A single-term decode or the first pair: no intermediate existed yet, so
  // restart at the first step; the re-emitted step runs on the host.
  assert(i != nullptr || std::holds_alternative<DecodeStep>(step));
  next_term_ = 0;
}

void Planner::degrade_to_cpu(const PlanStep& step) {
  forced_cpu_ = true;
  rewind(step);
}

void Planner::force_cpu() {
  forced_cpu_ = true;
  // A queued bet assumed a healthy device: the executor's recovery
  // discarded the in-flight uploads, and the host core is about to be busy
  // anyway.
  clear();
}

void Planner::degrade_step_to_cpu(const PlanStep& step) {
  if ([[maybe_unused]] const auto* t = std::get_if<TransferStep>(&step)) {
    // The H2D migration's device allocation failed before the upload, so
    // the intermediate never left the host. The already-decided intersect
    // queued behind it simply runs there, and its bet is dropped.
    assert(t->direction == TransferDirection::kHostToDevice &&
           std::holds_alternative<IntersectStep>(queue_[tail_ - 1]));
    IntersectStep i = std::get<IntersectStep>(queue_[tail_ - 1]);
    i.where = Placement::kCpu;
    i.alpha = 0.0;
    clear();
    push(i);
    return;
  }
  force_next_cpu_ = true;
  rewind(step);
}

bool Planner::take_cpu_pin() {
  const bool pin = forced_cpu_ || force_next_cpu_;
  force_next_cpu_ = false;
  return pin;
}

void Planner::place(IntersectStep& step) {
  step.where = take_cpu_pin() ? Placement::kCpu : sched_->decide(step.shape);
  if (step.where == Placement::kSplit) {
    step.alpha = sched_->split_alpha(step.shape);
  }
}

void Planner::queue_bet(const IntersectStep& step) {
  if (next_term_ >= terms_.size() || step.shape.shorter == 0) return;
  const index::TermId nxt = terms_[next_term_];
  if (prefetch_pays(step, nxt)) {
    push(PrefetchStep{nxt});
  } else if (host_decode_pays(step, nxt)) {
    // Only when no prefetch bets on a device consumer of the same term:
    // don't also bet the host core on the opposite outcome.
    push(HostDecodeStep{nxt});
  }
}

bool Planner::prefetch_pays(const IntersectStep& step,
                            index::TermId nxt) const {
  if (!sched_->options().prefetch) return false;
  // A degraded query never bets an upload on the device it just stopped
  // trusting: every later consumer is CPU-pinned, so the copy would be pure
  // loss (and, armed, a pointless extra fault site).
  if (forced_cpu_) return false;
  if (gpu_->device_resident(nxt) || gpu_->prefetched(nxt)) return false;
  if (step.where == Placement::kCpu) {
    // Inter-step pipelining (DESIGN.md §15): during a CPU-placed intersect
    // the copy engine sits idle, but an upload is only worth issuing when
    // the next step is actually predicted to consume the list on the
    // device (optimistic shape — the intermediate only shrinks).
    const Placement nxt_where =
        sched_->decide(shape_for(step.shape.shorter, nxt, Placement::kCpu));
    if (nxt_where == Placement::kCpu) return false;
    // The CPU intersect running under this upload usually cuts the probe
    // hard, and a smaller probe re-favors the host (the ratio grows). The
    // device prediction must survive a pessimistic shrink too, or the copy
    // is pure loss the moment it flips.
    const std::uint64_t shrunk = std::max<std::uint64_t>(
        static_cast<std::uint64_t>(static_cast<double>(step.shape.shorter) /
                                   kPrefetchShrinkRobustness),
        1);
    if (sched_->decide(shape_for(shrunk, nxt, Placement::kCpu)) ==
        Placement::kCpu) {
      return false;
    }
  }
  // Gate on the ratio as known *now* (the intermediate only shrinks, so
  // this is the optimistic bound): past the limit, the binary-search path's
  // deferred transfer beats even a hidden full-payload upload.
  const double ratio = static_cast<double>(idx_->list(nxt).size()) /
                       static_cast<double>(step.shape.shorter);
  return ratio < kPrefetchRatioLimit;
}

bool Planner::host_decode_pays(const IntersectStep& step,
                               index::TermId nxt) const {
  if (step.where != Placement::kGpu) return false;
  if (svs_->host_decoded(nxt)) return false;  // nothing to work ahead on
  // Work ahead only when the next step is predicted to run host-side (the
  // decode helps nobody otherwise) and the decode fits under the device
  // step's estimated time — a longer decode would stall the plan frontier
  // it was meant to hide under.
  const Placement nxt_where =
      sched_->decide(shape_for(step.shape.shorter, nxt, Placement::kGpu));
  if (nxt_where != Placement::kCpu) return false;
  const auto& list = idx_->list(nxt).docids;
  return sched_->estimate_host_decode(list.size(), list.scheme()) <=
         sched_->estimate_gpu(step.shape);
}

void Planner::begin(const Query& q) {
  terms_.assign(q.terms.begin(), q.terms.end());
  std::sort(terms_.begin(), terms_.end(),
            [&](index::TermId a, index::TermId b) {
              return idx_->list(a).size() < idx_->list(b).size();
            });
  next_term_ = 0;
  clear();
  forced_cpu_ = false;
  force_next_cpu_ = false;
}

void Planner::decide(std::uint64_t intermediate_count,
                     std::optional<Placement> location) {
  clear();
  if (terms_.empty()) return;  // the Rank went out: the plan is complete
  if (next_term_ == 0 && terms_.size() == 1) {
    // Ranking is host-side (paper Figure 7), so a single-term query
    // decodes on the host — a GPU decode would round-trip the whole list
    // over PCIe for nothing. Only the static GPU baseline (kAlwaysGpu,
    // i.e. the GPU-only engine) is forced to the device.
    const bool pin_cpu = take_cpu_pin();
    const Placement where =
        !pin_cpu && sched_->options().policy == SchedulerPolicy::kAlwaysGpu
            ? Placement::kGpu
            : Placement::kCpu;
    next_term_ = 1;
    push(DecodeStep{terms_[0], where});
    return;
  }
  if (next_term_ == 0) {
    // First pair: no intermediate yet, decide on the raw list lengths.
    IntersectStep step;
    step.term = terms_[1];
    step.probe_term = terms_[0];
    step.first_pair = true;
    step.shape = shape_for(idx_->list(terms_[0]).size(), terms_[1],
                           std::nullopt);
    next_term_ = 2;
    place(step);
    push(step);
    queue_bet(step);
    return;
  }
  if (next_term_ < terms_.size() && intermediate_count != 0) {
    IntersectStep step;
    step.term = terms_[next_term_];
    step.shape = shape_for(intermediate_count, terms_[next_term_], location);
    ++next_term_;
    place(step);
    // A split step consumes the intermediate wherever it lives (the
    // executor partitions in place, downloading only the CPU leg's prefix
    // when it is device-resident), so no migration transfer precedes it.
    if (location.has_value() && step.where != Placement::kSplit &&
        step.where != *location) {
      // Migrate first; the bet goes out with the migration, and the
      // already-decided intersect follows it.
      push(TransferStep{step.where == Placement::kGpu
                            ? TransferDirection::kHostToDevice
                            : TransferDirection::kDeviceToHost,
                        /*migration=*/true});
      queue_bet(step);
      push(step);
    } else {
      push(step);
      queue_bet(step);
    }
    return;
  }
  // Final drain before host-side ranking; not a migration.
  if (location == Placement::kGpu) {
    push(TransferStep{TransferDirection::kDeviceToHost, /*migration=*/false});
  }
  push(RankStep{});
  terms_.clear();
}

std::optional<PlanStep> Planner::next(std::uint64_t intermediate_count,
                                      std::optional<Placement> location) {
  if (head_ == tail_) decide(intermediate_count, location);
  if (head_ == tail_) return std::nullopt;
  return queue_[head_++];
}

}  // namespace griffin::core
