#include "core/planner.h"

#include <algorithm>
#include <cassert>

namespace griffin::core {

namespace {
/// Don't prefetch a list longer than this ratio times the current
/// intermediate: above it the binary-search path's deferred transfer (skip
/// table + candidate blocks only) moves less data than the full payload a
/// prefetch would, hidden or not. 2x the GPU path crossover.
constexpr double kPrefetchRatioLimit = 256.0;

/// A prefetch staged during a CPU-placed intersect is only worth paying for
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
  s.longer = idx_->list(longer_term).size();
  s.longer_bytes = idx_->list(longer_term).docids.compressed_bytes();
  // Every codec stores at least a header for a nonempty list; the
  // scheduler's transfer terms divide by this, so a zero here means a list
  // was built outside index construction.
  assert(s.longer == 0 || s.longer_bytes > 0);
  s.longer_scheme = idx_->list(longer_term).docids.scheme();
  // Residency bits from the two cache tiers: cold caches leave both false,
  // so the first queries decide exactly as the paper's rule does.
  s.longer_device_resident = probe_->device_resident(longer_term);
  s.longer_host_decoded = probe_->host_decoded(longer_term);
  s.longer_prefetched = probe_->prefetched(longer_term);
  s.current_location = location;
  return s;
}

void Planner::rewind(const PlanStep& step) {
  const auto* i = std::get_if<IntersectStep>(&step);
  if (i != nullptr && !i->first_pair) {
    // Un-consume the faulted step's term; next() re-decides it at the
    // current intermediate, CPU-pinned — which triggers the normal
    // migration Transfer + pending-Intersect sequence when the intermediate
    // is device-resident.
    --next_term_;
    stage_ = Stage::kIntersect;
    return;
  }
  // A single-term decode or the first pair: no intermediate existed yet, so
  // replay from the start; the re-emitted step runs on the host.
  assert(i != nullptr || std::holds_alternative<DecodeStep>(step));
  stage_ = Stage::kStart;
  next_term_ = 0;
}

void Planner::degrade_to_cpu(const PlanStep& step) {
  force_cpu();  // also drops the staged bets on the faulted step
  rewind(step);
}

void Planner::force_cpu() {
  forced_cpu_ = true;
  // Staged bets assumed a healthy device: the executor's recovery discarded
  // the in-flight uploads, and the host core is about to be busy anyway.
  staged_prefetch_.reset();
  staged_host_decode_.reset();
}

void Planner::degrade_step_to_cpu(const PlanStep& step) {
  staged_prefetch_.reset();
  staged_host_decode_.reset();
  if ([[maybe_unused]] const auto* t = std::get_if<TransferStep>(&step)) {
    // The H2D migration's device allocation failed before the upload, so
    // the intermediate never left the host. The already-decided pending
    // intersect simply runs there: flip it in place, no transfer needed.
    assert(stage_ == Stage::kPendingIntersect &&
           t->direction == TransferDirection::kHostToDevice);
    pending_.where = Placement::kCpu;
    pending_.alpha = 0.0;
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
  maybe_stage_prefetch(step);
  maybe_stage_host_decode(step);
}

void Planner::maybe_stage_prefetch(const IntersectStep& step) {
  const SchedulerOptions& o = sched_->options();
  if (!o.prefetch) return;
  // A degraded query never bets an upload on the device it just stopped
  // trusting: every later consumer is CPU-pinned, so the copy would be pure
  // loss (and, armed, a pointless extra fault site).
  if (forced_cpu_) return;
  if (next_term_ >= terms_.size()) return;  // no later list to move
  const index::TermId nxt = terms_[next_term_];
  if (probe_->device_resident(nxt) || probe_->prefetched(nxt)) return;
  if (step.shape.shorter == 0) return;
  if (step.where == Placement::kCpu) {
    // Inter-step pipelining (DESIGN.md §15): during a CPU-placed intersect
    // the copy engine sits idle, but an upload is only worth issuing when
    // the next step is actually predicted to consume the list on the
    // device (optimistic shape — the intermediate only shrinks).
    if (!o.pipeline_idle) return;
    const Placement nxt_where =
        sched_->decide(shape_for(step.shape.shorter, nxt, Placement::kCpu));
    if (nxt_where == Placement::kCpu) return;
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
      return;
    }
  }
  // Gate on the ratio as known *now* (the intermediate only shrinks, so
  // this is the optimistic bound): past the limit, the binary-search path's
  // deferred transfer beats even a hidden full-payload upload.
  const double ratio = static_cast<double>(idx_->list(nxt).size()) /
                       static_cast<double>(step.shape.shorter);
  if (ratio >= kPrefetchRatioLimit) return;
  staged_prefetch_ = nxt;
}

void Planner::maybe_stage_host_decode(const IntersectStep& step) {
  const SchedulerOptions& o = sched_->options();
  if (!o.pipeline_idle || step.where != Placement::kGpu) return;
  if (next_term_ >= terms_.size()) return;  // no later list to decode
  const index::TermId nxt = terms_[next_term_];
  if (probe_->host_decoded(nxt)) return;  // nothing to work ahead on
  if (step.shape.shorter == 0) return;
  // A prefetch of the same term bets on a device consumer; don't also bet
  // the host core on the opposite outcome.
  if (staged_prefetch_.has_value() && *staged_prefetch_ == nxt) return;
  // Work ahead only when the next step is predicted to run host-side (the
  // decode helps nobody otherwise) and the decode fits under the device
  // step's estimated time — a longer decode would stall the plan frontier
  // it was meant to hide under.
  const Placement nxt_where =
      sched_->decide(shape_for(step.shape.shorter, nxt, Placement::kGpu));
  if (nxt_where != Placement::kCpu) return;
  const auto& list = idx_->list(nxt).docids;
  if (sched_->estimate_host_decode(list.size(), list.scheme()) >
      sched_->estimate_gpu(step.shape)) {
    return;
  }
  staged_host_decode_ = nxt;
}

void Planner::begin(const Query& q) {
  terms_.assign(q.terms.begin(), q.terms.end());
  std::sort(terms_.begin(), terms_.end(),
            [&](index::TermId a, index::TermId b) {
              return idx_->list(a).size() < idx_->list(b).size();
            });
  next_term_ = 0;
  stage_ = terms_.empty() ? Stage::kDone : Stage::kStart;
  staged_prefetch_.reset();
  staged_host_decode_.reset();
  forced_cpu_ = false;
  force_next_cpu_ = false;
}

std::optional<PlanStep> Planner::next(std::uint64_t intermediate_count,
                                      std::optional<Placement> location) {
  // A prefetch staged alongside the previous intersect goes out first,
  // whatever the plan does next: the host issued the async copy when it
  // issued that intersect, and an async copy cannot be recalled.
  if (staged_prefetch_.has_value()) {
    const index::TermId t = *staged_prefetch_;
    staged_prefetch_.reset();
    return PrefetchStep{t};
  }
  // Likewise for a staged host work-ahead: the host core started decoding
  // when the device step was issued.
  if (staged_host_decode_.has_value()) {
    const index::TermId t = *staged_host_decode_;
    staged_host_decode_.reset();
    return HostDecodeStep{t};
  }

  if (stage_ == Stage::kStart) {
    if (terms_.size() == 1) {
      // Ranking is host-side (paper Figure 7), so a single-term query
      // decodes on the host — a GPU decode would round-trip the whole list
      // over PCIe for nothing. Only the static GPU baseline (kAlwaysGpu,
      // i.e. the GPU-only engine) is forced to the device.
      const bool pin_cpu = take_cpu_pin();
      const Placement where =
          !pin_cpu && sched_->options().policy == SchedulerPolicy::kAlwaysGpu
              ? Placement::kGpu
              : Placement::kCpu;
      stage_ = Stage::kDrain;
      return DecodeStep{terms_[0], where};
    }
    // First pair: no intermediate yet, decide on the raw list lengths.
    IntersectStep step;
    step.term = terms_[1];
    step.probe_term = terms_[0];
    step.first_pair = true;
    step.shape = shape_for(idx_->list(terms_[0]).size(), terms_[1],
                           std::nullopt);
    next_term_ = 2;
    stage_ = Stage::kIntersect;
    place(step);
    return step;
  }

  if (stage_ == Stage::kPendingIntersect) {
    stage_ = Stage::kIntersect;
    return pending_;
  }

  if (stage_ == Stage::kIntersect) {
    if (next_term_ >= terms_.size() || intermediate_count == 0) {
      stage_ = Stage::kDrain;
    } else {
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
        // Migrate first; the already-decided intersect stays pending (the
        // decision is never re-evaluated at the new location).
        pending_ = step;
        stage_ = Stage::kPendingIntersect;
        return TransferStep{step.where == Placement::kGpu
                                ? TransferDirection::kHostToDevice
                                : TransferDirection::kDeviceToHost,
                            /*migration=*/true};
      }
      return step;
    }
  }

  if (stage_ == Stage::kDrain) {
    stage_ = Stage::kRank;
    if (location == Placement::kGpu) {
      // Final drain before host-side ranking; not a migration.
      return TransferStep{TransferDirection::kDeviceToHost,
                          /*migration=*/false};
    }
  }

  if (stage_ == Stage::kRank) {
    stage_ = Stage::kDone;
    return RankStep{};
  }

  return std::nullopt;
}

}  // namespace griffin::core
