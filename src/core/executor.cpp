#include "core/executor.h"

#include <algorithm>
#include <cmath>

namespace griffin::core {

namespace {
/// The GPU's probe count for a split at share `alpha` — the same rounding
/// the scheduler's estimate_split uses, so the executed partition matches
/// the priced one.
std::uint64_t split_share(double alpha, std::uint64_t n) {
  const auto g = static_cast<std::uint64_t>(
      std::llround(std::clamp(alpha, 0.0, 1.0) * static_cast<double>(n)));
  return std::min(g, n);
}

/// The duration field of `stage` in a StepRecord or QueryMetrics.
template <typename Breakdown>
sim::Duration& stage_field(Breakdown& b, sim::Stage stage) {
  switch (stage) {
    case sim::Stage::kDecode: return b.decode;
    case sim::Stage::kIntersect: return b.intersect;
    case sim::Stage::kTransfer: return b.transfer;
    case sim::Stage::kRank: break;
  }
  return b.rank;
}
}  // namespace

void StepExecutor::begin_query(const Query& q, sim::Timeline* shared,
                               sim::Duration release) {
  host_current_.clear();
  loc_.reset();
  if (shared == nullptr) {
    // Private timeline: the query owns the device, wipe and restart.
    tl_ = &own_tl_;
    release_ = sim::Duration();
    tl_->reset();
    scope_ = 0;
  } else {
    // Shared timeline: the device keeps running; this query gets its own
    // accounting scope and streams opened at its admission time.
    tl_ = shared;
    release_ = release;
    scope_ = tl_->scope();
  }
  tl_->set_scope(scope_);
  cpu_stream_ = tl_->stream(release_);
  frontier_ = sim::Timeline::Event{release_};
  query_id_ = q.id;
  step_index_ = 0;
  batch_group_ = 0;
  leg_faulted_ = false;
  gpu_->begin_query(*tl_, q.id, release_);
}

void StepExecutor::finish_query(QueryMetrics& m) {
  gpu_->finish_query(m);  // drops prefetches, buffers
  // The query's scope holds every op it recorded: its per-stage sums are
  // the stage totals. The latency is the query's span on the (possibly
  // shared) timeline: from its admission to its last op's completion. On a
  // private timeline release is zero and this is exactly the critical
  // path. Under contention the span can exceed the serial sum — queueing
  // behind other tenants' ops — so overlap.saved may be negative there.
  const auto& sc = tl_->scope_stats(scope_);
  for (std::size_t s = 0; s < sim::kNumStages; ++s) {
    stage_field(m, static_cast<sim::Stage>(s)) = sc.stage[s];
  }
  const sim::Duration span = sim::max(sc.finish, release_) - release_;
  m.overlap.saved = sc.serial - span;
  m.total = span;
  m.overlap.cpu_busy = sc.busy[static_cast<std::size_t>(sim::Resource::kCpu)];
  m.overlap.gpu_busy =
      sc.busy[static_cast<std::size_t>(sim::Resource::kGpuCompute)];
  m.overlap.h2d_busy =
      sc.busy[static_cast<std::size_t>(sim::Resource::kCopyH2D)];
  m.overlap.d2h_busy =
      sc.busy[static_cast<std::size_t>(sim::Resource::kCopyD2H)];
}

void StepExecutor::set_batch(std::uint32_t size, std::uint64_t group) {
  batch_group_ = size > 1 ? group : 0;
  gpu_->set_batch(size);
}

std::uint64_t StepExecutor::intermediate_count() const {
  if (loc_ == Placement::kGpu) return gpu_->intermediate_count();
  return host_current_.size();
}

sim::Timeline::Event StepExecutor::cpu_op(sim::Duration d, sim::Stage stage,
                                          sim::Timeline::Event wait) {
  return tl_->record(cpu_stream_, sim::Resource::kCpu, stage, d, wait);
}

StepExecutor::StepTraits StepExecutor::traits(const PlanStep& step) {
  StepTraits t;
  StepRecord& r = t.rec;
  if (const auto* d = std::get_if<DecodeStep>(&step)) {
    const bool gpu = d->where == Placement::kGpu;
    r.kind = StepKind::kDecode;
    r.placement = d->where;
    r.term = d->term;
    r.resource = gpu ? sim::Resource::kGpuCompute : sim::Resource::kCpu;
    t.stage = sim::Stage::kDecode;
    t.gpu_chain = t.gpu_compute = t.dev_alloc = gpu;
    t.fault_terms[t.num_fault_terms++] = d->term;
  } else if (const auto* i = std::get_if<IntersectStep>(&step)) {
    r.kind = StepKind::kIntersect;
    r.placement = i->where;
    r.term = i->term;
    r.shape = i->shape;
    r.alpha = i->alpha;
    r.resource = i->where == Placement::kCpu ? sim::Resource::kCpu
                                             : sim::Resource::kGpuCompute;
    t.stage = sim::Stage::kIntersect;
    t.gpu_chain = i->where != Placement::kCpu;
    t.gpu_compute = i->where == Placement::kGpu;
    // A split's GPU leg allocates too; its *compute* fault is drawn inside
    // run_split, where losing the leg degrades only the device range.
    t.dev_alloc = i->where != Placement::kCpu;
    t.fault_terms[t.num_fault_terms++] = i->term;
    if (i->first_pair) t.fault_terms[t.num_fault_terms++] = i->probe_term;
  } else if (const auto* x = std::get_if<TransferStep>(&step)) {
    const bool h2d = x->direction == TransferDirection::kHostToDevice;
    r.kind = StepKind::kTransfer;
    r.placement = h2d ? Placement::kGpu : Placement::kCpu;
    r.migration = x->migration;
    r.resource = h2d ? sim::Resource::kCopyH2D : sim::Resource::kCopyD2H;
    t.stage = sim::Stage::kTransfer;
    t.gpu_chain = true;
    // Only the H2D direction allocates on the device; a D2H drain lands in
    // pinned host memory. A transfer names no terms to retire: the
    // intermediate is not a cached list.
    t.dev_alloc = h2d;
  } else if (const auto* p = std::get_if<PrefetchStep>(&step)) {
    r.kind = StepKind::kPrefetch;
    r.placement = Placement::kGpu;
    r.term = p->term;
    r.resource = sim::Resource::kCopyH2D;
    t.stage = sim::Stage::kTransfer;
    t.gpu_chain = t.dev_alloc = true;
  } else if (const auto* h = std::get_if<HostDecodeStep>(&step)) {
    r.kind = StepKind::kHostDecode;  // host work: kCpu placement/resource
    r.term = h->term;
    t.stage = sim::Stage::kDecode;
  } else {
    r.kind = StepKind::kRank;
    t.stage = sim::Stage::kRank;
  }
  return t;
}

StepExecutor::FaultAction StepExecutor::draw_fault(const StepTraits& t,
                                                   QueryMetrics& m) const {
  if (injector_ == nullptr) return FaultAction::kNone;
  // An ECC-style device fault abandons a kGpu compute step — and with it
  // the query's device residency — but only loses a prefetch's optional
  // upload.
  const bool prefetch = t.rec.kind == StepKind::kPrefetch;
  if ((t.gpu_compute || prefetch) &&
      injector_->gpu_step_fault(fault_scope_, query_id_, step_index_)) {
    return prefetch ? FaultAction::kDropPrefetch : FaultAction::kAbandon;
  }
  // Device memory pressure at an allocation site: walk the degradation
  // ladder (DESIGN.md §16). Rung 1 evicts cold cache bytes, rung 2 unfuses
  // the cross-query batch — both recover *on the device* and the step
  // proceeds; a faulted prefetch is simply dropped; rung 3 abandons the
  // step and re-plans it (and only it) host-side.
  if (!t.dev_alloc ||
      !injector_->oom_fault(fault_scope_, query_id_, step_index_)) {
    return FaultAction::kNone;
  }
  ++m.faults.oom_faults;
  if (gpu_->list_cache().size() > 0) return FaultAction::kEvict;
  if (batch_group_ != 0) return FaultAction::kUnfuse;
  return prefetch ? FaultAction::kDropPrefetch : FaultAction::kReplan;
}

void StepExecutor::abandon_gpu_step(const StepTraits& t, bool oom,
                                    StepRecord& rec, QueryMetrics& m) {
  const auto& cfg = injector_->config();
  const sim::Duration waste = sim::Duration::from_us(
      oom ? cfg.oom_replan_cost_us : cfg.gpu_fault_cost_us);
  gpu_->set_chain(frontier_);
  gpu_->charge_fault(waste, t.stage);  // one compute op of wasted time
  // The simulated ECC error retires the step's lists' cached pages.
  gpu_->fault_reset(std::span<const index::TermId>(t.fault_terms.data(),
                                                   t.num_fault_terms),
                    m);
  frontier_ = gpu_->chain();
  if (oom) {
    ++m.faults.oom_degraded_steps;
    m.faults.oom_recovery += waste;
  } else {
    ++m.faults.gpu_faults;
    m.faults.gpu_wasted += waste;
  }
  rec.faulted = true;
  rec.resource = sim::Resource::kGpuCompute;  // where the waste ran
  rec.migration = false;  // an abandoned upload flipped nothing
}

sim::Timeline::Event StepExecutor::dispatch(const PlanStep& step,
                                            const Query& q, QueryResult& res) {
  QueryMetrics& m = res.metrics;
  if (const auto* d = std::get_if<DecodeStep>(&step)) {
    if (d->where == Placement::kGpu) {
      gpu_->load_single(d->term, m);
      loc_ = Placement::kGpu;
      return gpu_->chain();
    }
    loc_ = Placement::kCpu;
    return cpu_op(svs_->decode_single(d->term, host_current_, m),
                  sim::Stage::kDecode, frontier_);
  }
  if (const auto* i = std::get_if<IntersectStep>(&step)) {
    if (i->where == Placement::kSplit) return run_split(*i, m);
    if (i->where == Placement::kGpu) {
      if (i->first_pair) {
        gpu_->intersect_first(i->probe_term, i->term, m);
      } else {
        gpu_->intersect_next(i->term, m);
      }
      loc_ = Placement::kGpu;
      return gpu_->chain();
    }
    const sim::Duration d =
        i->first_pair ? svs_->first_pair(i->probe_term, i->term,
                                         host_current_, m)
                      : svs_->next_step(host_current_, i->term, m);
    loc_ = Placement::kCpu;
    return cpu_op(d, sim::Stage::kIntersect, frontier_);
  }
  if (const auto* t = std::get_if<TransferStep>(&step)) {
    if (t->direction == TransferDirection::kHostToDevice) {
      gpu_->upload_intermediate(host_current_, m);
      loc_ = Placement::kGpu;
    } else {
      host_current_ = gpu_->download_intermediate(m);
      loc_ = Placement::kCpu;
    }
    if (t->migration) ++m.migrations;
    return gpu_->chain();
  }
  if (const auto* p = std::get_if<PrefetchStep>(&step)) {
    // Intermediate, location and chain unchanged: later steps don't wait
    // on a prefetch unless they consume it.
    gpu_->prefetch(p->term, m);
    return frontier_;
  }
  if (const auto* h = std::get_if<HostDecodeStep>(&step)) {
    // Inter-step pipelining (DESIGN.md §15): the host core decodes a later
    // term while the device runs the current step. Recorded on the CPU
    // stream — later CPU ops serialize behind it, which is what makes the
    // work-ahead honest — but waiting on nothing and never advancing the
    // plan frontier: no step *depends* on it, a consumer simply finds the
    // list in the decoded cache.
    cpu_op(svs_->decode_ahead(h->term, m), sim::Stage::kDecode, {});
    return frontier_;
  }
  // RankStep: BM25 + partial_sort on the host. Scoring uses the query's
  // original term order, not the SvS length order: float accumulation order
  // is then a property of the query alone, so a document-partitioned shard
  // (whose local list lengths differ) produces bit-identical scores to the
  // unpartitioned index (cluster/broker.h).
  m.result_count = host_current_.size();
  sim::CpuCostAccumulator rank(rank_spec_);
  scorer_->score(q.terms, host_current_, res.topk, rank);
  cpu::top_k(res.topk, q.k, rank);
  m.simd += rank.simd();
  return cpu_op(rank.time(), sim::Stage::kRank, frontier_);
}

sim::Timeline::Event StepExecutor::run_cpu_leg(
    std::span<const codec::DocId> probes, index::TermId t,
    std::vector<codec::DocId>& out, sim::Timeline::Event ready,
    QueryMetrics& m) {
  if (probes.empty()) {
    out.clear();
    return ready;
  }
  return cpu_op(svs_->partial_step(probes, t, out, m),
                sim::Stage::kIntersect, ready);
}

sim::Timeline::Event StepExecutor::run_split(const IntersectStep& i,
                                             QueryMetrics& m) {
  const sim::Timeline::Event entry = frontier_;

  std::vector<codec::DocId> cpu_out;
  std::vector<codec::DocId> gpu_partial;
  sim::Timeline::Event cpu_done = entry;
  sim::Timeline::Event gpu_done = entry;

  if (loc_ == Placement::kGpu) {
    // Device-resident probes: only the CPU leg's low prefix crosses back
    // over PCIe; the kernels search the high suffix in place via the
    // probe_offset. The prefix D2H and the GPU leg run on different
    // resources, so the kernels are chained on the step entry, not on the
    // download — only the CPU leg waits the copy out.
    const std::uint64_t n = gpu_->intermediate_count();
    const std::uint64_t n_gpu = split_share(i.alpha, n);
    const std::uint64_t n_cpu = n - n_gpu;
    gpu_->set_chain(entry);
    if (injector_ != nullptr && n_gpu > 0 &&
        injector_->gpu_step_fault(fault_scope_, query_id_, step_index_)) {
      // The GPU leg is lost before its kernels consumed anything
      // (DESIGN.md §16): charge the wasted device time, retire the faulted
      // term's cached pages, drain the WHOLE intermediate, and run both
      // docID ranges through the CPU stepper. partial_step over [0, n_cpu)
      // then [n_cpu, n) concatenates to exactly the unsplit intersection,
      // so the step still completes bit-identically — only the remainder
      // of the plan gets pinned host-side (run() returns kOkForceCpu).
      const sim::Duration waste =
          sim::Duration::from_us(injector_->config().gpu_fault_cost_us);
      gpu_->charge_fault(waste, sim::Stage::kIntersect);
      const index::TermId ft[1] = {i.term};
      gpu_->fault_reset(std::span<const index::TermId>(ft, 1), m);
      const sim::Timeline::Event fault_evt = gpu_->chain();
      std::vector<codec::DocId> probes_storage =
          gpu_->download_intermediate(m);
      const std::span<const codec::DocId> probes(probes_storage);
      cpu_done = run_cpu_leg(probes.first(n_cpu), i.term, cpu_out,
                             gpu_->chain(), m);
      gpu_done = run_cpu_leg(probes.subspan(n_cpu), i.term, gpu_partial,
                             sim::Timeline::join(cpu_done, fault_evt), m);
      ++m.faults.gpu_faults;
      ++m.faults.split_leg_faults;
      m.faults.gpu_wasted += waste;
      leg_faulted_ = true;
    } else {
      sim::Timeline::Event cpu_ready = entry;
      std::vector<codec::DocId> prefix;
      if (n_cpu > 0) {
        prefix = gpu_->download_intermediate_prefix(n_cpu, m);
        cpu_ready = gpu_->chain();
        gpu_->set_chain(entry);
      }
      if (n_gpu > 0) {
        gpu_partial = gpu_->split_intersect_device(i.term, n_cpu, m);
        gpu_done = gpu_->chain();
      } else {
        // Degenerate alpha=0: the prefix download drained everything.
        gpu_->drop_intermediate();
      }
      cpu_done = run_cpu_leg(prefix, i.term, cpu_out, cpu_ready, m);
    }
  } else {
    // Host-resident probes — or the first pair, whose probe list the host
    // decodes first; the device leg then waits on that op like any real
    // data dependency.
    sim::Timeline::Event probe_ready = entry;
    std::vector<codec::DocId> probes_storage;
    if (i.first_pair) {
      probe_ready =
          cpu_op(svs_->materialize_probes(i.probe_term, probes_storage, m),
                 sim::Stage::kIntersect, entry);
    } else {
      probes_storage.swap(host_current_);
    }
    const std::span<const codec::DocId> probes(probes_storage);
    const std::uint64_t n_gpu = split_share(i.alpha, probes.size());
    const std::uint64_t n_cpu = probes.size() - n_gpu;
    if (injector_ != nullptr && n_gpu > 0 &&
        injector_->gpu_step_fault(fault_scope_, query_id_, step_index_)) {
      // GPU leg lost over host-resident probes: the probe range never left
      // the host, so recovery is just redoing the high range through the
      // CPU stepper after the fault is detected. The redo waits out both
      // the CPU leg (same core) and the fault event (the host learns of
      // the abort when the device signals it).
      gpu_->set_chain(probe_ready);
      const sim::Duration waste =
          sim::Duration::from_us(injector_->config().gpu_fault_cost_us);
      gpu_->charge_fault(waste, sim::Stage::kIntersect);
      const index::TermId ft[1] = {i.term};
      gpu_->fault_reset(std::span<const index::TermId>(ft, 1), m);
      const sim::Timeline::Event fault_evt = gpu_->chain();
      cpu_done = run_cpu_leg(probes.first(n_cpu), i.term, cpu_out,
                             probe_ready, m);
      gpu_done = run_cpu_leg(probes.subspan(n_cpu), i.term, gpu_partial,
                             sim::Timeline::join(cpu_done, fault_evt), m);
      ++m.faults.gpu_faults;
      ++m.faults.split_leg_faults;
      m.faults.gpu_wasted += waste;
      leg_faulted_ = true;
    } else {
      if (n_gpu > 0) {
        gpu_->set_chain(probe_ready);
        gpu_partial =
            gpu_->split_intersect_host(i.term, probes.subspan(n_cpu), m);
        gpu_done = gpu_->chain();
      } else {
        gpu_done = probe_ready;
      }
      cpu_done = run_cpu_leg(probes.first(n_cpu), i.term, cpu_out,
                             probe_ready, m);
    }
  }

  // The ranges are docID-disjoint and each partial is sorted, so the
  // concatenation is exactly the unsplit intersection.
  cpu_out.insert(cpu_out.end(), gpu_partial.begin(), gpu_partial.end());
  host_current_ = std::move(cpu_out);
  loc_ = Placement::kCpu;
  return sim::Timeline::join(cpu_done, gpu_done);
}

void StepExecutor::settle(StepRecord& rec, std::size_t ops0) const {
  const auto& ops = tl_->ops();
  if (ops0 == ops.size()) {
    rec.issue = rec.start = rec.end = frontier_.at;
    return;
  }
  rec.issue = ops[ops0].issue;
  rec.start = ops[ops0].start;
  rec.end = ops[ops0].end;
  for (std::size_t i = ops0; i < ops.size(); ++i) {
    const sim::Timeline::Op& op = ops[i];
    const sim::Duration d = op.end - op.start;
    stage_field(rec, op.stage) += d;
    rec.duration += d;
    rec.issue = sim::min(rec.issue, op.issue);
    rec.start = sim::min(rec.start, op.start);
    rec.end = sim::max(rec.end, op.end);
  }
}

StepStatus StepExecutor::run(const PlanStep& step, const Query& q,
                             QueryResult& res) {
  // Co-tenant executors share one timeline; re-select this query's scope
  // so the step's ops are charged to it.
  tl_->set_scope(scope_);
  QueryMetrics& m = res.metrics;
  const StepTraits t = traits(step);
  StepRecord rec = t.rec;
  rec.query = query_id_;
  const std::size_t ops0 = tl_->num_ops();
  const std::uint64_t kernels0 = m.gpu_kernels;
  const sim::SimdCounters simd0 = m.simd;

  // Pre-dispatch fault checks (DESIGN.md §11/§16): every fault fires before
  // the step's kernels or DMAs consume anything, so the device state from
  // the last committed step stays intact and recovery can drain it through
  // the normal migration path.
  StepStatus status = StepStatus::kOk;
  const FaultAction fault = draw_fault(t, m);
  if (fault == FaultAction::kAbandon || fault == FaultAction::kReplan) {
    const bool oom = fault == FaultAction::kReplan;
    abandon_gpu_step(t, oom, rec, m);
    status = oom ? StepStatus::kFaultStep : StepStatus::kFaultQuery;
  } else if (fault == FaultAction::kDropPrefetch) {
    // Zero-duration faulted record: the fault fired before the DMA was
    // enqueued, so nothing was charged and the device cache never saw the
    // list. The plan continues unchanged — a prefetch is optional work
    // whose consumer simply misses the cache later.
    ++m.faults.prefetch_faults;
    rec.faulted = true;
  } else {
    if (t.gpu_chain) gpu_->set_chain(frontier_);
    // The recovering OOM rungs run inside the step (chained on the
    // frontier), so their ops land in this step's record and the retried
    // allocation waits the recovery out on the timeline.
    if (fault == FaultAction::kEvict) {
      gpu_->oom_evict(m);
      frontier_ = gpu_->chain();
    } else if (fault == FaultAction::kUnfuse) {
      // Shrinking the fused launch back to a single query frees the K-way
      // working set; the relaunch overhead is the recovery cost. Only the
      // faulted query unfuses — co-batched lanes keep their tag.
      const sim::Duration d =
          sim::Duration::from_us(injector_->config().oom_unfuse_cost_us);
      gpu_->charge_fault(d, t.stage);
      m.faults.oom_recovery += d;
      ++m.faults.oom_unfused;
      set_batch(1, 0);
      frontier_ = gpu_->chain();
    }
    rec.batch_group = batch_group_;
    frontier_ = dispatch(step, q, res);
    if (leg_faulted_) {
      // run_split lost its GPU leg but completed the step host-side: the
      // caller pins the remainder of the plan to the CPU (the device is no
      // longer trusted for this query).
      rec.leg_faulted = true;
      leg_faulted_ = false;
      status = StepStatus::kOkForceCpu;
    }
  }

  rec.output_count = intermediate_count();
  rec.gpu_kernels = m.gpu_kernels - kernels0;
  rec.simd = m.simd - simd0;
  settle(rec, ops0);
  res.trace.push_back(rec);
  ++step_index_;
  return status;
}

}  // namespace griffin::core
