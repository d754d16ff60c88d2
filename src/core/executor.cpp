#include "core/executor.h"

#include "core/scheduler.h"

namespace griffin::core {

namespace {
/// OOM ladder rung 2 (DESIGN.md §16): re-launching a fused batch member's
/// kernels alone after the shared launch's allocation failed.
constexpr double kOomUnfuseCostUs = 10.0;

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
  if (shared == nullptr) {
    // Private timeline: the query owns the device, so it starts on a wiped
    // timeline at time zero.
    own_tl_.reset();
    shared = &own_tl_;
    release = sim::Duration();
  }
  host_current_.clear();
  loc_.reset();
  // The device keeps running: this query gets its own accounting scope and
  // streams opened at its admission time.
  tl_ = shared;
  release_ = release;
  scope_ = tl_->scope();
  tl_->set_scope(scope_);
  cpu_stream_ = tl_->stream(release_);
  frontier_ = sim::Timeline::Event{release_};
  query_id_ = q.id;
  step_index_ = 0;
  batch_group_ = 0;
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
    t.gpu_compute = t.dev_alloc = gpu;
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
    t.dev_alloc = true;
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
  const sim::Duration waste =
      sim::Duration::from_us(oom ? kOomReplanCostUs : kGpuFaultCostUs);
  gpu_->charge_fault(waste, t.stage, frontier_);  // one compute op
  // The simulated ECC error retires the step's lists' cached pages.
  gpu_->fault_reset(std::span<const index::TermId>(t.fault_terms.data(),
                                                   t.num_fault_terms),
                    m);
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
  sim::Timeline::Event at = frontier_;
  if (const auto* d = std::get_if<DecodeStep>(&step)) {
    if (d->where == Placement::kGpu) {
      gpu_->load_single(d->term, at, m);
      loc_ = Placement::kGpu;
      return at;
    }
    loc_ = Placement::kCpu;
    return cpu_op(svs_->decode_single(d->term, host_current_, m),
                  sim::Stage::kDecode, at);
  }
  if (const auto* i = std::get_if<IntersectStep>(&step)) {
    if (i->where == Placement::kSplit) return run_split(*i, m);
    if (i->where == Placement::kGpu) {
      // A first pair decodes its shorter list as the intermediate: the same
      // ratio, kernels and ledger order as intersecting with one.
      if (i->first_pair) gpu_->load_single(i->probe_term, at, m);
      gpu_->intersect_next(i->term, at, m);
      loc_ = Placement::kGpu;
      return at;
    }
    const sim::Duration d =
        i->first_pair ? svs_->first_pair(i->probe_term, i->term,
                                         host_current_, m)
                      : svs_->next_step(host_current_, i->term, m);
    loc_ = Placement::kCpu;
    return cpu_op(d, sim::Stage::kIntersect, at);
  }
  if (const auto* t = std::get_if<TransferStep>(&step)) {
    if (t->direction == TransferDirection::kHostToDevice) {
      gpu_->upload_intermediate(host_current_, at, m);
      loc_ = Placement::kGpu;
    } else {
      // Leaving the device: any in-flight prefetch has lost its consumer
      // (migration or final drain), so it is dropped here.
      gpu_->drop_prefetches(m);
      host_current_ =
          gpu_->download_intermediate(gpu_->intermediate_count(), at, m);
      loc_ = Placement::kCpu;
    }
    if (t->migration) ++m.migrations;
    return at;
  }
  if (const auto* p = std::get_if<PrefetchStep>(&step)) {
    return gpu_->prefetch(p->term, m);
  }
  if (const auto* h = std::get_if<HostDecodeStep>(&step)) {
    // Inter-step pipelining (DESIGN.md §15): the host core decodes a later
    // term while the device runs the current step. Recorded on the CPU
    // stream — later CPU ops serialize behind it, which is what makes the
    // work-ahead honest — a consumer simply finds the list in the decoded
    // cache.
    return cpu_op(svs_->decode_ahead(h->term, m), sim::Stage::kDecode, {});
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
  return cpu_op(rank.time(), sim::Stage::kRank, at);
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

std::optional<sim::Timeline::Event> StepExecutor::lose_split_leg(
    index::TermId t, std::uint64_t n_gpu, sim::Timeline::Event at,
    QueryMetrics& m) {
  if (n_gpu == 0 ||
      !injector_->gpu_step_fault(fault_scope_, query_id_, step_index_)) {
    return std::nullopt;
  }
  const sim::Duration waste = sim::Duration::from_us(kGpuFaultCostUs);
  gpu_->charge_fault(waste, sim::Stage::kIntersect, at);
  const index::TermId ft[1] = {t};
  gpu_->fault_reset(std::span<const index::TermId>(ft, 1), m);
  ++m.faults.gpu_faults;
  ++m.faults.split_leg_faults;
  m.faults.gpu_wasted += waste;
  return at;
}

sim::Timeline::Event StepExecutor::run_split(const IntersectStep& i,
                                             QueryMetrics& m) {
  // The probes on the host: the CPU leg's range [0, n_cpu), and the GPU
  // leg's range [n_cpu, n) too when they started host-side or that leg is
  // lost and redone here.
  std::vector<codec::DocId> probes_storage;
  std::vector<codec::DocId> cpu_out;
  std::vector<codec::DocId> gpu_partial;
  std::uint64_t n_cpu = 0;
  sim::Timeline::Event cpu_ready = frontier_;
  sim::Timeline::Event gpu_done = frontier_;
  std::optional<sim::Timeline::Event> fault;

  if (loc_ == Placement::kGpu) {
    // Device-resident probes: only the CPU leg's low prefix crosses back
    // over PCIe; the kernels search the high suffix in place via the
    // probe_offset. The prefix D2H and the GPU leg run on different
    // resources, so the kernels wait on the frontier, not on the
    // download — only the CPU leg waits the copy out.
    const std::uint64_t n = gpu_->intermediate_count();
    const std::uint64_t n_gpu = split_share(i.alpha, n);
    n_cpu = n - n_gpu;
    fault = lose_split_leg(i.term, n_gpu, frontier_, m);
    if (fault) {
      // The lost leg consumed nothing: drain the WHOLE intermediate, so
      // both docID ranges run through the CPU stepper below.
      cpu_ready = *fault;
      probes_storage = gpu_->download_intermediate(n, cpu_ready, m);
    } else {
      if (n_cpu > 0) {
        probes_storage = gpu_->download_intermediate(n_cpu, cpu_ready, m);
      }
      if (n_gpu > 0) {
        gpu_partial = gpu_->split_intersect_device(i.term, n_cpu, gpu_done, m);
      }
    }
    // The merged result lands host-side: the device probes are spent.
    gpu_->drop_intermediate();
  } else {
    // Host-resident probes — or the first pair, whose probe list the host
    // decodes first; the device leg then waits on that op like any real
    // data dependency.
    if (i.first_pair) {
      cpu_ready =
          cpu_op(svs_->decode_single(i.probe_term, probes_storage, m),
                 sim::Stage::kIntersect, frontier_);
    } else {
      probes_storage.swap(host_current_);
    }
    const std::uint64_t n_gpu = split_share(i.alpha, probes_storage.size());
    n_cpu = probes_storage.size() - n_gpu;
    gpu_done = cpu_ready;
    // A GPU leg lost over host-resident probes never moved them: its range
    // is simply redone host-side below.
    fault = lose_split_leg(i.term, n_gpu, cpu_ready, m);
    if (!fault && n_gpu > 0) {
      gpu_partial = gpu_->split_intersect_host(
          i.term, std::span<const codec::DocId>(probes_storage).subspan(n_cpu),
          gpu_done, m);
    }
  }

  const std::span<const codec::DocId> probes(probes_storage);
  const sim::Timeline::Event cpu_done =
      run_cpu_leg(probes.first(n_cpu), i.term, cpu_out, cpu_ready, m);
  if (fault) {
    // The lost leg's range through the CPU stepper: partial_step over
    // [0, n_cpu) then [n_cpu, n) concatenates to exactly the unsplit
    // intersection, so the step still completes bit-identically — only the
    // remainder of the plan gets pinned host-side (run() returns
    // kOkForceCpu). The redo waits out both the CPU leg (same core) and the
    // fault (the host learns of the abort when the device signals it).
    gpu_done = run_cpu_leg(probes.subspan(n_cpu), i.term, gpu_partial,
                           sim::Timeline::join(cpu_done, *fault), m);
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
  const std::uint64_t legs0 = m.faults.split_leg_faults;
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
    // The recovering OOM rungs run inside the step (waiting on the
    // frontier and advancing it), so their ops land in this step's record
    // and the retried allocation waits the recovery out on the timeline.
    if (fault == FaultAction::kEvict) {
      gpu_->oom_evict(frontier_, m);
    } else if (fault == FaultAction::kUnfuse) {
      // Shrinking the fused launch back to a single query frees the K-way
      // working set; the relaunch overhead is the recovery cost. Only the
      // faulted query unfuses — co-batched lanes keep their tag.
      const sim::Duration d = sim::Duration::from_us(kOomUnfuseCostUs);
      gpu_->charge_fault(d, t.stage, frontier_);
      m.faults.oom_recovery += d;
      ++m.faults.oom_unfused;
      set_batch(1, 0);
    }
    rec.batch_group = batch_group_;
    const sim::Timeline::Event done = dispatch(step, q, res);
    // The one rule for side bets: a prefetch or host decode waits on
    // nothing in the plan, so nothing in the plan waits on it — only a
    // consumer of its list does, through the cache it fills.
    if (rec.kind != StepKind::kPrefetch && rec.kind != StepKind::kHostDecode) {
      frontier_ = done;
    }
    // A split that lost its GPU leg completed host-side: the caller pins
    // the remainder of the plan to the CPU (the device is no longer
    // trusted for this query).
    rec.leg_faulted = m.faults.split_leg_faults != legs0;
    if (rec.leg_faulted) status = StepStatus::kOkForceCpu;
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
