#include "gpu/engine.h"

#include <algorithm>
#include <cassert>

namespace griffin::gpu {

namespace {
/// Intersection-path crossover: MergePath below this length ratio, binary
/// search at or above. 128 = the block size, per the paper's §3.2 analysis.
constexpr double kPathRatio = 128.0;

/// Cache budget: device memory minus the per-query working-set headroom.
std::uint64_t list_cache_budget(const sim::HardwareSpec& hw,
                                const GpuOptions& opt) {
  if (!opt.list_cache) return 0;
  if (hw.pcie.device_mem_bytes <= opt.list_cache_headroom_bytes) return 0;
  return hw.pcie.device_mem_bytes - opt.list_cache_headroom_bytes;
}
}  // namespace

GpuExecutor::GpuExecutor(const index::InvertedIndex& idx, sim::HardwareSpec hw,
                         GpuOptions opt)
    : idx_(&idx),
      hw_(hw),
      opt_(opt),
      device_(hw.gpu, hw.pcie.device_mem_bytes),
      cache_(list_cache_budget(hw, opt)),
      cost_(hw.gpu),
      link_([&] {
        sim::PcieSpec spec = hw.pcie;
        if (opt.pooled_memory) spec.alloc_us = 0.0;
        return pcie::Link(spec);
      }()) {}

void GpuExecutor::begin_query(sim::Timeline& tl, std::uint64_t query_id,
                              sim::Duration release) {
  current_ = simt::DeviceBuffer<DocId>();
  current_count_ = kNoIntermediate;
  prefetch_.clear();
  tl_ = &tl;
  chain_ = sim::Timeline::Event{release};
  fault_query_ = query_id;
  transfer_seq_ = 0;
  batch_size_ = 1;
  copy_stream_ = tl.stream(release);
  compute_stream_ = tl.stream(release);
}

void GpuExecutor::finish_query(core::QueryMetrics& m) {
  drop_prefetches(m);
  current_ = simt::DeviceBuffer<DocId>();
  current_count_ = kNoIntermediate;
  tl_ = nullptr;
  chain_ = sim::Timeline::Event{};
}

void GpuExecutor::charge_kernel(const sim::KernelStats& s, sim::Stage stage,
                                core::QueryMetrics& m, std::uint32_t kernels) {
  sim::Duration d = cost_.kernel_time(s);
  if (batch_size_ > 1) {
    // Cross-query kernel batching (DESIGN.md §12): this launch was fused
    // with batch_size_ - 1 compatible launches from co-admitted queries.
    // Each member pays 1/K of the shared launch overhead, and a kernel
    // that underfills the device's resident-warp capacity recovers idle
    // warp slots from its batch peers — its body time shrinks by its warp
    // fill, floored at 1/K (K members can at best K-plex the device). A
    // device-filling kernel gets no body bonus; the launch amortization
    // stands. Guarded by batch_size_ > 1 so unbatched accounting is
    // bit-identical to the single-tenant engines.
    const sim::Duration overhead =
        sim::Duration::from_us(hw_.gpu.kernel_launch_us);
    const sim::Duration body = sim::max(d - overhead, sim::Duration());
    const double resident = static_cast<double>(hw_.gpu.sm_count) *
                            static_cast<double>(hw_.gpu.max_resident_warps_per_sm);
    const double fill =
        std::min(1.0, static_cast<double>(s.warps) / resident);
    const double share = 1.0 / static_cast<double>(batch_size_);
    d = overhead * share + body * std::max(fill, share);
  }
  m.gpu_kernels += kernels;
  chain_ = tl_->record(compute_stream_, sim::Resource::kGpuCompute, stage, d,
                       chain_);
}

void GpuExecutor::arm_ledger(pcie::TransferLedger& ledger,
                             core::QueryMetrics& m) {
  if (injector_ != nullptr && injector_->config().pcie.armed()) {
    ledger.arm_faults(injector_, fault_scope_, fault_query_, &transfer_seq_,
                      &m.faults);
  }
}

void GpuExecutor::bind_ledger(pcie::TransferLedger& ledger,
                              core::QueryMetrics& m, bool chained) {
  arm_ledger(ledger, m);
  ledger.bind(tl_, copy_stream_,
              chained ? chain_ : sim::Timeline::Event{});
}

void GpuExecutor::fault_reset(std::span<const index::TermId> terms,
                              core::QueryMetrics& m) {
  // Unlike drop_prefetches, landed uploads are NOT salvaged into the cache:
  // the device fault voids the guarantee they arrived intact.
  for ([[maybe_unused]] const auto& p : prefetch_) {
    ++m.overlap.prefetch_dropped;
  }
  prefetch_.clear();
  for (const index::TermId t : terms) cache_.erase(t);
}

void GpuExecutor::charge_fault(sim::Duration d, sim::Stage stage) {
  chain_ = tl_->record(compute_stream_, sim::Resource::kGpuCompute, stage, d,
                       chain_);
}

void GpuExecutor::oom_evict(core::QueryMetrics& m) {
  assert(injector_ != nullptr);
  std::uint64_t entries = 0;
  const std::uint64_t freed =
      cache_.evict_bytes(injector_->config().oom_evict_bytes, &entries);
  m.faults.oom_evictions += entries;
  m.faults.oom_evicted_bytes += freed;
  m.cache.device_evictions += entries;
  const sim::Duration d = sim::Duration::from_us(
      injector_->config().oom_evict_cost_us * static_cast<double>(entries));
  m.faults.oom_recovery += d;
  chain_ = tl_->record(copy_stream_, sim::Resource::kCpu,
                       sim::Stage::kTransfer, d, chain_);
}

void GpuExecutor::prefetch(index::TermId t, core::QueryMetrics& m) {
  // Planned against slightly stale state: re-check residency and in-flight
  // status at issue time, and quietly skip when the copy is pointless.
  if (prefetched(t) || cache_.resident(t)) return;
  pcie::TransferLedger ledger;
  bind_ledger(ledger, m, /*chained=*/false);  // copy-stream order only
  Prefetched p;
  p.list = upload_list(device_, idx_->list(t).docids, link_, ledger);
  p.ready = ledger.last_event();
  p.cache_on_commit =
      cache_.enabled() && cache_.fits(DeviceListCache::entry_bytes(p.list));
  if (cache_.enabled()) ++m.cache.device_misses;
  // The chain is NOT advanced: on the timeline the upload rides the copy
  // engine under whatever kernels follow, and only a consumer of this term
  // waits on p.ready.
  ++m.overlap.prefetch_issued;
  prefetch_.emplace(t, std::move(p));
}

void GpuExecutor::drop_prefetches(core::QueryMetrics& m) {
  for (auto& [term, p] : prefetch_) {
    ++m.overlap.prefetch_dropped;
    // The full payload landed and was paid for; keeping it costs nothing.
    if (p.cache_on_commit) {
      std::uint64_t evicted = 0;
      cache_.insert(term, std::move(p.list), &evicted);
      m.cache.device_evictions += evicted;
    }
  }
  prefetch_.clear();
}

std::optional<GpuExecutor::AcquiredList> GpuExecutor::take_prefetched(
    index::TermId t, core::QueryMetrics& m) {
  auto it = prefetch_.find(t);
  if (it == prefetch_.end()) return std::nullopt;
  AcquiredList a;
  a.term = t;
  a.owned.emplace(std::move(it->second.list));
  a.cache_on_commit = it->second.cache_on_commit;
  chain_ = sim::Timeline::join(chain_, it->second.ready);
  prefetch_.erase(it);
  ++m.overlap.prefetch_used;
  return a;
}

GpuExecutor::AcquiredList GpuExecutor::acquire_full(index::TermId t,
                                                    core::QueryMetrics& m,
                                                    bool chunked) {
  if (auto pf = take_prefetched(t, m)) return std::move(*pf);
  AcquiredList a;
  a.term = t;
  if (cache_.enabled()) {
    if (const DeviceList* hit = cache_.lookup(t)) {
      ++m.cache.device_hits;  // transfer + allocation charges skipped
      a.cached = hit;
      return a;
    }
    ++m.cache.device_misses;
  }
  pcie::TransferLedger ledger;
  bind_ledger(ledger, m);
  a.owned.emplace(upload_list(device_, idx_->list(t).docids, link_, ledger,
                              /*defer_payload=*/chunked));
  join_ledger(ledger);
  a.payload_deferred = chunked;
  a.cache_on_commit =
      cache_.enabled() && cache_.fits(DeviceListCache::entry_bytes(*a.owned));
  return a;
}

void GpuExecutor::commit(AcquiredList&& a, core::QueryMetrics& m) {
  if (!a.cache_on_commit || !a.owned.has_value()) return;
  std::uint64_t evicted = 0;
  cache_.insert(a.term, std::move(*a.owned), &evicted);
  m.cache.device_evictions += evicted;
}

simt::DeviceBuffer<DocId> GpuExecutor::decode_full_list(index::TermId t,
                                                        core::QueryMetrics& m) {
  const auto& list = idx_->list(t).docids;
  AcquiredList a = acquire_full(t, m, /*chunked=*/opt_.copy_chunk_bytes > 0);
  pcie::TransferLedger ledger;
  bind_ledger(ledger, m);
  auto out = device_.alloc<DocId>(list.size());
  ledger.add_alloc(link_);
  join_ledger(ledger);

  const DeviceList& dl = a.view();
  if (!a.payload_deferred) {
    // Hit / prefetched / unchunked: the payload is on the device already,
    // one kernel decodes it all.
    const sim::KernelStats s =
        decode_range(device_, dl, 0, dl.num_blocks(), out);
    charge_kernel(s, sim::Stage::kDecode, m);
  } else {
    // Double buffering (DESIGN.md §10): group blocks into >= chunk-size
    // payload chunks; each chunk's H2D is an op on the copy stream chained
    // off the step's entry frontier (copies serialize with each other, not
    // with this step's kernels), and its decode kernel waits on exactly its
    // own chunk's copy — so the copy of chunk i+1 runs under the decode of
    // chunk i. Per-chunk launches honestly inflate the serial cost; the
    // pipeline pays off on the critical path.
    const sim::Timeline::Event entry = chain_;
    const std::size_t nb = dl.num_blocks();
    std::size_t lo = 0;
    bool first = true;
    while (lo < nb) {
      std::uint64_t bytes = 0;
      std::size_t hi = lo;
      while (hi < nb && (hi == lo || bytes < opt_.copy_chunk_bytes)) {
        bytes += dl.block_payload_bytes(hi);
        ++hi;
      }
      pcie::TransferLedger chunk;
      arm_ledger(chunk, m);
      chunk.bind(tl_, copy_stream_, entry);
      chunk.add_transfer_chunk(link_, bytes, /*h2d=*/true, first);
      first = false;
      join_ledger(chunk);
      const sim::KernelStats s = decode_range(
          device_, dl, lo, hi, out, dl.host_descs[lo].out_offset);
      charge_kernel(s, sim::Stage::kDecode, m);
      lo = hi;
    }
  }
  commit(std::move(a), m);
  return out;
}

void GpuExecutor::intersect_first(index::TermId a, index::TermId b,
                                  core::QueryMetrics& m) {
  const auto& la = idx_->list(a).docids;
  const auto& lb = idx_->list(b).docids;
  assert(la.size() <= lb.size());
  const double ratio = static_cast<double>(lb.size()) /
                       static_cast<double>(la.size());

  auto da = decode_full_list(a, m);

  pcie::TransferLedger ledger;
  bind_ledger(ledger, m);
  GpuIntersectResult r;
  std::optional<AcquiredList> pf;
  if (ratio < kPathRatio) {
    auto db = decode_full_list(b, m);
    r = mergepath_intersect(device_, da, la.size(), db, lb.size(), link_,
                            ledger);
  } else if ((pf = take_prefetched(b, m))) {
    // The prefetch already paid the full payload upload on the copy
    // engine; search it like a resident list (and cache it afterwards).
    r = binary_search_intersect(device_, da, la.size(), pf->view(), link_,
                                ledger, /*deferred_payload=*/false);
  } else if (const DeviceList* resident =
                 cache_.enabled() ? cache_.lookup(b) : nullptr) {
    // The long list is already fully device-resident: no transfers at all,
    // and the payload needs no deferred block charging.
    ++m.cache.device_hits;
    r = binary_search_intersect(device_, da, la.size(), *resident, link_,
                                ledger, /*deferred_payload=*/false);
  } else {
    // Miss: the deferred upload moves only the skip table plus candidate
    // blocks (§3.1.2), so the payload is never fully paid for — such a
    // partially transferred list must not enter the cache.
    if (cache_.enabled()) ++m.cache.device_misses;
    DeviceList dlist = upload_list(device_, lb, link_, ledger,
                                   /*defer_payload=*/true);
    r = binary_search_intersect(device_, da, la.size(), dlist, link_, ledger,
                                /*deferred_payload=*/true);
  }
  join_ledger(ledger);
  charge_kernel(r.stats, sim::Stage::kIntersect, m, r.kernels);
  if (pf.has_value()) commit(std::move(*pf), m);
  current_ = std::move(r.result);
  current_count_ = r.count;
}

void GpuExecutor::intersect_next(index::TermId t, core::QueryMetrics& m) {
  assert(has_intermediate());
  const auto& lt = idx_->list(t).docids;
  const double ratio =
      current_count_ == 0
          ? kPathRatio  // empty intermediate: nothing to merge anyway
          : static_cast<double>(lt.size()) /
                static_cast<double>(current_count_);

  pcie::TransferLedger ledger;
  bind_ledger(ledger, m);
  GpuIntersectResult r;
  std::optional<AcquiredList> pf;
  if (ratio < kPathRatio) {
    auto dt = decode_full_list(t, m);
    r = mergepath_intersect(device_, current_, current_count_, dt, lt.size(),
                            link_, ledger);
  } else if ((pf = take_prefetched(t, m))) {
    r = binary_search_intersect(device_, current_, current_count_, pf->view(),
                                link_, ledger, /*deferred_payload=*/false);
  } else if (const DeviceList* resident =
                 cache_.enabled() ? cache_.lookup(t) : nullptr) {
    ++m.cache.device_hits;
    r = binary_search_intersect(device_, current_, current_count_, *resident,
                                link_, ledger, /*deferred_payload=*/false);
  } else {
    if (cache_.enabled()) ++m.cache.device_misses;
    DeviceList dlist = upload_list(device_, lt, link_, ledger, true);
    r = binary_search_intersect(device_, current_, current_count_, dlist,
                                link_, ledger, true);
  }
  join_ledger(ledger);
  charge_kernel(r.stats, sim::Stage::kIntersect, m, r.kernels);
  if (pf.has_value()) commit(std::move(*pf), m);
  current_ = std::move(r.result);
  current_count_ = r.count;
}

void GpuExecutor::load_single(index::TermId t, core::QueryMetrics& m) {
  current_ = decode_full_list(t, m);
  current_count_ = idx_->list(t).size();
}

void GpuExecutor::upload_intermediate(std::span<const DocId> docs,
                                      core::QueryMetrics& m) {
  pcie::TransferLedger ledger;
  bind_ledger(ledger, m);
  current_ = device_.alloc<DocId>(std::max<std::size_t>(docs.size(), 1));
  ledger.add_alloc(link_);
  device_.upload(current_, docs);
  ledger.add_transfer(link_, docs.size_bytes(), /*h2d=*/true);
  join_ledger(ledger);
  current_count_ = docs.size();
}

std::vector<DocId> GpuExecutor::download_intermediate(core::QueryMetrics& m) {
  assert(has_intermediate());
  // Leaving the device: any in-flight prefetch has lost its consumer
  // (migration or final drain), so it is dropped here.
  drop_prefetches(m);
  std::vector<DocId> out(current_count_);
  pcie::TransferLedger ledger;
  bind_ledger(ledger, m);
  device_.download(std::span<DocId>(out), current_);
  ledger.add_transfer(link_, out.size() * sizeof(DocId), /*h2d=*/false);
  join_ledger(ledger);
  return out;
}

GpuIntersectResult GpuExecutor::binary_search_over(
    index::TermId t, const simt::DeviceBuffer<DocId>& probes, std::uint64_t np,
    std::uint64_t probe_offset, pcie::TransferLedger& ledger,
    core::QueryMetrics& m, std::optional<AcquiredList>& pf) {
  if ((pf = take_prefetched(t, m))) {
    return binary_search_intersect(device_, probes, np, pf->view(), link_,
                                   ledger, /*deferred_payload=*/false,
                                   probe_offset);
  }
  if (const DeviceList* resident =
          cache_.enabled() ? cache_.lookup(t) : nullptr) {
    ++m.cache.device_hits;
    return binary_search_intersect(device_, probes, np, *resident, link_,
                                   ledger, /*deferred_payload=*/false,
                                   probe_offset);
  }
  if (cache_.enabled()) ++m.cache.device_misses;
  DeviceList dlist = upload_list(device_, idx_->list(t).docids, link_, ledger,
                                 /*defer_payload=*/true);
  return binary_search_intersect(device_, probes, np, dlist, link_, ledger,
                                 /*deferred_payload=*/true, probe_offset);
}

std::vector<DocId> GpuExecutor::download_partial(
    const simt::DeviceBuffer<DocId>& buf, std::uint64_t count,
    core::QueryMetrics& m) {
  std::vector<DocId> out(count);
  pcie::TransferLedger ledger;
  bind_ledger(ledger, m);  // bound after the kernels: the D2H waits them out
  device_.download(std::span<DocId>(out), buf);
  ledger.add_transfer(link_, count * sizeof(DocId), /*h2d=*/false);
  join_ledger(ledger);
  return out;
}

std::vector<DocId> GpuExecutor::split_intersect_host(
    index::TermId t, std::span<const DocId> probes, core::QueryMetrics& m) {
  pcie::TransferLedger ledger;
  bind_ledger(ledger, m);
  auto dprobes = device_.alloc<DocId>(std::max<std::size_t>(probes.size(), 1));
  ledger.add_alloc(link_);
  device_.upload(dprobes, probes);
  ledger.add_transfer(link_, probes.size_bytes(), /*h2d=*/true);
  std::optional<AcquiredList> pf;
  GpuIntersectResult r =
      binary_search_over(t, dprobes, probes.size(), 0, ledger, m, pf);
  join_ledger(ledger);
  charge_kernel(r.stats, sim::Stage::kIntersect, m, r.kernels);
  if (pf.has_value()) commit(std::move(*pf), m);
  return download_partial(r.result, r.count, m);
}

std::vector<DocId> GpuExecutor::split_intersect_device(
    index::TermId t, std::uint64_t probe_offset, core::QueryMetrics& m) {
  assert(has_intermediate());
  assert(probe_offset <= current_count_);
  const std::uint64_t np = current_count_ - probe_offset;
  pcie::TransferLedger ledger;
  bind_ledger(ledger, m);
  std::optional<AcquiredList> pf;
  GpuIntersectResult r =
      binary_search_over(t, current_, np, probe_offset, ledger, m, pf);
  join_ledger(ledger);
  charge_kernel(r.stats, sim::Stage::kIntersect, m, r.kernels);
  if (pf.has_value()) commit(std::move(*pf), m);
  // The split leaves the merged result host-side: the device copy of the
  // probes is spent.
  current_ = simt::DeviceBuffer<DocId>();
  current_count_ = kNoIntermediate;
  return download_partial(r.result, r.count, m);
}

std::vector<DocId> GpuExecutor::download_intermediate_prefix(
    std::uint64_t n, core::QueryMetrics& m) {
  assert(has_intermediate());
  assert(n <= current_count_);
  std::vector<DocId> out(n);
  pcie::TransferLedger ledger;
  bind_ledger(ledger, m);
  device_.download(std::span<DocId>(out), current_);
  ledger.add_transfer(link_, n * sizeof(DocId), /*h2d=*/false);
  join_ledger(ledger);
  return out;
}

}  // namespace griffin::gpu
