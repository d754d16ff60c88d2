#include "gpu/engine.h"

#include <algorithm>
#include <cassert>

namespace griffin::gpu {

namespace {
/// OOM ladder rung 1 (DESIGN.md §16) frees at least this many device-cache
/// bytes (LRU tail first) before the allocation is retried...
constexpr std::uint64_t kOomEvictBytes = std::uint64_t{1} << 20;
/// ...charging this host-synchronous free per evicted entry (cudaFree blocks
/// the stream until in-flight work retires).
constexpr double kOomEvictCostUs = 15.0;
}  // namespace

GpuExecutor::GpuExecutor(const index::InvertedIndex& idx, sim::HardwareSpec hw,
                         GpuOptions opt, const fault::FaultInjector& injector,
                         std::uint32_t fault_scope)
    : idx_(&idx),
      hw_(hw),
      opt_(opt),
      device_(hw.gpu, hw.pcie.device_mem_bytes),
      cache_(0, opt.list_cache_bytes),
      cost_(hw.gpu),
      link_([&] {
        sim::PcieSpec spec = hw.pcie;
        if (opt.pooled_memory) spec.alloc_us = 0.0;
        return pcie::Link(spec);
      }()),
      injector_(&injector),
      fault_scope_(fault_scope) {
  assert(opt.list_cache_bytes <= hw.pcie.device_mem_bytes);
}

void GpuExecutor::begin_query(sim::Timeline& tl, std::uint64_t query_id,
                              sim::Duration release) {
  current_ = simt::DeviceBuffer<DocId>();
  current_count_ = kNoIntermediate;
  terms_.clear();
  prefetch_.clear();
  tl_ = &tl;
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
  terms_.clear();
  tl_ = nullptr;
}

void GpuExecutor::charge_kernel(const sim::KernelStats& s, sim::Stage stage,
                                sim::Timeline::Event& at, core::QueryMetrics& m,
                                std::uint32_t kernels) {
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
    const double resident =
        static_cast<double>(hw_.gpu.sm_count) *
        static_cast<double>(hw_.gpu.max_resident_warps_per_sm);
    const double fill =
        std::min(1.0, static_cast<double>(s.warps) / resident);
    const double share = 1.0 / static_cast<double>(batch_size_);
    d = overhead * share + body * std::max(fill, share);
  }
  m.gpu_kernels += kernels;
  at = tl_->record(compute_stream_, sim::Resource::kGpuCompute, stage, d, at);
}

void GpuExecutor::arm_ledger(pcie::TransferLedger& ledger,
                             core::QueryMetrics& m) {
  if (injector_->config().pcie.armed()) {
    ledger.arm_faults(injector_, fault_scope_, fault_query_, &transfer_seq_,
                      &m.faults);
  }
}

void GpuExecutor::bind_ledger(pcie::TransferLedger& ledger,
                              sim::Timeline::Event at, core::QueryMetrics& m) {
  arm_ledger(ledger, m);
  ledger.bind(tl_, copy_stream_, at);
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

void GpuExecutor::charge_fault(sim::Duration d, sim::Stage stage,
                               sim::Timeline::Event& at) {
  at = tl_->record(compute_stream_, sim::Resource::kGpuCompute, stage, d, at);
}

void GpuExecutor::oom_evict(sim::Timeline::Event& at, core::QueryMetrics& m) {
  std::uint64_t entries = 0;
  const std::uint64_t freed = cache_.evict_bytes(kOomEvictBytes, &entries);
  m.faults.oom_evictions += entries;
  m.faults.oom_evicted_bytes += freed;
  m.cache.device_evictions += entries;
  const sim::Duration d =
      sim::Duration::from_us(kOomEvictCostUs * static_cast<double>(entries));
  m.faults.oom_recovery += d;
  at = tl_->record(copy_stream_, sim::Resource::kCpu, sim::Stage::kTransfer, d,
                   at);
}

sim::Timeline::Event GpuExecutor::prefetch(index::TermId t,
                                           core::QueryMetrics& m) {
  // Planned against slightly stale state: re-check residency and in-flight
  // status at issue time, and quietly skip when the copy is pointless.
  if (prefetched(t) || cache_.resident(t)) return {};
  pcie::TransferLedger ledger;
  bind_ledger(ledger, {}, m);  // copy-stream order only
  Prefetched p;
  p.list = upload_list(device_, idx_->list(t).docids, link_, ledger);
  p.ready = ledger.last_event();
  if (cache_.enabled()) ++m.cache.device_misses;
  ++m.overlap.prefetch_issued;
  prefetch_.emplace(t, std::move(p));
  return ledger.last_event();
}

void GpuExecutor::drop_prefetches(core::QueryMetrics& m) {
  for (auto& [term, p] : prefetch_) {
    ++m.overlap.prefetch_dropped;
    // The full payload landed and was paid for; keeping it costs nothing.
    std::uint64_t evicted = 0;
    cache_.insert(term, std::move(p.list), &evicted);
    m.cache.device_evictions += evicted;
  }
  prefetch_.clear();
}

std::optional<GpuExecutor::AcquiredList> GpuExecutor::acquire_paid(
    index::TermId t, sim::Timeline::Event& at, core::QueryMetrics& m) {
  AcquiredList a;
  a.term = t;
  if (auto it = prefetch_.find(t); it != prefetch_.end()) {
    a.owned.emplace(std::move(it->second.list));
    at = sim::Timeline::join(at, it->second.ready);
    prefetch_.erase(it);
    ++m.overlap.prefetch_used;
    return a;
  }
  if (cache_.enabled()) {
    if (const DeviceList* hit = cache_.lookup(t)) {
      ++m.cache.device_hits;  // transfer + allocation charges skipped
      a.cached = hit;
      return a;
    }
    ++m.cache.device_misses;
  }
  return std::nullopt;
}

GpuExecutor::AcquiredList GpuExecutor::acquire_full(index::TermId t,
                                                    sim::Timeline::Event& at,
                                                    core::QueryMetrics& m,
                                                    bool chunked) {
  if (auto paid = acquire_paid(t, at, m)) return std::move(*paid);
  AcquiredList a;
  a.term = t;
  pcie::TransferLedger ledger;
  bind_ledger(ledger, at, m);
  a.owned.emplace(upload_list(device_, idx_->list(t).docids, link_, ledger,
                              /*defer_payload=*/chunked));
  join_ledger(ledger, at);
  a.payload_deferred = chunked;
  return a;
}

void GpuExecutor::commit(AcquiredList&& a, core::QueryMetrics& m) {
  if (!a.owned.has_value()) return;
  std::uint64_t evicted = 0;
  cache_.insert(a.term, std::move(*a.owned), &evicted);
  m.cache.device_evictions += evicted;
}

simt::DeviceBuffer<DocId> GpuExecutor::decode_full_list(
    index::TermId t, sim::Timeline::Event& at, core::QueryMetrics& m) {
  const auto& list = idx_->list(t).docids;
  AcquiredList a =
      acquire_full(t, at, m, /*chunked=*/opt_.copy_chunk_bytes > 0);
  pcie::TransferLedger ledger;
  bind_ledger(ledger, at, m);
  auto out = device_.alloc<DocId>(list.size());
  ledger.add_alloc(link_);
  join_ledger(ledger, at);

  const DeviceList& dl = a.view();
  if (!a.payload_deferred) {
    // Hit / prefetched / unchunked: the payload is on the device already,
    // one kernel decodes it all.
    const sim::KernelStats s =
        decode_range(device_, dl, 0, dl.num_blocks(), out);
    charge_kernel(s, sim::Stage::kDecode, at, m);
  } else {
    // Double buffering (DESIGN.md §10): group blocks into >= chunk-size
    // payload chunks; each chunk's H2D is an op on the copy stream chained
    // off the step's entry frontier (copies serialize with each other, not
    // with this step's kernels), and its decode kernel waits on exactly its
    // own chunk's copy — so the copy of chunk i+1 runs under the decode of
    // chunk i. Per-chunk launches honestly inflate the serial cost; the
    // pipeline pays off on the critical path.
    const sim::Timeline::Event entry = at;
    const std::size_t nb = dl.num_blocks();
    std::size_t lo = 0;
    bool first = true;
    while (lo < nb) {
      std::uint64_t bytes = 0;
      std::size_t hi = lo;
      while (hi < nb && (hi == lo || bytes < opt_.copy_chunk_bytes)) {
        bytes += codec::block_payload_bytes(dl.host_descs, dl.blob.size(), hi);
        ++hi;
      }
      pcie::TransferLedger chunk;
      arm_ledger(chunk, m);
      chunk.bind(tl_, copy_stream_, entry);
      chunk.add_transfer_chunk(link_, bytes, /*h2d=*/true, first);
      first = false;
      join_ledger(chunk, at);
      const sim::KernelStats s = decode_range(
          device_, dl, lo, hi, out, dl.host_descs[lo].out_offset);
      charge_kernel(s, sim::Stage::kDecode, at, m);
      lo = hi;
    }
  }
  commit(std::move(a), m);
  return out;
}

void GpuExecutor::intersect_next(index::TermId t, sim::Timeline::Event& at,
                                 core::QueryMetrics& m) {
  assert(has_intermediate());
  const auto& lt = idx_->list(t).docids;
  const double ratio =
      current_count_ == 0
          ? kPathRatio  // empty intermediate: nothing to merge anyway
          : static_cast<double>(lt.size()) /
                static_cast<double>(current_count_);

  pcie::TransferLedger ledger;
  bind_ledger(ledger, at, m);
  GpuIntersectResult r;
  if (ratio < kPathRatio) {
    // A known term set fixes the intermediate, so an earlier step with the
    // same set and term counted exactly what this one would.
    MergeRecord* record = nullptr;
    if (!terms_.empty()) {
      std::vector<index::TermId> key = terms_;
      key.push_back(t);
      record = &merge_records_[std::move(key)];
    }
    auto dt = decode_full_list(t, at, m);
    r = mergepath_intersect(device_, current_, current_count_, dt, lt.size(),
                            link_, ledger, {}, record);
  } else {
    r = binary_search_over(t, current_, current_count_, 0, ledger, at, m);
  }
  join_ledger(ledger, at);
  charge_kernel(r.stats, sim::Stage::kIntersect, at, m, r.kernels);
  current_ = std::move(r.result);
  current_count_ = r.count;
  if (!terms_.empty()) {
    const auto it = std::lower_bound(terms_.begin(), terms_.end(), t);
    if (it == terms_.end() || *it != t) terms_.insert(it, t);
  }
}

void GpuExecutor::load_single(index::TermId t, sim::Timeline::Event& at,
                              core::QueryMetrics& m) {
  current_ = decode_full_list(t, at, m);
  current_count_ = idx_->list(t).size();
  terms_.assign(1, t);
}

void GpuExecutor::upload_intermediate(std::span<const DocId> docs,
                                      sim::Timeline::Event& at,
                                      core::QueryMetrics& m) {
  pcie::TransferLedger ledger;
  bind_ledger(ledger, at, m);
  current_ = device_.alloc<DocId>(std::max<std::size_t>(docs.size(), 1));
  ledger.add_alloc(link_);
  device_.upload(current_, docs);
  ledger.add_transfer(link_, docs.size_bytes(), /*h2d=*/true);
  join_ledger(ledger, at);
  current_count_ = docs.size();
  terms_.clear();
}

std::vector<DocId> GpuExecutor::download_intermediate(std::uint64_t n,
                                                     sim::Timeline::Event& at,
                                                     core::QueryMetrics& m) {
  assert(has_intermediate());
  assert(n <= current_count_);
  return download_partial(current_, n, at, m);
}

GpuIntersectResult GpuExecutor::binary_search_over(
    index::TermId t, const simt::DeviceBuffer<DocId>& probes, std::uint64_t np,
    std::uint64_t probe_offset, pcie::TransferLedger& ledger,
    sim::Timeline::Event& at, core::QueryMetrics& m) {
  if (auto paid = acquire_paid(t, at, m)) {
    // Prefetched or resident: the full payload is on the device, so no
    // transfers and no deferred block charging. A consumed prefetch enters
    // the cache once the kernels ran.
    GpuIntersectResult r =
        binary_search_intersect(device_, probes, np, paid->view(), link_,
                                ledger, /*deferred_payload=*/false,
                                probe_offset);
    commit(std::move(*paid), m);
    return r;
  }
  // Miss: the deferred upload moves only the skip table plus candidate
  // blocks (§3.1.2), so the payload is never fully paid for — such a
  // partially transferred list must not enter the cache.
  DeviceList dlist = upload_list(device_, idx_->list(t).docids, link_, ledger,
                                 /*defer_payload=*/true);
  return binary_search_intersect(device_, probes, np, dlist, link_, ledger,
                                 /*deferred_payload=*/true, probe_offset);
}

std::vector<DocId> GpuExecutor::download_partial(
    const simt::DeviceBuffer<DocId>& buf, std::uint64_t count,
    sim::Timeline::Event& at, core::QueryMetrics& m) {
  std::vector<DocId> out(count);
  pcie::TransferLedger ledger;
  // Bound after the kernels: the D2H waits them out.
  bind_ledger(ledger, at, m);
  device_.download(std::span<DocId>(out), buf);
  ledger.add_transfer(link_, count * sizeof(DocId), /*h2d=*/false);
  join_ledger(ledger, at);
  return out;
}

std::vector<DocId> GpuExecutor::split_leg(
    index::TermId t, const simt::DeviceBuffer<DocId>& probes, std::uint64_t np,
    std::uint64_t probe_offset, pcie::TransferLedger& ledger,
    sim::Timeline::Event& at, core::QueryMetrics& m) {
  GpuIntersectResult r =
      binary_search_over(t, probes, np, probe_offset, ledger, at, m);
  join_ledger(ledger, at);
  charge_kernel(r.stats, sim::Stage::kIntersect, at, m, r.kernels);
  return download_partial(r.result, r.count, at, m);
}

std::vector<DocId> GpuExecutor::split_intersect_host(
    index::TermId t, std::span<const DocId> probes, sim::Timeline::Event& at,
    core::QueryMetrics& m) {
  pcie::TransferLedger ledger;
  bind_ledger(ledger, at, m);
  auto dprobes = device_.alloc<DocId>(std::max<std::size_t>(probes.size(), 1));
  ledger.add_alloc(link_);
  device_.upload(dprobes, probes);
  ledger.add_transfer(link_, probes.size_bytes(), /*h2d=*/true);
  return split_leg(t, dprobes, probes.size(), 0, ledger, at, m);
}

std::vector<DocId> GpuExecutor::split_intersect_device(
    index::TermId t, std::uint64_t probe_offset, sim::Timeline::Event& at,
    core::QueryMetrics& m) {
  assert(has_intermediate());
  assert(probe_offset <= current_count_);
  pcie::TransferLedger ledger;
  bind_ledger(ledger, at, m);
  return split_leg(t, current_, current_count_ - probe_offset, probe_offset,
                   ledger, at, m);
}

}  // namespace griffin::gpu
