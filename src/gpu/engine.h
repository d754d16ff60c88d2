// Step-level GPU execution for Griffin-GPU (paper §3.1). Decompression is
// Para-EF, intersection picks between the MergePath kernel (comparable
// lengths) and parallel binary search over skip pointers (length ratio at
// or above the block size, §3.2). GpuExecutor exposes the per-step
// operations the shared StepExecutor (core/executor.h) drives, so one
// engine can migrate between processors mid-query. The GPU-only engine,
// gpu::GpuEngine, is the hybrid engine pinned to the device (kAlwaysGpu)
// and is declared next to it in core/hybrid_engine.h (DESIGN.md §8).
#pragma once

#include <map>
#include <optional>

#include "core/query.h"
#include "gpu/binary_intersect.h"
#include "gpu/decode.h"
#include "gpu/device_list.h"
#include "gpu/list_cache.h"
#include "gpu/mergepath.h"
#include "pcie/link.h"
#include "sim/gpu_cost_model.h"
#include "sim/hardware_spec.h"

namespace griffin::gpu {

/// Intersection-path crossover: MergePath below this length ratio, binary
/// search at or above. It is the block size, per the paper's §3.2 analysis.
/// The scheduler's GPU estimate prices the same two paths on the same rule.
inline constexpr double kPathRatio = codec::kBlockSize;

struct GpuOptions {
  /// Reuse device buffers across queries from a warm memory pool: the
  /// per-step cudaMalloc overhead (tens of microseconds per allocation,
  /// several allocations per step) is a one-time warmup cost in a serving
  /// system, not a per-query cost. Disable to charge every allocation.
  bool pooled_memory = true;
  /// Device-memory budget for keeping fully uploaded compressed lists
  /// resident across queries in an LRU (gpu/list_cache.h): hot terms skip
  /// the H2D payload transfer and allocations the paper's §2.3 identifies
  /// as the GPU's handicap. 0 disables the cache. The default leaves 1 GiB
  /// of the 5 GiB device for the per-query working set (decoded outputs,
  /// intermediates); it may not exceed PcieSpec::device_mem_bytes.
  std::uint64_t list_cache_bytes = std::uint64_t{4} << 30;
  /// Double-buffer full-list uploads (DESIGN.md §10): split the payload H2D
  /// into block-granular chunks of at least this many bytes, so the copy of
  /// chunk i+1 overlaps the Para-EF decode of chunk i on the timeline. Each
  /// chunk's decode is its own kernel launch, so chunking honestly raises
  /// the *serial* cost; the win is the critical path. Too small drowns in
  /// launch overhead — bench/overlap sweeps the tradeoff. 0 disables
  /// chunking (one upload, one decode kernel).
  std::size_t copy_chunk_bytes = std::size_t{256} << 10;
};

/// Step-level GPU execution over one index. Holds the device, the cost
/// model, and the current (device-resident, decoded) intermediate result.
/// Every step that feeds the plan takes `at`, the event its first op waits
/// on, and leaves its completion there (DESIGN.md §10); the caller owns the
/// plan frontier.
class GpuExecutor {
 public:
  /// `injector` is the engine's fault injector (DESIGN.md §11), always
  /// present: PCIe transfer errors are drawn per DMA inside every ledger
  /// this executor binds while its pcie site is armed, and fault_reset() is
  /// the recovery hook for abandoned GPU steps. `fault_scope` is the shard
  /// id in a cluster (0 standalone).
  GpuExecutor(const index::InvertedIndex& idx, sim::HardwareSpec hw,
              GpuOptions opt, const fault::FaultInjector& injector,
              std::uint32_t fault_scope);

  /// Drops per-query device state and opens one copy stream and one compute
  /// stream on `tl` (core/executor.h passes its own), on which every charge
  /// of the query is recorded as a stage-tagged op (DESIGN.md §10).
  /// `query_id` keys fault coordinates. On a shared multi-tenant timeline,
  /// `release` is the query's admission time: the streams open there.
  void begin_query(sim::Timeline& tl, std::uint64_t query_id = 0,
                   sim::Duration release = {});

  /// Cross-query kernel batching (DESIGN.md §12): subsequent kernel charges
  /// model a launch fused with `size - 1` co-admitted queries' kernels —
  /// shared launch overhead split K ways, body time scaled by warp fill
  /// (floored at 1/K). size <= 1 restores exact unbatched accounting.
  void set_batch(std::uint32_t size) { batch_size_ = size == 0 ? 1 : size; }

  /// Recovery from an injected device fault on a compute step: in-flight
  /// prefetches are discarded *without* entering the cache (unlike
  /// drop_prefetches — the fault voids any guarantee the uploads landed
  /// intact) and the aborted step's terms are invalidated in the device
  /// cache (the simulated ECC error retires their pages). The current
  /// intermediate is untouched: the fault fired before the step's kernels
  /// consumed it, so the migration path can still drain it to the host.
  void fault_reset(std::span<const index::TermId> terms,
                   core::QueryMetrics& m);

  /// Charges the wasted device time of an abandoned GPU step as a compute
  /// op of `stage`, so the recovery steps wait out the fault like real work.
  void charge_fault(sim::Duration d, sim::Stage stage,
                    sim::Timeline::Event& at);

  /// Rung 1 of the OOM degradation ladder (DESIGN.md §16): frees at least
  /// 1 MiB (kOomEvictBytes) from the device list cache's LRU tail,
  /// charging one host-synchronous free per entry (a transfer-stage op —
  /// it's PCIe/allocator machinery — on the CPU, issued from the copy
  /// stream; the retried allocation waits the frees out). Counts into
  /// m.faults and m.cache.
  void oom_evict(sim::Timeline::Event& at, core::QueryMetrics& m);

  /// Drops unconsumed prefetches (counting them into m) and releases
  /// per-query device state.
  void finish_query(core::QueryMetrics& m);

  /// Starts the asynchronous H2D of term t's full list on the copy engine
  /// (kPrefetch step): the transfer ops order only behind earlier copies,
  /// so on the timeline the upload rides under the surrounding kernels. A
  /// later intersect/decode consuming t waits on the returned completion.
  /// No-op (returning a default event) if t is already resident or in
  /// flight.
  sim::Timeline::Event prefetch(index::TermId t, core::QueryMetrics& m);

  /// Discards in-flight prefetches (CPU migration / end of query); fully
  /// landed lists still enter the device cache — the transfer was paid.
  void drop_prefetches(core::QueryMetrics& m);

  /// Term has an in-flight prefetched list this query (stat-free; feeds
  /// core::StepShape::longer_prefetched).
  bool prefetched(index::TermId t) const {
    return prefetch_.find(t) != prefetch_.end();
  }

  /// Intersects the current intermediate result with another list: the
  /// MergePath kernel below the length ratio λ = kPathRatio, binary search
  /// over skip pointers at or above it (§3.1). A GPU first pair is load_single
  /// of its shorter list followed by this.
  void intersect_next(index::TermId t, sim::Timeline::Event& at,
                      core::QueryMetrics& m);

  /// Decodes a single list to the device as the intermediate (single-term
  /// queries, and the probe side of a GPU first pair).
  void load_single(index::TermId t, sim::Timeline::Event& at,
                   core::QueryMetrics& m);

  /// Uploads a host intermediate result (CPU -> GPU migration).
  void upload_intermediate(std::span<const DocId> docs,
                           sim::Timeline::Event& at, core::QueryMetrics& m);

  /// Downloads the first n elements of the device intermediate without
  /// consuming it: all of it for a migration or the final drain, the CPU
  /// leg's probe prefix in a split (DESIGN.md §15). In-flight prefetches
  /// are left alone: a transfer step leaving the device drops them first.
  std::vector<DocId> download_intermediate(std::uint64_t n,
                                           sim::Timeline::Event& at,
                                           core::QueryMetrics& m);

  // ---- Co-execution support (DESIGN.md §15) ----------------------------

  /// GPU leg of a split intersect over host-resident probes: uploads the
  /// probe range, binary-searches list t over it (selected blocks only —
  /// the split's GPU leg always runs the §3.1.2 path), and downloads the
  /// partial result. The D2H is charged on its own ledger bound *after* the
  /// kernels, so on the timeline it waits them out. Leaves any device
  /// intermediate untouched.
  std::vector<DocId> split_intersect_host(index::TermId t,
                                          std::span<const DocId> probes,
                                          sim::Timeline::Event& at,
                                          core::QueryMetrics& m);

  /// GPU leg of a split intersect when the probes are the device-resident
  /// intermediate: runs over its [probe_offset, count) suffix in place (no
  /// re-upload) and downloads the partial. The intermediate stays until the
  /// caller drops it.
  std::vector<DocId> split_intersect_device(index::TermId t,
                                            std::uint64_t probe_offset,
                                            sim::Timeline::Event& at,
                                            core::QueryMetrics& m);

  /// Releases the device intermediate without charges: a split step leaves
  /// its merged result host-side, so the device probes are spent.
  void drop_intermediate() {
    current_ = simt::DeviceBuffer<DocId>();
    current_count_ = kNoIntermediate;
    terms_.clear();
  }

  bool has_intermediate() const { return current_count_ != kNoIntermediate; }
  std::uint64_t intermediate_count() const { return current_count_; }

  /// True when term t's compressed list is resident in the device cache
  /// (stat-free; feeds core::StepShape::longer_device_resident).
  bool device_resident(index::TermId t) const { return cache_.resident(t); }

  const simt::Device& device() const { return device_; }
  const DeviceListCache& list_cache() const { return cache_; }
  /// MergePath steps recorded so far, one per (term set, next term).
  std::size_t merge_records() const { return merge_records_.size(); }

 private:
  static constexpr std::uint64_t kNoIntermediate = ~std::uint64_t{0};

  /// A fully uploaded list for one step: either a pointer into the cache
  /// (hit) or an owned upload (a taken prefetch, or a fresh upload on a miss
  /// or with the cache disabled). The owned case
  /// is offered to the cache by commit() *after* the step's kernels ran, so
  /// an insert can never evict a list another pointer still references.
  struct AcquiredList {
    /// Cache hit only (points into the cache). The owned case reads through
    /// view() instead of a raw pointer: a pointer into our own `owned` would
    /// dangle whenever the AcquiredList itself is moved (e.g. out of
    /// acquire_paid's optional).
    const DeviceList* cached = nullptr;
    std::optional<DeviceList> owned;
    index::TermId term = 0;
    /// Fresh miss upload whose payload transfer was *not* charged yet
    /// (chunked acquire): the caller pays it per chunk, interleaved with
    /// the per-chunk decode kernels (double buffering).
    bool payload_deferred = false;

    const DeviceList& view() const {
      return owned.has_value() ? *owned : *cached;
    }
  };
  /// The copy of term t whose full upload is already paid for, if any: an
  /// in-flight prefetch (taken, its completion event joined into `at`,
  /// counted as used) or else a device cache hit. Counts the cache hit or
  /// miss while the cache is enabled; nullopt leaves the upload to the
  /// caller.
  std::optional<AcquiredList> acquire_paid(index::TermId t,
                                           sim::Timeline::Event& at,
                                           core::QueryMetrics& m);
  /// acquire_paid, else a fresh full upload. With chunked=true, that upload
  /// moves the skip table only and leaves the payload charge to the caller
  /// (payload_deferred).
  AcquiredList acquire_full(index::TermId t, sim::Timeline::Event& at,
                            core::QueryMetrics& m, bool chunked);
  void commit(AcquiredList&& a, core::QueryMetrics& m);

  /// Uploads + Para-EF-decodes a full list; returns the decoded buffer.
  /// With chunking on (copy_chunk_bytes > 0), a miss pipelines chunked H2D
  /// against per-chunk decode kernels.
  simt::DeviceBuffer<DocId> decode_full_list(index::TermId t,
                                             sim::Timeline::Event& at,
                                             core::QueryMetrics& m);
  /// Binary search of list t over `np` probes starting at `probe_offset`,
  /// with the one target acquisition every high-ratio intersect uses:
  /// acquire_paid, else a deferred (skip table + candidate blocks only)
  /// upload into `ledger`. A consumed prefetch enters the cache once the
  /// kernels ran.
  GpuIntersectResult binary_search_over(index::TermId t,
                                        const simt::DeviceBuffer<DocId>& probes,
                                        std::uint64_t np,
                                        std::uint64_t probe_offset,
                                        pcie::TransferLedger& ledger,
                                        sim::Timeline::Event& at,
                                        core::QueryMetrics& m);
  /// The GPU leg of a split over `probes`: binary_search_over, its kernel
  /// charge, then the D2H of the partial matches.
  std::vector<DocId> split_leg(index::TermId t,
                               const simt::DeviceBuffer<DocId>& probes,
                               std::uint64_t np, std::uint64_t probe_offset,
                               pcie::TransferLedger& ledger,
                               sim::Timeline::Event& at, core::QueryMetrics& m);
  /// The one D2H routine: `count` elements of `buf` on a fresh ledger bound
  /// after the kernels that produced them (so the copy waits them out on
  /// the timeline).
  std::vector<DocId> download_partial(const simt::DeviceBuffer<DocId>& buf,
                                      std::uint64_t count,
                                      sim::Timeline::Event& at,
                                      core::QueryMetrics& m);
  /// Records one (possibly batch-fused) launch as a compute op of `stage`
  /// waiting on `at`, and counts its `kernels` into m.
  void charge_kernel(const sim::KernelStats& s, sim::Stage stage,
                     sim::Timeline::Event& at, core::QueryMetrics& m,
                     std::uint32_t kernels = 1);
  /// Joins a ledger's last transfer into `at`: the kernels that follow read
  /// what it moved.
  static void join_ledger(const pcie::TransferLedger& ledger,
                          sim::Timeline::Event& at) {
    at = sim::Timeline::join(at, ledger.last_event());
  }
  /// Arms PCIe fault injection on a ledger while the pcie site is armed
  /// (every ledger charging transfers for this query must pass through here
  /// or bind_ledger so DMAs draw consecutive fault coordinates).
  void arm_ledger(pcie::TransferLedger& ledger, core::QueryMetrics& m);
  /// Arms the ledger for fault injection and binds it to the timeline's
  /// copy stream, waiting on `at` (a default event for prefetches, which
  /// order only behind earlier copies).
  void bind_ledger(pcie::TransferLedger& ledger, sim::Timeline::Event at,
                   core::QueryMetrics& m);

  const index::InvertedIndex* idx_;
  sim::HardwareSpec hw_;
  GpuOptions opt_;
  simt::Device device_;
  DeviceListCache cache_;  // after device_: entries release device memory
  sim::GpuCostModel cost_;
  pcie::Link link_;
  simt::DeviceBuffer<DocId> current_;
  std::uint64_t current_count_ = kNoIntermediate;
  /// The sorted terms whose intersection current_ holds: started by
  /// load_single, extended by intersect_next, and cleared wherever current_
  /// is replaced by anything else (empty = not known).
  std::vector<index::TermId> terms_;
  /// Merge records (DESIGN.md §5): one per MergePath step this executor
  /// ran, keyed by its term set's sorted terms followed by the next term.
  /// The index is immutable, so the key fixes both inputs.
  std::map<std::vector<index::TermId>, MergeRecord> merge_records_;

  /// A kPrefetch upload awaiting its consumer. Ordered map: drop order (and
  /// therefore cache-insert order) must be deterministic.
  struct Prefetched {
    DeviceList list;
    sim::Timeline::Event ready;
  };
  std::map<index::TermId, Prefetched> prefetch_;

  sim::Timeline* tl_ = nullptr;  ///< the query's ledger, set by begin_query
  std::uint32_t batch_size_ = 1;  ///< current cross-query batch width
  sim::Timeline::StreamId copy_stream_ = 0;
  sim::Timeline::StreamId compute_stream_ = 0;

  const fault::FaultInjector* injector_;
  std::uint32_t fault_scope_;       ///< shard id (0 standalone)
  std::uint64_t fault_query_ = 0;   ///< current query's fault coordinate
  std::uint64_t transfer_seq_ = 0;  ///< per-query DMA counter (fault coords)
};

}  // namespace griffin::gpu
