// PCIe transfer model. The paper's testbed attaches the K20 over PCIe 2.0
// x16 (8 GB/s); transfer time = DMA setup latency + bytes / bandwidth, and
// each device allocation pays a cudaMalloc-like fixed cost. These overheads
// are exactly what the scheduler must amortize (paper §2.3), so they are
// tracked per query.
#pragma once

#include <cstdint>

#include "fault/fault.h"
#include "sim/hardware_spec.h"
#include "sim/time.h"
#include "sim/timeline.h"

namespace griffin::pcie {

/// Failed attempts a single DMA may accumulate before the link-level retry
/// is assumed successful.
inline constexpr std::uint32_t kPcieMaxRetries = 3;

class Link {
 public:
  explicit Link(sim::PcieSpec spec = {}) : spec_(spec) {}

  const sim::PcieSpec& spec() const { return spec_; }

  /// Time for one host->device or device->host DMA of `bytes`. A double,
  /// so the scheduler's estimates price their fractional expected sizes
  /// through the same formula the ledger charges.
  sim::Duration transfer_time(double bytes) const {
    return sim::Duration::from_us(spec_.latency_us) +
           sim::Duration::from_ns(bytes / spec_.bandwidth_gbps);
  }

  /// Time for one chunk of a larger DMA split for double buffering: the
  /// setup latency is paid once, on the first chunk; later chunks stream at
  /// line rate.
  sim::Duration chunk_time(std::uint64_t bytes, bool first_chunk) const {
    sim::Duration t = sim::Duration::from_ns(static_cast<double>(bytes) /
                                             spec_.bandwidth_gbps);
    if (first_chunk) t += sim::Duration::from_us(spec_.latency_us);
    return t;
  }

  /// Time for one device allocation call.
  sim::Duration alloc_time() const {
    return sim::Duration::from_us(spec_.alloc_us);
  }

 private:
  sim::PcieSpec spec_;
};

/// Running totals of modeled transfer activity, kept per engine/query so the
/// latency breakdown can attribute time to data movement.
///
/// When bound to a sim::Timeline (DESIGN.md §10), each charge is recorded
/// as a transfer-stage op on the bound stream (H2D and D2H on their
/// respective copy engines, unpooled allocations on the host, since
/// cudaMalloc is host-synchronous; a pooled allocation records no op),
/// chained so the ledger's ops execute in order after
/// the `dep` event it was bound with. `last_event()` is the completion of
/// the most recent op — the event kernels consuming the transferred data
/// wait on. Unbound (the kernel-level benches), the ledger is just the
/// scalar sum `total`.
struct TransferLedger {
  std::uint64_t h2d_bytes = 0;
  std::uint64_t d2h_bytes = 0;
  std::uint64_t transfers = 0;
  std::uint64_t allocs = 0;
  sim::Duration total;

  void bind(sim::Timeline* tl, sim::Timeline::StreamId stream,
            sim::Timeline::Event dep) {
    tl_ = tl;
    stream_ = stream;
    last_ = dep;
  }
  sim::Timeline::Event last_event() const { return last_; }

  /// Arms PCIe fault injection (DESIGN.md §11): every subsequent DMA draws
  /// its transfer id from `*transfer_seq` (a per-query counter shared by all
  /// the query's ledgers) and asks the injector per attempt; each failed
  /// attempt re-pays the full transfer time on the same copy engine, capped
  /// at kPcieMaxRetries, after which the link-level retry is assumed to have
  /// succeeded. Timing-only: data is never corrupted.
  void arm_faults(const fault::FaultInjector* injector, std::uint32_t scope,
                  std::uint64_t query, std::uint64_t* transfer_seq,
                  fault::FaultCounters* counters) {
    injector_ = injector;
    fault_scope_ = scope;
    fault_query_ = query;
    transfer_seq_ = transfer_seq;
    fault_counters_ = counters;
  }

  void add_transfer(const Link& link, std::uint64_t bytes, bool h2d) {
    (h2d ? h2d_bytes : d2h_bytes) += bytes;
    ++transfers;
    const sim::Duration t = link.transfer_time(bytes);
    charge_retries(t, h2d);
    total += t;
    record(h2d ? sim::Resource::kCopyH2D : sim::Resource::kCopyD2H, t);
  }
  /// One chunk of a split DMA (Link::chunk_time): the chunk sequence costs
  /// the setup latency once, so its serial sum stays within per-chunk
  /// rounding of the equivalent single transfer.
  void add_transfer_chunk(const Link& link, std::uint64_t bytes, bool h2d,
                          bool first_chunk) {
    (h2d ? h2d_bytes : d2h_bytes) += bytes;
    ++transfers;
    const sim::Duration t = link.chunk_time(bytes, first_chunk);
    charge_retries(t, h2d);
    total += t;
    record(h2d ? sim::Resource::kCopyH2D : sim::Resource::kCopyD2H, t);
  }
  /// One device allocation. An unpooled one holds the host core for
  /// alloc_time (cudaMalloc is host-synchronous); a pooled one costs nothing
  /// and records no op, so the ops chained behind it do not wait for the
  /// host core.
  void add_alloc(const Link& link) {
    ++allocs;
    const sim::Duration t = link.alloc_time();
    if (t.ps() == 0) return;
    total += t;
    record(sim::Resource::kCpu, t);
  }
  void reset() { *this = TransferLedger{}; }

 private:
  void record(sim::Resource r, sim::Duration d) {
    if (tl_ == nullptr) return;
    last_ = tl_->record(stream_, r, sim::Stage::kTransfer, d, last_);
  }

  /// Failed DMA attempts before the successful one: each re-pays the full
  /// transfer duration (the DMA ran to the error before aborting), serially
  /// and on the timeline's copy engine, so retried time shows up in the
  /// overlap accounting like any other copy.
  void charge_retries(sim::Duration t, bool h2d) {
    if (injector_ == nullptr) return;
    const std::uint64_t id = (*transfer_seq_)++;
    for (std::uint32_t attempt = 0; attempt < kPcieMaxRetries; ++attempt) {
      if (!injector_->pcie_error(fault_scope_, fault_query_, id, attempt)) {
        break;
      }
      ++fault_counters_->pcie_errors;
      fault_counters_->pcie_retry_time += t;
      total += t;
      record(h2d ? sim::Resource::kCopyH2D : sim::Resource::kCopyD2H, t);
    }
  }

  sim::Timeline* tl_ = nullptr;
  sim::Timeline::StreamId stream_ = 0;
  sim::Timeline::Event last_;
  const fault::FaultInjector* injector_ = nullptr;
  std::uint32_t fault_scope_ = 0;
  std::uint64_t fault_query_ = 0;
  std::uint64_t* transfer_seq_ = nullptr;
  fault::FaultCounters* fault_counters_ = nullptr;
};

}  // namespace griffin::pcie
