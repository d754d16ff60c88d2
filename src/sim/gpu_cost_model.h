// Converts counted kernel work (from the SIMT simulator) into simulated time
// with a roofline model: a kernel is bound by whichever is largest of
//   - warp-instruction issue throughput (compute),
//   - global-memory bandwidth over coalesced 128B transactions (memory),
//   - exposed memory latency when too few warps are resident to hide it
//     (occupancy / latency bound),
// plus a fixed kernel-launch overhead. This is the standard first-order GPU
// performance model; everything the paper argues about (divergence, poor
// coalescing of binary search, launch-cost amortization on long lists)
// manifests through these three terms.
#pragma once

#include <cmath>
#include <cstdint>

#include "sim/hardware_spec.h"
#include "sim/time.h"
#include "util/fields.h"

namespace griffin::sim {

/// Work counted during one kernel launch by the SIMT simulator. `+=`, `-`
/// and `==` come from fields() (util/fields.h).
struct KernelStats {
  std::uint64_t blocks = 0;
  std::uint64_t warps = 0;
  /// Sum over (warp, region) of the max-lane ALU+shared cycles: SIMT lockstep
  /// means a warp takes as long as its slowest lane, so divergence inflates
  /// this term.
  double warp_cycles = 0.0;
  std::uint64_t global_transactions = 0;   ///< coalesced 128B transactions
  std::uint64_t global_bytes_requested = 0;///< bytes the lanes actually asked for
  std::uint64_t shared_accesses = 0;
  double shared_conflict_cycles = 0.0;     ///< extra cycles from bank conflicts
  std::uint64_t barriers = 0;              ///< block barriers, summed over blocks

  /// The counts a block's body adds as it runs; the launch sets blocks and
  /// warps. A device list's decode record (gpu/device_list.h) packs these.
  static constexpr auto body_fields() {
    using K = KernelStats;
    return std::tuple{
        util::field("warp_cycles", &K::warp_cycles),
        util::field("global_transactions", &K::global_transactions),
        util::field("global_bytes_requested", &K::global_bytes_requested),
        util::field("shared_accesses", &K::shared_accesses),
        util::field("shared_conflict_cycles", &K::shared_conflict_cycles),
        util::field("barriers", &K::barriers)};
  }
  static constexpr auto fields() {
    using K = KernelStats;
    return std::tuple_cat(std::tuple{util::field("blocks", &K::blocks),
                                     util::field("warps", &K::warps)},
                          body_fields());
  }

  KernelStats& operator+=(const KernelStats& o) {
    return util::add_fields(*this, o);
  }
  friend KernelStats operator-(KernelStats a, const KernelStats& b) {
    return util::subtract_fields(a, b);
  }
  bool operator==(const KernelStats&) const = default;

  /// Fraction of each memory transaction that was useful data (1.0 = fully
  /// coalesced). Diagnostic only; not used by the time model.
  double coalescing_efficiency(const GpuSpec& g) const {
    if (global_transactions == 0) return 1.0;
    return static_cast<double>(global_bytes_requested) /
           static_cast<double>(global_transactions * g.mem_transaction_bytes);
  }
};

class GpuCostModel {
 public:
  explicit GpuCostModel(GpuSpec spec) : spec_(spec) {}
  const GpuSpec& spec() const { return spec_; }

  /// Time for one kernel launch that performed `s` work.
  Duration kernel_time(const KernelStats& s) const {
    if (s.warps == 0) return Duration::from_us(spec_.kernel_launch_us);

    const double barrier_cycles =
        static_cast<double>(s.barriers) * spec_.barrier_cycles;
    const double compute_cycles =
        s.warp_cycles + s.shared_conflict_cycles + barrier_cycles;

    // Compute bound: chip-wide warp-instruction slots per cycle.
    const Duration compute = Duration::from_cycles(
        compute_cycles / static_cast<double>(spec_.warp_slots_per_cycle),
        spec_.core_clock_ghz);

    // Memory-bandwidth bound.
    const double mem_bytes = static_cast<double>(s.global_transactions) *
                             static_cast<double>(spec_.mem_transaction_bytes);
    const Duration mem = Duration::from_ns(mem_bytes / spec_.mem_bandwidth_gbps);

    // Latency bound: each warp's transactions are dependent (serial within
    // the warp); warps overlap up to the resident-warp limit, beyond which
    // they run in additional "rounds".
    const double resident = static_cast<double>(spec_.sm_count) *
                            static_cast<double>(spec_.max_resident_warps_per_sm);
    const double rounds =
        std::ceil(static_cast<double>(s.warps) / resident);
    const double per_warp_txns = static_cast<double>(s.global_transactions) /
                                 static_cast<double>(s.warps);
    const double per_warp_cycles = compute_cycles / static_cast<double>(s.warps);
    const Duration serial_warp =
        Duration::from_ns(per_warp_txns * spec_.mem_latency_ns) +
        Duration::from_cycles(per_warp_cycles, spec_.core_clock_ghz);
    const Duration latency = serial_warp * rounds;

    return Duration::from_us(spec_.kernel_launch_us) +
           max(compute, max(mem, latency));
  }

 private:
  GpuSpec spec_;
};

}  // namespace griffin::sim
