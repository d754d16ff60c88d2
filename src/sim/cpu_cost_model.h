// Cost accounting for the CPU query engine. Engines charge cycles for the
// scalar work they do (compares, decodes, branch misses) and bytes for the
// data they stream; the resulting time is roofline-style: whichever of the
// compute or bandwidth terms is larger. One accumulator covers one pipeline
// stage (decode / intersect / rank) of one query.
#pragma once

#include <cstdint>

#include "sim/hardware_spec.h"
#include "sim/time.h"
#include "util/fields.h"

namespace griffin::sim {

/// Lane-accounting counters for the SIMD execution mode (DESIGN.md §13) —
/// the CPU mirror of simt/'s per-warp work counts. One vectorized loop over
/// n elements charges exactly ceil(n/lanes) vector iterations; the lanes
/// those iterations *could* have filled versus the elements they actually
/// processed is the vector efficiency traces report. `+=`, `-` and the
/// trace JSON's `simd` object come from fields() (util/fields.h).
struct SimdCounters {
  std::uint64_t loops = 0;         ///< vectorized loops entered
  std::uint64_t vector_ops = 0;    ///< Σ ceil(n/lanes) over loops
  std::uint64_t useful_lanes = 0;  ///< Σ n (elements actually processed)
  std::uint64_t charged_lanes = 0; ///< Σ ceil(n/lanes)*lanes (slots paid for)
  std::uint64_t tail_elems = 0;    ///< Σ n mod lanes (masked-tail elements)

  static constexpr auto fields() {
    using S = SimdCounters;
    return std::tuple{util::field("loops", &S::loops),
                      util::field("vector_ops", &S::vector_ops),
                      util::field("useful_lanes", &S::useful_lanes),
                      util::field("charged_lanes", &S::charged_lanes),
                      util::field("tail_elems", &S::tail_elems)};
  }

  /// Fraction of paid-for lane slots that did useful work (0 when no
  /// vectorized loop ran — scalar mode, GPU-placed steps, transfers).
  double utilization() const {
    return charged_lanes == 0 ? 0.0
                              : static_cast<double>(useful_lanes) /
                                    static_cast<double>(charged_lanes);
  }

  SimdCounters& operator+=(const SimdCounters& o) {
    return util::add_fields(*this, o);
  }
  friend SimdCounters operator-(SimdCounters a, const SimdCounters& b) {
    return util::subtract_fields(a, b);
  }
  bool operator==(const SimdCounters&) const = default;
};

class CpuCostAccumulator {
 public:
  explicit CpuCostAccumulator(const CpuSpec& spec) : spec_(&spec) {}

  const CpuSpec& spec() const { return *spec_; }

  void add_cycles(double c) { cycles_ += c; }
  void add_bytes(std::uint64_t b) { bytes_ += b; }

  /// One vectorized loop: `n` elements in `vops` vector iterations costing
  /// `cycles` total (cpu/simd_cost.h computes both from the vector spec).
  void add_vector_loop(std::uint64_t n, std::uint64_t vops, double cycles) {
    cycles_ += cycles;
    const auto lanes = static_cast<std::uint64_t>(spec_->vector.lanes);
    ++simd_.loops;
    simd_.vector_ops += vops;
    simd_.useful_lanes += n;
    simd_.charged_lanes += vops * lanes;
    simd_.tail_elems += n % lanes;
  }
  const SimdCounters& simd() const { return simd_; }

  // Convenience charges matching the CpuSpec knobs.
  void merge_steps(std::uint64_t n) { cycles_ += n * spec_->merge_step_cycles; }
  void branch_misses(std::uint64_t n) { cycles_ += n * spec_->branch_miss_cycles; }
  void pfor_exceptions(std::uint64_t n) { cycles_ += n * spec_->pfor_exception_cycles; }
  void scores(std::uint64_t n) { cycles_ += n * spec_->score_cycles; }
  void heap_steps(std::uint64_t n) { cycles_ += n * spec_->heap_step_cycles; }

  double cycles() const { return cycles_; }
  std::uint64_t bytes() const { return bytes_; }

  /// Roofline time for this stage.
  Duration time() const {
    const Duration compute = Duration::from_cycles(cycles_, spec_->clock_ghz);
    const Duration bw = Duration::from_ns(static_cast<double>(bytes_) /
                                          spec_->mem_bandwidth_gbps);
    return max(compute, bw);
  }

 private:
  const CpuSpec* spec_;
  double cycles_ = 0.0;
  std::uint64_t bytes_ = 0;
  SimdCounters simd_;
};

}  // namespace griffin::sim
