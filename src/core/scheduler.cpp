#include "core/scheduler.h"

#include <algorithm>
#include <cassert>
#include <cmath>

#include "core/rows.h"
#include "cpu/simd_cost.h"
#include "cpu/svs_step.h"
#include "gpu/engine.h"

namespace griffin::core {

namespace {

/// GPU decode penalty per posting (ns) on top of the memory-traffic term:
/// zero for EF's fully lane-parallel kernel, small for PForDelta's serial
/// exception walk, and large for the codecs gpu/decode.h can only run on
/// lane 0 (the rest of the warp idles).
double gpu_decode_penalty_ns(codec::Scheme s) {
  switch (s) {
    case codec::Scheme::kEliasFano:
      return 0.0;
    case codec::Scheme::kPForDelta:
      return 0.05;
    case codec::Scheme::kSimple16:
      return 0.8;
    case codec::Scheme::kVarByte:
      return 1.5;
  }
  return 0.0;
}

/// Hand-fit like the penalty above: roughly five kernel launches per GPU
/// step on either path, and the merge path's decode + merge traffic.
constexpr double kLaunchesPerStep = 5.0;
constexpr double kMergeBytesPerPosting = 12.0;

/// The split alpha grid: 1/32 granularity, endpoints excluded (degenerate
/// splits are the single-processor decisions). Coarse enough to stay cheap,
/// fine enough that max(two near-linear legs) sits within a few percent of
/// its continuous optimum.
constexpr int kAlphaGridSteps = 32;

/// kRatioThreshold multiplier when the long list is device-resident or
/// already prefetched: the GPU owes no (visible) transfer for it, so the
/// crossover rises.
constexpr double kResidentRatioBoost = 4.0;
/// kRatioThreshold multiplier when the long list is host-decoded.
constexpr double kHostDecodedRatioScale = 0.5;
/// Half-width (multiplicative) of the ratio-policy split band
/// [threshold / kSplitBand, threshold * kSplitBand).
constexpr double kSplitBand = 4.0;
/// Never split a probe side smaller than this: the GPU leg's fixed costs
/// (kernel launches, probe H2D, partial D2H) need work to amortize over.
constexpr std::uint64_t kSplitMinProbe = 4096;

}  // namespace

std::uint64_t split_share(double alpha, std::uint64_t n) {
  const auto g = static_cast<std::uint64_t>(
      std::llround(std::clamp(alpha, 0.0, 1.0) * static_cast<double>(n)));
  return std::min(g, n);
}

Placement Scheduler::cost_decide(const StepShape& s, bool allow_split) const {
  const sim::Duration t_cpu = estimate_cpu(s);
  const sim::Duration t_gpu = estimate_gpu(s);
  const sim::Duration best = sim::min(t_cpu, t_gpu);
  if (allow_split && opt_.split && s.shorter >= kSplitMinProbe) {
    const auto [alpha, t_split] = best_split(s);
    (void)alpha;
    const double gate = (1.0 - kSplitMinGain) * static_cast<double>(best.ps());
    if (static_cast<double>(t_split.ps()) < gate) return Placement::kSplit;
  }
  return t_gpu < t_cpu ? Placement::kGpu : Placement::kCpu;
}

Placement Scheduler::decide(const StepShape& s) const {
  switch (opt_.policy) {
    case SchedulerPolicy::kAlwaysCpu:
      return Placement::kCpu;
    case SchedulerPolicy::kAlwaysGpu:
      return Placement::kGpu;
    case SchedulerPolicy::kAlwaysSplit:
      return s.shorter == 0 ? Placement::kCpu : Placement::kSplit;
    case SchedulerPolicy::kRatioThreshold: {
      if (s.shorter == 0) return Placement::kCpu;  // nothing left to do
      const double ratio = static_cast<double>(s.longer) /
                           static_cast<double>(s.shorter);
      // Residency-adjusted crossover: a device-resident long list removes
      // the GPU's transfer cost (raises λ), a host-decoded one removes the
      // CPU's decode cost (lowers λ). Cold caches leave λ at the paper's.
      double threshold = opt_.ratio_threshold;
      // A vectorized CPU cheapens the skip path the same way at every λ, so
      // the λ=128 balance point slides down by the SIMD-to-scalar cost
      // ratio (1.0 for a scalar CpuSpec).
      threshold *= cpu::simd::crossover_scale(hw_.cpu);
      // A prefetched list's H2D is already paid (and hidden on the copy
      // engine), so the GPU side looks like the resident case.
      if (s.longer_device_resident || s.longer_prefetched) {
        threshold *= kResidentRatioBoost;
      }
      if (s.longer_host_decoded) threshold *= kHostDecodedRatioScale;
      // Co-execution (DESIGN.md §15): near the crossover both processors
      // finish in comparable time, which is exactly where splitting one
      // step across both beats either alone. The binary rule generalizes
      // into the band [threshold/kSplitBand, threshold*kSplitBand): inside
      // it the decision falls through to the three-way cost comparison;
      // outside it one processor dominates and the ratio rule stands.
      if (opt_.split && s.shorter >= kSplitMinProbe &&
          ratio >= threshold / kSplitBand && ratio < threshold * kSplitBand) {
        return cost_decide(s, /*allow_split=*/true);
      }
      return ratio < threshold ? Placement::kGpu : Placement::kCpu;
    }
    case SchedulerPolicy::kCostModel:
      if (s.shorter == 0) return Placement::kCpu;
      return cost_decide(s, /*allow_split=*/true);
  }
  return Placement::kCpu;
}

double Scheduler::split_alpha(const StepShape& s) const {
  return best_split(s).first;
}

std::pair<double, sim::Duration> Scheduler::best_split(
    const StepShape& s) const {
  if (opt_.forced_split_alpha >= 0.0) {
    const double a = std::min(opt_.forced_split_alpha, 1.0);
    return {a, estimate_split(s, a)};
  }
  double best_a = 1.0 / kAlphaGridSteps;
  sim::Duration best_t = estimate_split(s, best_a);
  for (int i = 2; i < kAlphaGridSteps; ++i) {
    const double a = static_cast<double>(i) / kAlphaGridSteps;
    const sim::Duration t = estimate_split(s, a);
    if (t < best_t) {
      best_t = t;
      best_a = a;
    }
  }
  return {best_a, best_t};
}

sim::Duration Scheduler::rows_xfer(std::uint64_t n,
                                   std::uint32_t terms) const {
  return link_.transfer_time(static_cast<double>(Rows::bytes(n, terms)));
}

sim::Duration Scheduler::estimate_cpu(const StepShape& s) const {
  // The estimate prices each term per element of the LoopCost entries the
  // engine charges (cpu/simd_cost.h), so the decision model and the charges
  // read one cost. With the vector unit off every entry prices at its
  // scalar CpuSpec knob and this reduces to the pre-SIMD estimate exactly.
  const sim::CpuSpec& c = hw_.cpu;
  const double ns = static_cast<double>(s.shorter);
  const double nl = static_cast<double>(s.longer);
  double cycles;
  if (s.shorter == 0) return sim::Duration();
  const double ratio = nl / ns;
  const double decode = cpu::simd::per_element(
      c, cpu::simd::decode_cost(c, s.longer_scheme));
  if (ratio >= cpu::kDefaultSkipRatio) {
    // Skip-pointer probing: log-time skip search per probe plus a full
    // block decode per distinct touched block (the paper-faithful CPU
    // baseline — see cpu/intersect.h). A host-decoded target skips the
    // block decodes: probes binary-search the cached decoded array directly.
    const double probes = ns;
    // Skip-table search over the blocks, then the in-block search.
    const double nblocks = nl / codec::kBlockSize;
    const double steps =
        std::log2(std::max(nblocks, 2.0)) + codec::kBlockSizeLog2;
    const double touched =
        nblocks * (1.0 - std::exp(-probes / std::max(nblocks, 1.0)));
    cycles = probes * cpu::simd::effective_probe_search_cycles(c, steps);
    if (!s.longer_host_decoded) cycles += touched * codec::kBlockSize * decode;
  } else {
    // Full decode + merge; a host-decoded long list merges without decode.
    cycles = (ns + nl) * cpu::simd::per_element(c, cpu::simd::merge_cost(c));
    if (!s.longer_host_decoded) cycles += nl * decode;
  }
  sim::Duration t = sim::Duration::from_cycles(cycles, c.clock_ghz);
  // Migration: intermediate currently on the GPU must come back first.
  if (s.current_location == Placement::kGpu) t += rows_xfer(s.shorter, s.terms);
  return t;
}

sim::Duration Scheduler::selective_gpu_time(double ns,
                                            const StepShape& s) const {
  const auto& g = hw_.gpu;
  const double nl = static_cast<double>(s.longer);
  // The engines run on a warm device-memory pool, so no allocation charges.
  sim::Duration t =
      sim::Duration::from_us(kLaunchesPerStep * g.kernel_launch_us);
  const bool resident = s.longer_device_resident || s.longer_prefetched;
  // Only candidate blocks move and decode; the transfer term uses the
  // list's actual compressed density. The planner always fills
  // longer_bytes from the list's real compressed size — a guessed density
  // here would silently skew every crossover downstream.
  const double blocks = std::min(ns, nl / codec::kBlockSize);
  assert(s.longer == 0 || s.longer_bytes > 0);
  const double bpe = static_cast<double>(s.longer_bytes) / std::max(nl, 1.0);
  if (!resident) t += link_.transfer_time(blocks * codec::kBlockSize * bpe);
  // Each skip-table search level is one memory transaction per probe.
  t += sim::Duration::from_ns(
      ns * std::log2(std::max(nl / codec::kBlockSize, 2.0)) *
      static_cast<double>(g.mem_transaction_bytes) / g.mem_bandwidth_gbps);
  t += sim::Duration::from_ns(blocks * codec::kBlockSize *
                              gpu_decode_penalty_ns(s.longer_scheme));
  return t;
}

sim::Duration Scheduler::estimate_gpu(const StepShape& s) const {
  const auto& g = hw_.gpu;
  const double ns = static_cast<double>(s.shorter);
  const double nl = static_cast<double>(s.longer);
  if (s.shorter == 0) return sim::Duration();
  const double ratio = nl / ns;

  sim::Duration t;
  if (ratio < gpu::kPathRatio) {
    t = sim::Duration::from_us(kLaunchesPerStep * g.kernel_launch_us);
    // A device-resident long list (gpu/list_cache.h) skips the PCIe
    // transfer terms entirely — §2.3's overhead is exactly what the cache
    // removes. A prefetched one (DESIGN.md §10) already paid them on the
    // copy engine.
    const bool resident = s.longer_device_resident || s.longer_prefetched;
    // Transfer the compressed long list, decode everything, merge. With
    // double buffering the H2D streams under the decode, so the two terms
    // cost their max, not their sum.
    sim::Duration xfer;
    if (!resident) {
      xfer = link_.transfer_time(static_cast<double>(s.longer_bytes));
    }
    const double touched_bytes = (ns + nl) * kMergeBytesPerPosting;
    const sim::Duration mem =
        sim::Duration::from_ns(touched_bytes / g.mem_bandwidth_gbps);
    t += sim::max(xfer, mem);
    t += sim::Duration::from_ns(nl * gpu_decode_penalty_ns(s.longer_scheme));
  } else {
    t = selective_gpu_time(ns, s);
  }
  // Migration: intermediate currently on the CPU must be shipped over.
  if (s.current_location == Placement::kCpu) t += rows_xfer(s.shorter, s.terms);
  return t;
}

sim::Duration Scheduler::estimate_split(const StepShape& s,
                                        double alpha) const {
  if (s.shorter == 0) return sim::Duration();
  const std::uint64_t n_gpu = split_share(alpha, s.shorter);
  const std::uint64_t n_cpu = s.shorter - n_gpu;

  // CPU leg: the (1-alpha) low range through the same closed form as a
  // whole CPU step of that size — the leg's own ratio picks its skip/merge
  // regime, matching SvsStepper::partial_step. Only the leg's own share of
  // the intermediate migrates back when it lives on the device.
  sim::Duration cpu_leg;
  if (n_cpu > 0) {
    StepShape cs = s;
    cs.shorter = n_cpu;
    cs.current_location = Placement::kCpu;  // migration priced here, not there
    cpu_leg = estimate_cpu(cs);
    if (s.current_location == Placement::kGpu) {
      cpu_leg += rows_xfer(n_cpu, s.terms);
    }
  }

  // GPU leg: the alpha high range always runs the selective binary-search
  // path (the only kernel the split executes), pays the probe H2D when the
  // probes start host-side, and always pays the D2H of its partial: the
  // probes' expected matches, one column wider.
  sim::Duration gpu_leg;
  if (n_gpu > 0) {
    StepShape gs = s;
    gs.shorter = n_gpu;
    gs.current_location = Placement::kGpu;
    gpu_leg = selective_gpu_time(static_cast<double>(n_gpu), gs);
    if (s.current_location != Placement::kGpu) {
      gpu_leg += rows_xfer(n_gpu, s.terms);
    }
    const double hit = std::clamp(s.longer_density, 0.0, 1.0);
    const auto matches = static_cast<std::uint64_t>(
        std::llround(hit * static_cast<double>(n_gpu)));
    gpu_leg += rows_xfer(matches, s.terms + 1);
  }

  // The legs run concurrently on the timeline: the step costs their max.
  return sim::max(cpu_leg, gpu_leg);
}

sim::Duration Scheduler::estimate_host_decode(std::uint64_t n,
                                              codec::Scheme sc) const {
  // Mirrors decode_all's full charge, not just the per-element decode: the
  // materialization surcharge dominates a full-list decode (24 scalar
  // cycles/element vs ~2 for the decode itself), and the output writes hit
  // the memory-bandwidth roofline of the accumulator decode_all charges.
  // Underpricing here would stage decodes that blow past the device step
  // they were meant to hide under.
  const sim::CpuSpec& c = hw_.cpu;
  sim::CpuCostAccumulator acc(c);
  acc.add_cycles(static_cast<double>(n) *
                 (cpu::simd::per_element(c, cpu::simd::decode_cost(c, sc)) +
                  cpu::simd::per_element(c, cpu::simd::materialize_cost(c))));
  acc.add_bytes(n * sizeof(codec::DocId));
  return acc.time();
}

}  // namespace griffin::core
