#include "core/scheduler.h"

#include <algorithm>
#include <cassert>
#include <cmath>

#include "cpu/simd_cost.h"
#include "cpu/svs_step.h"
#include "gpu/engine.h"
#include "util/bits.h"

namespace griffin::core {

namespace {

/// GPU decode penalty per posting (ns) on top of the memory-traffic term:
/// zero for the codecs with fully lane-parallel kernels, small for
/// PForDelta's serial exception walk, and large for the codecs gpu/decode.h
/// can only run on lane 0 (the rest of the warp idles) or that chase
/// grammar pointers divergently (Re-Pair).
double gpu_decode_penalty_ns(codec::Scheme s) {
  switch (s) {
    case codec::Scheme::kEliasFano:
    case codec::Scheme::kBitPack128:
      return 0.0;
    case codec::Scheme::kPForDelta:
      return 0.05;
    case codec::Scheme::kRePair:
      return 1.2;
    case codec::Scheme::kSimple16:
      return 0.8;
    case codec::Scheme::kVarByte:
      return 1.5;
  }
  return 0.0;
}

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
      if (opt_.residency_aware) {
        // A prefetched list's H2D is already paid (and hidden on the copy
        // engine), so the GPU side looks like the resident case.
        if (s.longer_device_resident || s.longer_prefetched) {
          threshold *= kResidentRatioBoost;
        }
        if (s.longer_host_decoded) threshold *= kHostDecodedRatioScale;
      }
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
  if (opt_.forced_split_alpha >= 0.0) {
    return std::min(opt_.forced_split_alpha, 1.0);
  }
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

sim::Duration Scheduler::estimate_cpu(const StepShape& s) const {
  // The estimate prices each term through cpu/simd_cost.h's effective_*
  // helpers — the same closed forms the engine charges through — so the
  // decision model and the charges can never disagree. With the vector
  // unit off every helper returns the scalar CpuSpec knob and this reduces
  // to the pre-SIMD estimate exactly.
  const sim::CpuSpec& c = hw_.cpu;
  const double ns = static_cast<double>(s.shorter);
  const double nl = static_cast<double>(s.longer);
  double cycles;
  if (s.shorter == 0) return sim::Duration();
  const double ratio = nl / ns;
  const bool host_decoded = opt_.residency_aware && s.longer_host_decoded;
  if (ratio >= cpu::kDefaultSkipRatio) {
    // Skip-pointer probing: log-time skip search per probe plus a full
    // block decode per distinct touched block (the paper-faithful CPU
    // baseline — see cpu/intersect.h). A host-decoded target skips the
    // block decodes: probes binary-search the cached decoded array directly.
    const double probes = ns;
    const double steps = std::log2(std::max(nl / 128.0, 2.0)) + 7.0;
    const double nblocks = nl / 128.0;
    const double touched =
        nblocks * (1.0 - std::exp(-probes / std::max(nblocks, 1.0)));
    cycles = probes * cpu::simd::effective_probe_search_cycles(c, steps);
    if (!host_decoded) {
      cycles += touched * 128.0 *
                cpu::simd::effective_decode_cycles(c, s.longer_scheme);
    }
  } else {
    // Full decode + merge; a host-decoded long list merges without decode.
    cycles = (ns + nl) * cpu::simd::effective_merge_step_cycles(c);
    if (!host_decoded) {
      cycles += nl * cpu::simd::effective_decode_cycles(c, s.longer_scheme);
    }
  }
  sim::Duration t = sim::Duration::from_cycles(cycles, c.clock_ghz);
  // Migration: intermediate currently on the GPU must come back first.
  if (s.current_location == Placement::kGpu) {
    t += sim::Duration::from_us(hw_.pcie.latency_us) +
         sim::Duration::from_ns(ns * 4.0 / hw_.pcie.bandwidth_gbps);
  }
  return t;
}

sim::Duration Scheduler::selective_gpu_time(double ns,
                                            const StepShape& s) const {
  const auto& g = hw_.gpu;
  const double nl = static_cast<double>(s.longer);
  // Roughly five launches per step (search + decode + search + compact);
  // the engines run on a warm device-memory pool, so no allocation charges.
  sim::Duration t = sim::Duration::from_us(5.0 * g.kernel_launch_us);
  const bool resident = opt_.residency_aware &&
                        (s.longer_device_resident || s.longer_prefetched);
  // Only candidate blocks move and decode; the transfer term uses the
  // list's actual compressed density. The planner always fills
  // longer_bytes from the list's real compressed size — a guessed density
  // here would silently skew every crossover downstream.
  const double blocks = std::min(ns, nl / 128.0);
  assert(s.longer == 0 || s.longer_bytes > 0);
  const double bpe = static_cast<double>(s.longer_bytes) / std::max(nl, 1.0);
  if (!resident) {
    t += sim::Duration::from_us(hw_.pcie.latency_us) +
         sim::Duration::from_ns(blocks * 128.0 * bpe /
                                hw_.pcie.bandwidth_gbps);
  }
  t += sim::Duration::from_ns(ns * std::log2(std::max(nl / 128.0, 2.0)) *
                              128.0 / g.mem_bandwidth_gbps);
  t += sim::Duration::from_ns(blocks * 128.0 *
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
    // Roughly five launches per step (decode + partition + merge + compact).
    t = sim::Duration::from_us(5.0 * g.kernel_launch_us);
    // A device-resident long list (gpu/list_cache.h) skips the PCIe
    // transfer terms entirely — §2.3's overhead is exactly what the cache
    // removes. A prefetched one (DESIGN.md §10) already paid them on the
    // copy engine.
    const bool resident = opt_.residency_aware &&
                          (s.longer_device_resident || s.longer_prefetched);
    // Transfer the compressed long list, decode everything, merge. With
    // double buffering the H2D streams under the decode, so the two terms
    // cost their max, not their sum.
    sim::Duration xfer;
    if (!resident) {
      xfer = sim::Duration::from_us(hw_.pcie.latency_us) +
             sim::Duration::from_ns(static_cast<double>(s.longer_bytes) /
                                    hw_.pcie.bandwidth_gbps);
    }
    const double touched_bytes = (ns + nl) * 12.0;  // decode + merge traffic
    const sim::Duration mem =
        sim::Duration::from_ns(touched_bytes / g.mem_bandwidth_gbps);
    t += sim::max(xfer, mem);
    t += sim::Duration::from_ns(nl * gpu_decode_penalty_ns(s.longer_scheme));
  } else {
    t = selective_gpu_time(ns, s);
  }
  // Migration: intermediate currently on the CPU must be shipped over.
  if (s.current_location == Placement::kCpu) {
    t += sim::Duration::from_us(hw_.pcie.latency_us) +
         sim::Duration::from_ns(ns * 4.0 / hw_.pcie.bandwidth_gbps);
  }
  return t;
}

sim::Duration Scheduler::estimate_split(const StepShape& s,
                                        double alpha) const {
  if (s.shorter == 0) return sim::Duration();
  const std::uint64_t n_gpu = split_share(alpha, s.shorter);
  const std::uint64_t n_cpu = s.shorter - n_gpu;
  const auto probe_xfer = [&](std::uint64_t n) {
    return sim::Duration::from_us(hw_.pcie.latency_us) +
           sim::Duration::from_ns(static_cast<double>(n) * 4.0 /
                                  hw_.pcie.bandwidth_gbps);
  };

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
    if (s.current_location == Placement::kGpu) cpu_leg += probe_xfer(n_cpu);
  }

  // GPU leg: the alpha high range always runs the selective binary-search
  // path (the only kernel the split executes), pays the probe H2D when the
  // probes start host-side, and always pays the D2H of its partial (bounded
  // by the probe count — every match is a probe).
  sim::Duration gpu_leg;
  if (n_gpu > 0) {
    StepShape gs = s;
    gs.shorter = n_gpu;
    gs.current_location = Placement::kGpu;
    gpu_leg = selective_gpu_time(static_cast<double>(n_gpu), gs);
    if (s.current_location != Placement::kGpu) gpu_leg += probe_xfer(n_gpu);
    gpu_leg += probe_xfer(n_gpu);
  }

  // The legs run concurrently on the timeline: the step costs their max.
  return sim::max(cpu_leg, gpu_leg);
}

sim::Duration Scheduler::estimate_host_decode(std::uint64_t n,
                                              codec::Scheme sc) const {
  // Mirrors decode_all's full charge, not just the per-element decode: the
  // materialization surcharge dominates a full-list decode (24 scalar
  // cycles/element vs ~2 for the decode itself), and the output writes hit
  // the memory-bandwidth roofline. Underpricing here would stage decodes
  // that blow past the device step they were meant to hide under.
  const sim::CpuSpec& c = hw_.cpu;
  const double cycles =
      static_cast<double>(n) * (cpu::simd::effective_decode_cycles(c, sc) +
                                cpu::simd::effective_materialize_cycles(c));
  const sim::Duration compute = sim::Duration::from_cycles(cycles, c.clock_ghz);
  const sim::Duration bw = sim::Duration::from_ns(
      static_cast<double>(n) * 4.0 / c.mem_bandwidth_gbps);
  return sim::max(compute, bw);
}

}  // namespace griffin::core
