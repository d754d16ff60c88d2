// Lane-accurate SIMD cost accounting for the CPU engine (DESIGN.md §13) —
// the CPU mirror of simt/'s warp accounting. Where the virtual GPU counts a
// warp's work as the max over its 32 lanes, this layer charges a vectorized
// CPU loop over n elements as exactly ceil(n/lanes) vector iterations plus a
// per-loop setup, with a masked final iteration absorbing the scalar tail.
// The functional decode/intersect code is untouched: SIMD mode moves only
// the charged cycles, never the produced docIDs (tests/test_simd_parity.cpp
// pins this).
//
// Each per-element loop the engines charge — a block decode per codec, the
// decode_all materialization and the merge step — is described once, as a
// LoopCost entry. charge() turns an entry into the exact charge for n
// elements (cpu/decode.cpp, cpu/intersect.cpp); per_element() turns the
// same entry into the per-element closed form the scheduler's estimates
// price with (core/scheduler.cpp). Neither side keeps its own copy of a
// cost. Searches are priced per probe, not per element (the end of this
// file).
//
// The per-iteration issue counts are *calibrated*, like the scalar knobs in
// sim::CpuSpec (EXPERIMENTS.md "Calibration"): they are chosen so the
// modeled speedups land inside the ranges Lemire, Boytsov & Kurz measured
// ("SIMD Compression and the Intersection of Sorted Integers", PAPERS.md) —
// 4-8x full-list decode (SIMD-BP128-style bit-unpacking with vectorized
// delta + streaming stores), 2-5x merge intersection (shuffle-based block
// merge), and a modest 1.3-1.8x on the branch-bound skip/gallop search
// (vector compare only replaces the last levels of each binary search).
#pragma once

#include <algorithm>
#include <cstdint>

#include "codec/block_codec.h"
#include "sim/cpu_cost_model.h"
#include "sim/hardware_spec.h"
#include "util/bits.h"

namespace griffin::cpu::simd {

// ---- Per-vector-iteration issue counts shared by several loops ----
// A "vector op" is an ALU-port issue (shift/and/or/add/min/max/compare), a
// "shuffle" a shuffle-port issue (pshufb/permute). Costs per issue come
// from sim::CpuVectorSpec.

/// SIMD-BP128-style bit-unpack of one vector of packed slots: shift, mask,
/// or-merge, plus the rolling carry between slot boundaries.
inline constexpr double kUnpackOps = 4.0;
/// Delta decoding: prefix-sum inside the vector (log-depth shifted adds)
/// plus the broadcast of the running base.
inline constexpr double kDeltaOps = 2.0;
inline constexpr double kDeltaShuffles = 2.0;
/// SIMD gallop/binary search: the last levels of each probe's binary search
/// are replaced by a branchless compare of one lanes-wide vector window...
inline constexpr double kSearchWindowOps = 2.0;      ///< cmp + movemask
inline constexpr double kSearchWindowShuffles = 1.0; ///< broadcast the key
/// ...which absorbs ceil(log2(lanes)) branchy levels per probe.
inline int search_levels_absorbed(const sim::CpuVectorSpec& v) {
  return static_cast<int>(
      util::ceil_log2(static_cast<std::uint32_t>(std::max(v.lanes, 2))));
}

inline bool enabled(const sim::CpuSpec& s) {
  return s.vector.enabled && s.vector.lanes > 1;
}

/// ceil(n / lanes): the vector iterations one loop over n elements charges.
inline std::uint64_t vector_iters(std::uint64_t n,
                                  const sim::CpuVectorSpec& v) {
  const auto lanes = static_cast<std::uint64_t>(v.lanes);
  return (n + lanes - 1) / lanes;
}

/// Cycles of one vector iteration issuing `ops` ALU ops and `shuffles`
/// shuffle ops.
inline double iter_cycles(const sim::CpuVectorSpec& v, double ops,
                          double shuffles) {
  return ops * v.vector_op_cycles + shuffles * v.shuffle_cycles;
}

/// Charges one vectorized loop over n elements at (`ops`, `shuffles`) issues
/// per vector iteration: block_setup + ceil(n/lanes) iterations + the masked
/// tail's per-element penalty. Updates the accumulator's lane counters; the
/// invariant tests assert vector_ops grows by exactly ceil(n/lanes).
inline void charge_loop(sim::CpuCostAccumulator& acc, std::uint64_t n,
                        double ops, double shuffles = 0.0) {
  if (n == 0) return;
  const sim::CpuVectorSpec& v = acc.spec().vector;
  const std::uint64_t iters = vector_iters(n, v);
  const std::uint64_t tail = n % static_cast<std::uint64_t>(v.lanes);
  const double cycles =
      v.block_setup_cycles +
      static_cast<double>(iters) * iter_cycles(v, ops, shuffles) +
      static_cast<double>(tail) * v.scalar_tail_cycles;
  acc.add_vector_loop(n, iters, cycles);
}

/// Charges the vector-window compares of `probes` SIMD-terminated searches
/// as one vectorized loop: one lanes-wide window (= one vector iteration)
/// per probe, all lanes examined, setup paid once for the batch.
inline void charge_probe_windows(sim::CpuCostAccumulator& acc,
                                 std::uint64_t probes) {
  if (probes == 0) return;
  const sim::CpuVectorSpec& v = acc.spec().vector;
  const double cycles =
      v.block_setup_cycles +
      static_cast<double>(probes) *
          iter_cycles(v, kSearchWindowOps, kSearchWindowShuffles);
  acc.add_vector_loop(probes * static_cast<std::uint64_t>(v.lanes), probes,
                      cycles);
}

// ---- The LoopCost table ----

/// One per-element CPU loop. Scalar mode pays `scalar` cycles per element.
/// In vector mode a loop that vectorizes pays `residue` scalar cycles per
/// element (the work its vector body cannot hide) plus one charge_loop at
/// (`ops`, `shuffles`) issues per vector iteration; one that does not
/// vectorize pays `scalar` in both modes.
struct LoopCost {
  double scalar = 0.0;
  bool vectorized = true;
  double ops = 0.0;
  double shuffles = 0.0;
  double residue = 0.0;
  /// Scalar mode pays only the count - 1 d-gap slots of a block (its first
  /// docID comes from the skip table's BlockMeta::first).
  bool gap_slots_only = false;
};

/// Cache-hot decode of one posting block of `scheme` (the intersection
/// path). PForDelta's exception patch chain is not in the entry: it stays a
/// per-exception scalar charge (cpu/decode.cpp).
inline LoopCost decode_cost(const sim::CpuSpec& s, codec::Scheme scheme) {
  switch (scheme) {
    case codec::Scheme::kPForDelta:
      // Slot unpack + vectorized delta prefix-sum.
      return {.scalar = s.pfor_decode_cycles,
              .ops = kUnpackOps + kDeltaOps,
              .shuffles = kDeltaShuffles,
              .gap_slots_only = true};
    case codec::Scheme::kVarByte:
      // Branchy byte loop scalar; masked-shuffle varint decode vectorized:
      // the length mask gathers into one lookup shuffle, and the residue
      // covers the control-byte bookkeeping.
      return {.scalar = 3.5, .ops = 2.0, .shuffles = 3.0, .residue = 1.0};
    case codec::Scheme::kSimple16:
      // Unpacks ~a word of values per selector-switch dispatch: very fast,
      // and not lane-parallel.
      return {.scalar = 1.8, .vectorized = false};
    case codec::Scheme::kEliasFano:
      break;
  }
  // Elias-Fano: the unary high-bits scan stays word-serial (popcount-guided,
  // not lane-parallel), a residue even in vector mode; the packed lower bits
  // unpack like a bit-packed slot and merge via the same prefix adds.
  return {.scalar = s.ef_decode_cycles,
          .ops = kUnpackOps + kDeltaOps,
          .shuffles = kDeltaShuffles,
          .residue = 1.0};
}

/// Full-list materialization surcharge of decode_all: the decoded array
/// leaves cache. Vectorized, the stores stream out ceil(n/lanes) at a time
/// (streaming store + address bookkeeping); the residue covers the block
/// loop control, skip-table reads and exception-patch branches that do not
/// vectorize.
inline LoopCost materialize_cost(const sim::CpuSpec& s) {
  return {.scalar = s.decode_materialize_cycles, .ops = 2.0, .residue = 2.0};
}

/// One two-pointer merge advance (compare + advance + conditional emit).
/// Vectorized, it is the shuffle-based block merge (Lemire et al. §5): per
/// vector iteration both frontier vectors load, run a compare/minmax
/// network whose depth scales with the vector width (1.5 ops and 1.25
/// shuffles per lane), and the matches compact through one lookup shuffle
/// (4 fixed ops: loads + movemask + store).
inline LoopCost merge_cost(const sim::CpuSpec& s) {
  const int lanes = s.vector.lanes;
  return {.scalar = s.merge_step_cycles,
          .ops = 1.5 * lanes + 4.0,
          .shuffles = 1.25 * lanes};
}

/// Charges `n` elements of loop `c` (scalar or vector per the accumulator's
/// spec).
inline void charge(sim::CpuCostAccumulator& acc, std::uint64_t n,
                   const LoopCost& c) {
  if (!enabled(acc.spec()) || !c.vectorized) {
    const std::uint64_t paid = c.gap_slots_only && n > 0 ? n - 1 : n;
    acc.add_cycles(static_cast<double>(paid) * c.scalar);
    return;
  }
  acc.add_cycles(c.residue * static_cast<double>(n));
  charge_loop(acc, n, c.ops, c.shuffles);
}

/// Cycles per element of loop `c` with setup and tail amortized away: the
/// closed form of charge() the scheduler prices with.
inline double per_element(const sim::CpuSpec& s, const LoopCost& c) {
  if (!enabled(s) || !c.vectorized) return c.scalar;
  return c.residue + iter_cycles(s.vector, c.ops, c.shuffles) / s.vector.lanes;
}

// ---- Search costs ----

/// Scalar binary-search level (cpu/intersect.cpp's charge_binary_steps):
/// cycles per level beyond the mispredict charge...
inline constexpr double kProbeCycles = 3.0;
/// ...for a data-dependent branch that mispredicts about half the time.
inline constexpr double kMissFraction = 0.5;

/// One branchy binary-search level (probe + data-dependent branch), scalar.
inline double scalar_search_step_cycles(const sim::CpuSpec& s) {
  return kProbeCycles + kMissFraction * s.branch_miss_cycles;
}

/// Skip/gallop search cost for one probe that walks `levels` binary-search
/// levels: SIMD replaces the last search_levels_absorbed() levels with one
/// branchless vector-window compare.
inline double effective_probe_search_cycles(const sim::CpuSpec& s,
                                            double levels) {
  const double scalar = levels * scalar_search_step_cycles(s);
  if (!enabled(s)) return scalar;
  const double absorbed =
      std::min(levels, static_cast<double>(search_levels_absorbed(s.vector)));
  return (levels - absorbed) * scalar_search_step_cycles(s) +
         iter_cycles(s.vector, kSearchWindowOps, kSearchWindowShuffles);
}

/// How far the §3.2 ratio crossover shifts when this CPU's vector unit is
/// on: the SIMD-to-scalar cost ratio of the skip path at the crossover
/// shape (λ = kBlockSize, where each probe touches a distinct block — one
/// block decode + one skip search per probe). The GPU side is unchanged and
/// its selective path also scales with the probe count there, so the
/// balance ratio λ* scales by this same factor (DESIGN.md §13 derives it).
/// Returns 1.0 for a scalar CPU; < 1 otherwise (a faster CPU claims more of
/// the ratio spectrum, so the GPU-favored band shrinks).
inline double crossover_scale(const sim::CpuSpec& s) {
  if (!enabled(s)) return 1.0;
  // The skip search and the in-block search, each log2(kBlockSize) deep.
  const double levels = 2.0 * codec::kBlockSizeLog2;
  const double block = codec::kBlockSize;
  const LoopCost ef = decode_cost(s, codec::Scheme::kEliasFano);
  const double scalar =
      block * ef.scalar + levels * scalar_search_step_cycles(s);
  const double simd =
      block * per_element(s, ef) + effective_probe_search_cycles(s, levels);
  return simd / scalar;
}

}  // namespace griffin::cpu::simd
