// Hardware parameters for the simulated testbed. The defaults reproduce the
// paper's evaluation platform (§4.1): a 4-core Intel Xeon E5-2609v2 at
// 2.5 GHz with DDR3-1600, and an NVIDIA Tesla K20 (13 SMX, 2496 CUDA cores at
// 706 MHz, 5 GB GDDR5 at 208 GB/s) attached over PCIe 2.0 x16 (8 GB/s).
//
// Every cost the engines charge is derived from these numbers — nothing about
// the paper's *results* (speedups, the ratio-128 crossover, tail behaviour)
// is encoded here, only the machine.
#pragma once

#include <cstddef>
#include <cstdint>

namespace griffin::sim {

/// Vector-unit parameters for the SIMD execution mode (DESIGN.md §13).
/// When `enabled`, the CPU cost layer charges vectorized loops by
/// ceil(n/lanes) vector iterations (cpu/simd_cost.h — the CPU mirror of
/// simt/'s warp accounting) instead of per-element scalar costs. Results
/// are bit-identical either way; only the charged cycles move.
struct CpuVectorSpec {
  bool enabled = false;
  /// Vector width in 32-bit elements (SSE = 4, AVX2 = 8).
  int lanes = 4;
  /// Cycles per vector ALU issue (shift/and/add/compare), throughput-
  /// normalized: 1.0 = one vector op per cycle, 0.5 = two issue ports.
  double vector_op_cycles = 1.0;
  /// Cycles per byte-shuffle / permute issue (pshufb and friends). Kept
  /// separate from plain ALU ops because shuffle-based merge and the
  /// bit-unpack networks are shuffle-port-bound on real cores.
  double shuffle_cycles = 1.0;
  /// Fixed cycles to enter one vectorized loop (masks, alignment, loads of
  /// the shift/shuffle constants) — charged once per loop.
  double block_setup_cycles = 8.0;
  /// Extra cycles per element of a loop's scalar tail (n % lanes leftovers
  /// handled by a masked final iteration).
  double scalar_tail_cycles = 2.0;
  /// Preset label for benches/JSON ("scalar" when !enabled).
  const char* name = "scalar";
};

struct CpuSpec {
  double clock_ghz = 2.5;
  /// Roofline bandwidth term for the CPU cost model: the sustainable
  /// *per-core stream* rate, set to the DDR3-1600 single-channel peak.
  /// This is a calibration choice, not a claim about channel wiring — the
  /// engines model one core, and one Ivy Bridge core's sustained load
  /// stream saturates near one channel's rate, which is what pins the
  /// bandwidth legs of Figures 12/13 (see EXPERIMENTS.md "Calibration").
  double mem_bandwidth_gbps = 12.8;
  /// Vector unit (disabled by default: the scalar paper baseline).
  CpuVectorSpec vector;

  // Per-operation costs in core cycles, calibrated so that the CPU
  // baseline's absolute times land near the paper's measured Figures 12/13
  // (see EXPERIMENTS.md "Calibration"). Block decodes that stay in cache
  // (the intersection path) are cheap; fully materializing a decompressed
  // list (the decompression microbenchmark path) pays a per-element
  // surcharge plus the output-write bandwidth.
  /// Compare + advance in a 2-way merge over freshly decoded blocks,
  /// including the branch mix and output writes. Calibrated to Figure 13's
  /// measured CPU merge (hundreds of ms at 10M elements).
  double merge_step_cycles = 25.0;
  double branch_miss_cycles = 16.0;     ///< mispredicted data-dependent branch
  double pfor_decode_cycles = 2.5;      ///< per element, cache-hot block
  double pfor_exception_cycles = 7.0;   ///< per exception (patch chain step)
  double ef_decode_cycles = 3.0;        ///< per element, cache-hot block
  double decode_materialize_cycles = 24.0;  ///< extra per element, decode_all
  double score_cycles = 15.0;           ///< BM25 of one (doc, term) pair
  double heap_step_cycles = 3.5;        ///< one partial_sort compare+sift step

  /// The paper's Xeon E5-2609v2 with its integer SIMD unit switched on:
  /// Ivy Bridge executes integer vector ops at 128 bits (SSE4.2), one
  /// ALU-port issue per cycle. Same core model as the scalar default — only
  /// the vector parameters differ, so any crossover shift is attributable
  /// to the lanes alone.
  static CpuSpec sse4_testbed() {
    CpuSpec s;
    s.vector = CpuVectorSpec{/*enabled=*/true, /*lanes=*/4,
                             /*vector_op_cycles=*/1.0, /*shuffle_cycles=*/1.0,
                             /*block_setup_cycles=*/8.0,
                             /*scalar_tail_cycles=*/2.0, "sse4"};
    return s;
  }

  /// A modern AVX2 profile (Haswell-and-later integer SIMD): 256-bit
  /// integer vectors, two vector-ALU issue ports, one shuffle port (so
  /// cross-lane permutes don't get the 2x issue win).
  /// Clock and memory bandwidth are deliberately pinned to the testbed's —
  /// the preset isolates the vector-width effect on the §3.2 crossover
  /// (EXPERIMENTS.md "Calibration" records the parameter choices).
  static CpuSpec modern_avx2() {
    CpuSpec s;
    s.vector = CpuVectorSpec{/*enabled=*/true, /*lanes=*/8,
                             /*vector_op_cycles=*/0.5, /*shuffle_cycles=*/1.0,
                             /*block_setup_cycles=*/6.0,
                             /*scalar_tail_cycles=*/2.0, "avx2"};
    return s;
  }
};

struct GpuSpec {
  int sm_count = 13;                   ///< K20 SMX units
  /// Warp-instruction execution slots chip-wide per cycle: each SMX has 192
  /// cores = 6 warp-widths.
  int warp_slots_per_cycle = 13 * 6;
  int max_resident_warps_per_sm = 64;
  int max_threads_per_block = 1024;
  std::size_t shared_mem_per_block = 48 * 1024;
  double core_clock_ghz = 0.706;
  double mem_bandwidth_gbps = 208.0;
  double mem_latency_ns = 400.0;       ///< uncontended global-memory latency
  double kernel_launch_us = 10.0;      ///< driver + dispatch overhead (CUDA 7)
  double barrier_cycles = 40.0;        ///< block-wide __syncthreads cost
  std::size_t mem_transaction_bytes = 128;
};

struct PcieSpec {
  double bandwidth_gbps = 8.0;         ///< PCIe 2.0 x16 effective
  double latency_us = 8.0;             ///< DMA setup + completion per transfer
  double alloc_us = 50.0;              ///< cudaMalloc-equivalent, per call
  std::size_t device_mem_bytes = 5ull * 1024 * 1024 * 1024;
};

struct HardwareSpec {
  CpuSpec cpu;
  GpuSpec gpu;
  PcieSpec pcie;

  /// Cost of discovering a query term is absent from a shard's dictionary
  /// (one hash probe + the short-circuit reply; cluster/shard_node.h's
  /// fast path). A cluster-serving cost assumption, so it lives with the
  /// rest of the machine model rather than as a constant in the shard code.
  double absent_term_probe_us = 2.0;
};

}  // namespace griffin::sim
