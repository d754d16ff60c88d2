// Options of the CPU side of an engine stack: the SvS stepper's merge/skip
// crossover and the host decoded-postings cache. The CPU-only engine
// itself, cpu::CpuEngine, is the hybrid engine pinned to the CPU
// (kAlwaysCpu) and is declared next to it in core/hybrid_engine.h
// (DESIGN.md §8).
#pragma once

#include <cstddef>

#include "cpu/bm25.h"
#include "cpu/svs_step.h"

namespace griffin::cpu {

struct CpuEngineOptions {
  /// Use skip_intersect when |longer| / |shorter| >= this; merge otherwise.
  double skip_ratio = kDefaultSkipRatio;
  /// Host-memory budget for the decoded-postings cache
  /// (cpu/decoded_cache.h); 0 disables it.
  std::size_t decoded_cache_bytes = std::size_t{1} << 30;
};

}  // namespace griffin::cpu
