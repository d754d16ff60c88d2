// Extension bench — copy/compute overlap (DESIGN.md §10). Two sweeps:
//
//   1. Chunk-size x list-length grid on pair micro-indexes in the MergePath
//      regime (full decode of the longer list, so the payload H2D dominates):
//      per-query critical path vs serial stage sum as the double-buffer
//      chunk size varies. Too-small chunks drown in per-chunk kernel-launch
//      overhead — the serial cost inflates faster than the pipeline hides
//      copies — so the sweep exposes the tradeoff GpuOptions::copy_chunk_bytes
//      defaults around.
//
//   2. Prefetch on/off x double-buffer on/off on the paper corpus with the
//      hybrid engine: end-to-end latency, time saved by overlap, copy-engine
//      utilization, and the prefetch issue/use/drop counters.
//
// Emits BENCH_overlap.json under GRIFFIN_BENCH_JSON_DIR.
#include <cstdio>
#include <vector>

#include "bench_common.h"
#include "core/hybrid_engine.h"
#include "util/stats.h"

using namespace griffin;

namespace {

const char* chunk_label(std::size_t bytes, char* buf, std::size_t n) {
  if (bytes == 0) {
    std::snprintf(buf, n, "off");
  } else {
    std::snprintf(buf, n, "%zuKiB", bytes >> 10);
  }
  return buf;
}

}  // namespace

int main() {
  bench::print_header(
      "Extension: copy/compute overlap — double buffering and prefetch",
      "stream pipelining hides PCIe under Para-EF; gains bound by the "
      "shorter of copy and compute");

  // ---- Sweep 1: chunk size x list length (GPU engine, MergePath regime) --
  util::Xoshiro256 rng(909);
  const index::DocId universe = 48'000'000;
  const std::vector<std::uint64_t> lengths =
      bench::fast_mode() ? std::vector<std::uint64_t>{100'000, 400'000}
                         : std::vector<std::uint64_t>{100'000, 400'000,
                                                      1'600'000};
  const std::vector<std::size_t> chunks = {0,
                                           std::size_t{64} << 10,
                                           std::size_t{256} << 10,
                                           std::size_t{1} << 20,
                                           std::size_t{4} << 20};

  std::printf("\nDouble-buffer chunk sweep (ratio 4, full-decode path; ms "
              "per query)\n");
  std::printf("%-10s %10s %10s %10s %8s %8s\n", "longer", "chunk", "serial",
              "critical", "saved", "h2d util");
  bench::Json grid = bench::Json::array();
  for (const std::uint64_t len : lengths) {
    const auto pair = workload::make_pair_with_ratio(len, 4.0, universe,
                                                     0.4, rng);
    const auto idx =
        bench::pair_index(pair, universe, codec::Scheme::kEliasFano);
    core::Query q;
    q.terms = {0, 1, 2};
    q.k = 10;
    for (const std::size_t chunk : chunks) {
      gpu::GpuOptions gopt;
      gopt.pooled_memory = false;
      gopt.list_cache_bytes = 0;  // fresh uploads: the overlap-relevant case
      gopt.copy_chunk_bytes = chunk;
      gpu::GpuEngine engine(idx, {}, gopt);
      const auto res = engine.execute(q);
      const auto& m = res.metrics;
      const double serial_ms = (m.total + m.overlap.saved).ms();
      const double critical_ms = m.total.ms();
      const double h2d_util =
          m.total.ps() > 0 ? double(m.overlap.h2d_busy.ps()) /
                                 double(m.total.ps())
                           : 0.0;
      char cl[24];
      std::printf("%-10llu %10s %10.3f %10.3f %7.1f%% %7.1f%%\n",
                  static_cast<unsigned long long>(len),
                  chunk_label(chunk, cl, sizeof(cl)), serial_ms, critical_ms,
                  serial_ms > 0.0
                      ? 100.0 * (serial_ms - critical_ms) / serial_ms
                      : 0.0,
                  100.0 * h2d_util);

      bench::Json row = bench::Json::object();
      row["longer_len"] = len;
      row["chunk_bytes"] = static_cast<std::uint64_t>(chunk);
      row["serial_ms"] = serial_ms;
      row["critical_ms"] = critical_ms;
      row["saved_ms"] = serial_ms - critical_ms;
      row["h2d_utilization"] = h2d_util;
      row["gpu_kernels"] = m.gpu_kernels;
      grid.push_back(std::move(row));
    }
  }

  // ---- Sweep 2: prefetch x double buffering on the paper corpus ----
  const auto cfg = bench::paper_corpus_config();
  std::fprintf(stderr, "[overlap] building/loading corpus...\n");
  const auto idx = bench::cached_corpus(cfg);
  auto qcfg = bench::paper_query_config(200, cfg);
  const auto log = workload::generate_query_log(qcfg, cfg.num_terms);

  std::printf("\nHybrid engine on the paper corpus (%zu queries; ms per "
              "query)\n",
              log.size());
  std::printf("%-22s %10s %10s %8s %8s %18s\n", "config", "serial",
              "critical", "saved", "h2d util", "prefetch i/u/d");
  bench::Json configs = bench::Json::array();
  double base_ms = -1.0, full_ms = -1.0;
  for (const bool prefetch : {false, true}) {
    for (const bool dbuf : {false, true}) {
      core::HybridOptions opt;
      opt.scheduler.prefetch = prefetch;
      if (!dbuf) opt.gpu.copy_chunk_bytes = 0;
      core::HybridEngine engine(idx, {}, opt);
      double serial_ms = 0.0, critical_ms = 0.0;
      core::OverlapCounters overlap;
      for (const auto& q : log) {
        const auto res = engine.execute(q);
        const auto& m = res.metrics;
        serial_ms += (m.total + m.overlap.saved).ms();
        critical_ms += m.total.ms();
        overlap += m.overlap;
      }
      const auto n = static_cast<double>(log.size());
      serial_ms /= n;
      critical_ms /= n;
      const double h2d_util =
          critical_ms > 0.0 ? overlap.h2d_busy.ms() / n / critical_ms : 0.0;
      char label[32];
      std::snprintf(label, sizeof(label), "prefetch=%d dbuffer=%d",
                    prefetch ? 1 : 0, dbuf ? 1 : 0);
      if (!prefetch && !dbuf) base_ms = critical_ms;
      if (prefetch && dbuf) full_ms = critical_ms;
      std::printf("%-22s %10.3f %10.3f %7.1f%% %7.1f%% %10llu/%llu/%llu\n",
                  label, serial_ms, critical_ms,
                  serial_ms > 0.0
                      ? 100.0 * (serial_ms - critical_ms) / serial_ms
                      : 0.0,
                  100.0 * h2d_util,
                  static_cast<unsigned long long>(overlap.prefetch_issued),
                  static_cast<unsigned long long>(overlap.prefetch_used),
                  static_cast<unsigned long long>(overlap.prefetch_dropped));

      // Per-resource busy fractions over the run's summed critical path:
      // the single-tenant baseline the multi_tenant bench compares against.
      std::array<double, sim::kNumResources> util{};
      if (critical_ms > 0.0) {
        for (std::size_t r = 0; r < sim::kNumResources; ++r) {
          util[r] =
              overlap.busy(static_cast<sim::Resource>(r)).ms() /
              (critical_ms * n);
        }
      }

      bench::Json row = bench::Json::object();
      row["prefetch"] = prefetch;
      row["double_buffer"] = dbuf;
      row["serial_ms"] = serial_ms;
      row["critical_ms"] = critical_ms;
      row["saved_ms"] = serial_ms - critical_ms;
      row["h2d_utilization"] = h2d_util;
      row["resource_utilization"] = bench::resource_utilization_json(util);
      row["overlap"] = bench::counters_json(overlap);
      configs.push_back(std::move(row));
    }
  }
  if (base_ms > 0.0 && full_ms > 0.0) {
    std::printf("\nOverlap speedup (both mechanisms vs neither): %.2fx\n",
                base_ms / full_ms);
  }

  bench::Json root = bench::Json::object();
  root["bench"] = "overlap";
  root["fast_mode"] = bench::fast_mode();
  root["chunk_sweep"] = std::move(grid);
  root["paper_corpus_configs"] = std::move(configs);
  if (base_ms > 0.0 && full_ms > 0.0) {
    root["overlap_speedup"] = base_ms / full_ms;
  }
  bench::write_bench_json("overlap", root);
  return 0;
}
