// Figure 15 — tail latency: per-query latency percentiles of the CPU-only
// engine vs Griffin over a query log. The paper reports speedups of 6.6x,
// 8.3x, 10.4x, 16.1x and 26.8x at the 80th/90th/95th/99th/99.9th
// percentiles: the long-tail queries are exactly the ones with long,
// balanced lists where the GPU's parallelism pays off most.
#include <cstdio>

#include "bench_common.h"
#include "core/hybrid_engine.h"
#include "util/stats.h"

using namespace griffin;

int main() {
  const auto cfg = bench::paper_corpus_config();
  std::fprintf(stderr, "[tail_latency] building/loading corpus...\n");
  const auto idx = bench::cached_corpus(cfg);

  bench::print_header(
      "Figure 15: Tail Latency Reduction with Griffin",
      "speedups 6.6x/8.3x/10.4x/16.1x/26.8x at p80/p90/p95/p99/p99.9");

  cpu::CpuEngine cpu_engine(idx);
  core::HybridEngine griffin(idx);

  auto qcfg = bench::paper_query_config(400, cfg);
  const auto log = workload::generate_query_log(qcfg, cfg.num_terms);

  util::PercentileTracker cpu_ms, grif_ms;
  cpu_ms.reserve(log.size());
  grif_ms.reserve(log.size());
  core::OverlapCounters grif_overlap;
  std::size_t done = 0;
  for (const auto& q : log) {
    cpu_ms.add(cpu_engine.execute(q).metrics.total.ms());
    const auto grif_res = griffin.execute(q);
    grif_ms.add(grif_res.metrics.total.ms());
    grif_overlap += grif_res.metrics.overlap;
    if (++done % 100 == 0) {
      std::fprintf(stderr, "[tail_latency] %zu/%zu queries\n", done,
                   log.size());
    }
  }

  std::printf("(%zu queries; p99.9 of small logs equals the max sample)\n\n",
              log.size());
  std::printf("%-12s %12s %14s %10s\n", "percentile", "CPU (ms)",
              "Griffin (ms)", "speedup");
  bench::Json rows = bench::Json::array();
  for (const double p : {80.0, 90.0, 95.0, 99.0, 99.9}) {
    const double c = cpu_ms.percentile(p);
    const double g = grif_ms.percentile(p);
    std::printf("%-12.1f %12.3f %14.3f %9.1fx\n", p, c, g, c / g);
    bench::Json row = bench::Json::object();
    row["percentile"] = p;
    row["cpu_ms"] = c;
    row["griffin_ms"] = g;
    row["speedup"] = c / g;
    rows.push_back(std::move(row));
  }
  std::printf("%-12s %12.3f %14.3f %9.1fx\n", "mean", cpu_ms.mean(),
              grif_ms.mean(), cpu_ms.mean() / grif_ms.mean());

  bench::Json root = bench::Json::object();
  root["bench"] = "tail_latency";
  root["fast_mode"] = bench::fast_mode();
  root["queries"] = static_cast<std::uint64_t>(log.size());
  root["percentiles"] = std::move(rows);
  root["cpu"] = bench::latency_json(cpu_ms);
  root["griffin"] = bench::latency_json(grif_ms);
  root["mean_speedup"] = cpu_ms.mean() / grif_ms.mean();
  root["griffin_overlap"] = bench::counters_json(grif_overlap);
  bench::write_bench_json("tail_latency", root);
  return 0;
}
