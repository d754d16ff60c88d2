// Latency study: replay a query trace through the CPU-only engine and
// Griffin, then print the percentile profile and a per-query migration log —
// the operator-facing view of the paper's Figure 15 experiment at laptop
// scale.
#include <cstdio>

#include "core/hybrid_engine.h"
#include "util/stats.h"
#include "workload/corpus.h"
#include "workload/querylog.h"

using namespace griffin;

int main() {
  workload::CorpusConfig cfg;
  cfg.num_docs = 2'000'000;
  cfg.num_terms = 500;
  cfg.num_topics = 16;
  cfg.topic_affinity = 0.6;
  cfg.min_list_size = 256;
  cfg.seed = 21;
  std::printf("building corpus (%u docs)...\n", cfg.num_docs);
  const auto idx = workload::generate_corpus(cfg);

  cpu::CpuEngine cpu_engine(idx);
  core::HybridEngine griffin(idx);

  workload::QueryLogConfig qcfg;
  qcfg.num_queries = 120;
  qcfg.term_zipf_s = 1.2;
  qcfg.num_topics = cfg.num_topics;
  qcfg.seed = 9;
  const auto log = workload::generate_query_log(qcfg, cfg.num_terms);

  util::PercentileTracker cpu_ms, grif_ms;
  std::uint64_t migrations = 0, gpu_steps = 0, cpu_steps = 0;
  for (const auto& q : log) {
    cpu_ms.add(cpu_engine.execute(q).metrics.total.ms());
    const auto h = griffin.execute(q);
    grif_ms.add(h.metrics.total.ms());
    migrations += h.metrics.migrations;
    for (const auto& r : h.trace) {
      if (r.kind != core::StepKind::kIntersect) continue;
      (r.placement == core::Placement::kGpu ? gpu_steps : cpu_steps) += 1;
    }
  }

  std::printf("\n%zu queries | griffin ran %llu steps on GPU, %llu on CPU, "
              "%llu migrations\n\n",
              log.size(), static_cast<unsigned long long>(gpu_steps),
              static_cast<unsigned long long>(cpu_steps),
              static_cast<unsigned long long>(migrations));
  std::printf("%-12s %12s %14s %10s\n", "percentile", "CPU (ms)",
              "Griffin (ms)", "speedup");
  for (const double p : {50.0, 80.0, 90.0, 95.0, 99.0}) {
    const double c = cpu_ms.percentile(p);
    const double g = grif_ms.percentile(p);
    std::printf("%-12.0f %12.3f %14.3f %9.1fx\n", p, c, g, c / g);
  }
  std::printf("%-12s %12.3f %14.3f %9.1fx\n", "mean", cpu_ms.mean(),
              grif_ms.mean(), cpu_ms.mean() / grif_ms.mean());
  return 0;
}
