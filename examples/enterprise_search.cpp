// Enterprise-search scenario (the paper's motivating interactive service):
// a mid-size synthetic document collection served by three engine
// configurations side by side. Shows the public workload + engine APIs and
// the per-query latency breakdown an operator would watch.
#include <cstdio>
#include <vector>

#include "core/hybrid_engine.h"
#include "workload/corpus.h"
#include "workload/querylog.h"

using namespace griffin;

int main() {
  workload::CorpusConfig cfg;
  cfg.num_docs = 1'000'000;
  cfg.num_terms = 1'000;
  cfg.num_topics = 16;
  cfg.topic_affinity = 0.6;
  cfg.seed = 11;
  std::printf("building synthetic enterprise corpus (%u docs, %u terms)...\n",
              cfg.num_docs, cfg.num_terms);
  const index::InvertedIndex idx = workload::generate_corpus(cfg);
  std::printf("postings: %llu   compression ratio (EF): %.2f\n\n",
              static_cast<unsigned long long>(idx.total_postings()),
              idx.compression_ratio());

  cpu::CpuEngine cpu_engine(idx);
  gpu::GpuEngine gpu_engine(idx);
  core::HybridEngine griffin(idx);

  workload::QueryLogConfig qcfg;
  qcfg.num_queries = 12;
  qcfg.term_zipf_s = 1.2;
  qcfg.num_topics = cfg.num_topics;
  qcfg.seed = 3;
  const auto log = workload::generate_query_log(qcfg, cfg.num_terms);

  std::printf("%-4s %6s %8s %12s %12s %12s %6s\n", "q#", "terms", "matches",
              "cpu (ms)", "gpu (ms)", "griffin(ms)", "plan");
  for (const auto& q : log) {
    const auto c = cpu_engine.execute(q);
    const auto g = gpu_engine.execute(q);
    const auto h = griffin.execute(q);
    std::string plan;
    for (const auto& r : h.trace) {
      if (r.kind != core::StepKind::kIntersect) continue;
      plan += (r.placement == core::Placement::kGpu ? 'G' : 'C');
    }
    std::printf("%-4llu %6zu %8llu %12.3f %12.3f %12.3f %6s\n",
                static_cast<unsigned long long>(q.id), q.terms.size(),
                static_cast<unsigned long long>(h.metrics.result_count),
                c.metrics.total.ms(), g.metrics.total.ms(),
                h.metrics.total.ms(), plan.c_str());

    // All three configurations must agree on the results: the same docs
    // with the same scores, in the same order.
    if (g.topk != c.topk || h.topk != c.topk) {
      std::printf("ENGINE DISAGREEMENT on query %llu!\n",
                  static_cast<unsigned long long>(q.id));
      return 1;
    }
  }
  std::printf("\nplan legend: one letter per intersection step "
              "(G = GPU, C = CPU); a G->C flip is an intra-query migration.\n");
  return 0;
}
