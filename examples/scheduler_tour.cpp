// A guided tour of Griffin's intra-query scheduler: for one hand-built
// query, print each pairwise step's shape (intermediate size, next list,
// ratio), the scheduler's decision under both policies, and the engines'
// closed-form step estimates — then execute and show what actually happened.
#include <cstdio>
#include <vector>

#include "core/hybrid_engine.h"
#include "workload/corpus.h"

using namespace griffin;

int main() {
  workload::CorpusConfig cfg;
  cfg.num_docs = 2'000'000;
  cfg.num_terms = 200;
  cfg.num_topics = 8;
  cfg.topic_affinity = 0.6;
  cfg.min_list_size = 256;
  cfg.seed = 77;
  std::printf("building corpus...\n");
  const auto idx = workload::generate_corpus(cfg);

  // Same-topic terms (ids congruent mod 8): three mid-size lists whose
  // intersection shrinks round by round, then the topic's giant list — by
  // which point the ratio has crossed 128 and the query must migrate.
  core::Query q;
  q.terms = {56, 48, 40, 0};
  std::printf("\nquery terms (sorted by list length at execution):\n");
  for (const auto t : q.terms) {
    std::printf("  term %3u: %9llu postings\n", t,
                static_cast<unsigned long long>(idx.list(t).size()));
  }

  const core::Scheduler ratio_sched{core::SchedulerOptions{}};
  core::SchedulerOptions cost_opt;
  cost_opt.policy = core::SchedulerPolicy::kCostModel;
  const core::Scheduler cost_sched{cost_opt};

  // Walk the SvS plan the way the engine will, predicting each decision.
  std::vector<index::TermId> terms(q.terms);
  std::sort(terms.begin(), terms.end(),
            [&](index::TermId a, index::TermId b) {
              return idx.list(a).size() < idx.list(b).size();
            });
  std::printf("\npredicted schedule:\n");
  std::uint64_t inter = idx.list(terms[0]).size();
  std::optional<core::Placement> loc;
  for (std::size_t i = 1; i < terms.size(); ++i) {
    core::StepShape s;
    s.shorter = inter;
    s.longer = idx.list(terms[i]).size();
    s.longer_bytes = idx.list(terms[i]).docids.compressed_bytes();
    s.current_location = loc;
    const auto ratio_pick = ratio_sched.decide(s);
    const auto cost_pick = cost_sched.decide(s);
    std::printf(
        "  step %zu: |inter|=%8llu vs |list|=%8llu  ratio=%7.1f  "
        "ratio-rule=%s cost-rule=%s (est cpu %.3fms, gpu %.3fms)\n",
        i, static_cast<unsigned long long>(s.shorter),
        static_cast<unsigned long long>(s.longer),
        static_cast<double>(s.longer) / static_cast<double>(s.shorter),
        ratio_pick == core::Placement::kGpu ? "GPU" : "CPU",
        cost_pick == core::Placement::kGpu ? "GPU" : "CPU",
        cost_sched.estimate_cpu(s).ms(), cost_sched.estimate_gpu(s).ms());
    loc = ratio_pick;
    // Rough shrink estimate for the preview only: correlated same-topic
    // lists keep roughly a third of the shorter side per round (the actual
    // execution below shows the true sizes).
    inter = std::max<std::uint64_t>(inter / 3, 1);
  }

  std::printf("\nactual execution (ratio rule):\n");
  core::HybridEngine engine(idx);
  const auto res = engine.execute(q);
  std::printf("  placements: ");
  for (const auto& r : res.trace) {
    if (r.kind != core::StepKind::kIntersect) continue;
    std::printf("%c", r.placement == core::Placement::kGpu ? 'G' : 'C');
  }
  std::printf("   migrations: %llu\n",
              static_cast<unsigned long long>(res.metrics.migrations));
  std::printf("  matches: %llu   total %.3f ms (decode %.3f, intersect %.3f, "
              "transfer %.3f, rank %.3f)\n",
              static_cast<unsigned long long>(res.metrics.result_count),
              res.metrics.total.ms(), res.metrics.decode.ms(),
              res.metrics.intersect.ms(), res.metrics.transfer.ms(),
              res.metrics.rank.ms());
  return 0;
}
