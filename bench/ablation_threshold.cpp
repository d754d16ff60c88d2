// Ablation — the scheduler's crossover threshold. The paper argues the
// threshold should equal the compression block size (128): above it, the
// short list has fewer elements than the long list has blocks, so skippable
// blocks must exist (Figure 9). This bench sweeps the threshold on a fixed
// query log over an index of 128-posting blocks and reports each threshold's
// mean latency and the best swept one (BENCH_ablation_threshold.json).
#include <cstdio>
#include <vector>

#include "bench_common.h"
#include "core/hybrid_engine.h"
#include "util/stats.h"

using namespace griffin;

namespace {

double mean_latency_ms(const index::InvertedIndex& idx,
                       const std::vector<core::Query>& log,
                       double threshold) {
  core::HybridOptions opt;
  opt.scheduler.ratio_threshold = threshold;
  core::HybridEngine engine(idx, {}, opt);
  util::SummaryStats ms;
  for (const auto& q : log) ms.add(engine.execute(q).metrics.total.ms());
  return ms.mean();
}

}  // namespace

int main() {
  auto cfg = bench::paper_corpus_config();
  // A moderate corpus keeps the sweep affordable; the threshold effect only
  // needs ratios spanning the candidate thresholds.
  cfg.num_docs = bench::fast_mode() ? 500'000 : 2'000'000;
  cfg.num_terms = bench::fast_mode() ? 300 : 2'000;
  std::fprintf(stderr, "[ablation_threshold] building/loading corpus...\n");
  const auto idx = bench::cached_corpus(cfg);

  auto qcfg = bench::paper_query_config(60, cfg);
  const auto log = workload::generate_query_log(qcfg, cfg.num_terms);

  bench::print_header(
      "Ablation: scheduler crossover threshold sweep",
      "paper picks 128 = block size via Figure 8 + the Figure 9 argument");

  // The always-GPU arm is an infinite threshold; JSON has no infinity.
  const auto threshold_json = [](double thr) {
    return thr >= 1e18 ? bench::Json("inf") : bench::Json(thr);
  };
  std::printf("%-12s %16s\n", "threshold", "mean latency(ms)");
  double best = 1e30;
  double best_thr = 0;
  bench::Json rows = bench::Json::array();
  for (const double thr : {8.0, 32.0, 64.0, 128.0, 256.0, 1024.0, 1e18}) {
    const double ms = mean_latency_ms(idx, log, thr);
    if (ms < best) {
      best = ms;
      best_thr = thr;
    }
    bench::Json row = bench::Json::object();
    row["threshold"] = threshold_json(thr);
    row["mean_ms"] = ms;
    rows.push_back(std::move(row));
    if (thr >= 1e18) {
      std::printf("%-12s %16.3f   (= always GPU)\n", "inf", ms);
    } else {
      std::printf("%-12.0f %16.3f\n", thr, ms);
    }
  }
  std::printf("(threshold 0 would be the CPU-only engine)\n");
  std::printf("\nBest swept threshold: %.0f (paper's choice: 128)\n", best_thr);

  bench::Json root = bench::Json::object();
  root["bench"] = "ablation_threshold";
  root["fast_mode"] = bench::fast_mode();
  root["queries"] = static_cast<std::uint64_t>(log.size());
  root["thresholds"] = std::move(rows);
  root["best_threshold"] = threshold_json(best_thr);
  bench::write_bench_json("ablation_threshold", root);
  return 0;
}
