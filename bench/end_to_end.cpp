// Figure 14 — end-to-end query latency by term count, for the three system
// configurations the paper compares: the CPU-only engine, Griffin-GPU alone
// ("GPU only"), and Griffin (hybrid, intra-query scheduling). The paper
// reports Griffin ~10x over CPU-only and ~1.5x over GPU-only on average.
// BENCH_end_to_end.json records each engine's per-stage means per group and
// the scale trend, so the rank share behind the speedup is committed
// evidence.
#include <array>
#include <cstdio>
#include <map>
#include <vector>

#include "bench_common.h"
#include "core/hybrid_engine.h"
#include "util/stats.h"

using namespace griffin;

namespace {

/// One engine's serial stage time over a set of queries.
struct StageMeans {
  sim::Duration decode, intersect, transfer, rank;
  std::uint64_t queries = 0;

  void add(const core::QueryMetrics& m) {
    decode += m.decode;
    intersect += m.intersect;
    transfer += m.transfer;
    rank += m.rank;
    ++queries;
  }
  /// Rank's share of the serial stage time (decode + intersect + transfer
  /// + rank, which is total + overlap.saved).
  double rank_share() const {
    const sim::Duration all = decode + intersect + transfer + rank;
    return all.ps() == 0 ? 0.0 : rank / all;
  }
  bench::Json json() const {
    const double n = static_cast<double>(queries);
    bench::Json j = bench::Json::object();
    j["decode_ms"] = decode.ms() / n;
    j["intersect_ms"] = intersect.ms() / n;
    j["transfer_ms"] = transfer.ms() / n;
    j["rank_ms"] = rank.ms() / n;
    j["rank_share"] = rank_share();
    return j;
  }
};

constexpr std::array<const char*, 4> kEngines = {"cpu", "gpu_only", "griffin",
                                                 "griffin_cost_model"};

}  // namespace

int main() {
  const auto cfg = bench::paper_corpus_config();
  std::fprintf(stderr, "[end_to_end] building/loading corpus...\n");
  const auto idx = bench::cached_corpus(cfg);

  bench::print_header(
      "Figure 14: End-to-End Query Latency by Number of Terms",
      "Griffin ~10x over CPU-only, ~1.5x over GPU-only (average)");

  cpu::CpuEngine cpu_engine(idx);
  gpu::GpuEngine gpu_engine(idx);
  core::HybridEngine griffin(idx);
  core::HybridOptions cost_opt;
  cost_opt.scheduler.policy = core::SchedulerPolicy::kCostModel;
  core::HybridEngine griffin_cost(idx, {}, cost_opt);

  // Bucket a generated log by term count, keeping a fixed number per group.
  const std::uint32_t per_group = bench::fast_mode() ? 2 : 8;
  auto qcfg = bench::paper_query_config(4000, cfg);
  const auto log = workload::generate_query_log(qcfg, cfg.num_terms);
  std::map<int, std::vector<core::Query>> groups;
  for (const auto& q : log) {
    const int g = std::min<int>(static_cast<int>(q.terms.size()), 7);
    if (groups[g].size() < per_group) groups[g].push_back(q);
  }

  std::printf("%-8s %8s %11s %11s %11s %12s %8s %8s\n", "#terms", "queries",
              "CPU (ms)", "GPUonly(ms)", "Griffin(ms)", "Grif-cost(ms)",
              "vs CPU", "vs GPU");

  // Per-query plan traces as JSONL when GRIFFIN_TRACE_DIR is set: one line
  // per (engine, query) with every recorded step.
  bench::TraceWriter trace_out("end_to_end");

  bench::Json group_rows = bench::Json::array();
  core::RunTotals grif_run;
  util::SummaryStats all_cpu, all_gpu, all_grif, all_cost;
  std::uint64_t query_id = 0;
  for (const auto& [g, queries] : groups) {
    double cpu_ms = 0, gpu_ms = 0, grif_ms = 0, cost_ms = 0;
    std::array<StageMeans, kEngines.size()> stages{};
    for (const auto& q : queries) {
      const auto cpu_res = cpu_engine.execute(q);
      cpu_ms += cpu_res.metrics.total.ms();
      const auto gpu_res = gpu_engine.execute(q);
      gpu_ms += gpu_res.metrics.total.ms();
      const auto grif_res = griffin.execute(q);
      grif_ms += grif_res.metrics.total.ms();
      grif_run.add(grif_res);
      const auto cost_res = griffin_cost.execute(q);
      cost_ms += cost_res.metrics.total.ms();
      stages[0].add(cpu_res.metrics);
      stages[1].add(gpu_res.metrics);
      stages[2].add(grif_res.metrics);
      stages[3].add(cost_res.metrics);
      trace_out.write("cpu", query_id, q, cpu_res);
      trace_out.write("gpu_only", query_id, q, gpu_res);
      trace_out.write("griffin", query_id, q, grif_res);
      trace_out.write("griffin_cost_model", query_id, q, cost_res);
      ++query_id;
    }
    const auto n = static_cast<double>(queries.size());
    cpu_ms /= n;
    gpu_ms /= n;
    grif_ms /= n;
    cost_ms /= n;
    all_cpu.add(cpu_ms);
    all_gpu.add(gpu_ms);
    all_grif.add(grif_ms);
    all_cost.add(cost_ms);
    char label[8];
    std::snprintf(label, sizeof(label), g >= 7 ? ">6" : "%d", g);
    std::printf("%-8s %8zu %11.3f %11.3f %11.3f %12.3f %7.1fx %7.2fx\n",
                label, queries.size(), cpu_ms, gpu_ms, grif_ms, cost_ms,
                cpu_ms / grif_ms, gpu_ms / grif_ms);

    bench::Json row = bench::Json::object();
    row["terms"] = label;
    row["queries"] = static_cast<std::uint64_t>(queries.size());
    row["cpu_ms"] = cpu_ms;
    row["gpu_only_ms"] = gpu_ms;
    row["griffin_ms"] = grif_ms;
    row["griffin_cost_model_ms"] = cost_ms;
    bench::Json stagej = bench::Json::object();
    for (std::size_t e = 0; e < kEngines.size(); ++e) {
      stagej[kEngines[e]] = stages[e].json();
    }
    row["stages"] = std::move(stagej);
    group_rows.push_back(std::move(row));
  }

  std::printf("\nAverage across groups: Griffin %.1fx vs CPU-only "
              "(paper ~10x), %.2fx vs GPU-only (paper ~1.5x)\n",
              all_cpu.mean() / all_grif.mean(),
              all_gpu.mean() / all_grif.mean());
  std::printf("Cost-model scheduler (extension): %.1fx vs CPU-only, "
              "%.2fx vs GPU-only\n",
              all_cpu.mean() / all_cost.mean(),
              all_gpu.mean() / all_cost.mean());

  // ---- Scale trend ----
  // The paper's corpus (ClueWeb12, 41M docs, lists to 26M) is ~7x this
  // bench's default. CPU latency grows linearly with list volume while
  // Griffin's fixed GPU overheads do not, so the vs-CPU speedup grows with
  // corpus scale; this trend is the bridge between the measured factor
  // above and the paper's 10x.
  // Rank shares: CPU-only's bounds the vs-CPU factor (Amdahl), since both
  // engines rank the same results.
  std::printf("\nScale trend (same query mix, growing corpus):\n");
  std::printf("%-12s %12s %14s %10s %11s %11s\n", "num_docs", "CPU (ms)",
              "Griffin (ms)", "speedup", "CPU rank", "Grif rank");
  bench::Json scale_rows = bench::Json::array();
  for (const std::uint32_t docs :
       {cfg.num_docs / 4, cfg.num_docs / 2, cfg.num_docs}) {
    workload::CorpusConfig scfg = cfg;
    scfg.num_docs = docs;
    const auto sidx = bench::cached_corpus(scfg);
    cpu::CpuEngine scpu(sidx);
    core::HybridEngine sgrif(sidx);
    auto sqcfg = bench::paper_query_config(12, scfg);
    sqcfg.num_queries = bench::fast_mode() ? 4 : 12;
    const auto slog = workload::generate_query_log(sqcfg, scfg.num_terms);
    double c_ms = 0, g_ms = 0;
    StageMeans c_stages, g_stages;
    for (const auto& q : slog) {
      const auto c = scpu.execute(q).metrics;
      const auto gr = sgrif.execute(q).metrics;
      c_ms += c.total.ms();
      g_ms += gr.total.ms();
      c_stages.add(c);
      g_stages.add(gr);
    }
    const double n = static_cast<double>(slog.size());
    std::printf("%-12u %12.3f %14.3f %9.1fx %10.1f%% %10.1f%%\n", docs,
                c_ms / n, g_ms / n, c_ms / g_ms, 100 * c_stages.rank_share(),
                100 * g_stages.rank_share());
    bench::Json row = bench::Json::object();
    row["num_docs"] = docs;
    row["queries"] = static_cast<std::uint64_t>(slog.size());
    row["cpu_ms"] = c_ms / n;
    row["griffin_ms"] = g_ms / n;
    row["speedup"] = c_ms / g_ms;
    row["cpu_rank_share"] = c_stages.rank_share();
    row["griffin_rank_share"] = g_stages.rank_share();
    scale_rows.push_back(std::move(row));
  }

  bench::Json root = bench::Json::object();
  root["bench"] = "end_to_end";
  root["fast_mode"] = bench::fast_mode();
  root["num_docs"] = cfg.num_docs;
  root["num_terms"] = cfg.num_terms;
  root["groups"] = std::move(group_rows);
  const double speedup_vs_cpu = all_cpu.mean() / all_grif.mean();
  root["speedup_vs_cpu"] = speedup_vs_cpu;
  root["speedup_vs_gpu"] = all_gpu.mean() / all_grif.mean();
  root["cost_model_speedup_vs_cpu"] = all_cpu.mean() / all_cost.mean();
  root["cost_model_speedup_vs_gpu"] = all_gpu.mean() / all_cost.mean();
  root["griffin_cache"] = bench::cache_json(grif_run.engine_cache);
  root["griffin_overlap"] = bench::counters_json(grif_run.engine_overlap);
  root["scale_trend"] = std::move(scale_rows);
  bench::write_bench_json("end_to_end", root);
  // The fast-mode speedup_vs_cpu floor, pinned by the repo-root
  // BENCH_end_to_end.json once ranking read tf at the intersects' carried
  // positions (4.41414): later changes may not regress below it.
  constexpr double kFastSpeedupFloor = 4.414;
  bench::Gates gates("end_to_end");
  if (bench::fast_mode()) {
    gates.check(speedup_vs_cpu >= kFastSpeedupFloor,
                "speedup_vs_cpu regressed below 4.414");
  }
  return gates.exit_code();
}
