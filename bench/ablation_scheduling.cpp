// Ablation — scheduling policies (paper Figure 1 and §5): static CPU-only
// (1a), static GPU-only (1b), whole-query hybrid placement like Ding et
// al. [12] (1c: pick one processor per query from the first pair's ratio),
// and Griffin's intra-query scheduling (1d) with both the ratio rule and the
// cost-model extension.
//
// The bench drives everything through the engines' recorded plans
// (QueryResult::trace): scheme 1c replays the first intersect step's
// StepShape from the CPU pass, residency bits cleared, through the ratio
// Scheduler — the exact decision a whole-query planner would make — and
// the second table reports how each policy's executed steps split across
// processors.
//
// Every policy runs on engines of its own: an engine that already ran the
// same queries starts with warm device and host caches. The exit code gates
// Figure 1's claim — 1d's mean latency below 1c's and below both statics'.
#include <algorithm>
#include <cstdio>
#include <optional>
#include <vector>

#include "bench_common.h"
#include "core/hybrid_engine.h"
#include "core/scheduler.h"
#include "util/stats.h"

using namespace griffin;

namespace {

struct PolicyResult {
  double mean_ms = 0;
  double p95_ms = 0;
  core::TraceSummary trace;
};

template <typename RunFn>
PolicyResult run_policy(const std::vector<core::Query>& log, RunFn&& run) {
  PolicyResult r;
  util::PercentileTracker ms;
  for (std::size_t i = 0; i < log.size(); ++i) {
    const core::QueryResult res = run(i, log[i]);
    ms.add(res.metrics.total.ms());
    r.trace.add(res.trace);
  }
  r.mean_ms = ms.mean();
  r.p95_ms = ms.percentile(95);
  return r;
}

void print_policy(const char* name, const PolicyResult& r) {
  std::printf("%-28s %12.3f %12.3f %10.2f %6llu %6llu\n", name, r.mean_ms,
              r.p95_ms, 100.0 * r.trace.gpu_intersect_fraction(),
              static_cast<unsigned long long>(r.trace.transfer_steps),
              static_cast<unsigned long long>(r.trace.migrations));
}

bench::Json policy_json(const char* name, const PolicyResult& r) {
  bench::Json j = bench::Json::object();
  j["policy"] = name;
  j["mean_ms"] = r.mean_ms;
  j["p95_ms"] = r.p95_ms;
  j["steps"] = r.trace.steps;
  j["cpu_intersects"] = r.trace.cpu_intersects;
  j["gpu_intersects"] = r.trace.gpu_intersects;
  j["transfer_steps"] = r.trace.transfer_steps;
  j["migrations"] = r.trace.migrations;
  return j;
}

}  // namespace

int main() {
  auto cfg = bench::paper_corpus_config();
  cfg.num_docs = bench::fast_mode() ? 500'000 : 3'000'000;
  cfg.num_terms = bench::fast_mode() ? 300 : 2'000;
  std::fprintf(stderr, "[ablation_scheduling] building/loading corpus...\n");
  const auto idx = bench::cached_corpus(cfg);

  // A flatter term bias than the end-to-end log: mixes rare terms with
  // frequent ones, so first-pair ratios span both sides of the crossover
  // and the policies actually diverge.
  auto qcfg = bench::paper_query_config(50, cfg);
  qcfg.term_zipf_s = 0.85;
  qcfg.topical_fraction = 0.6;
  const auto log = workload::generate_query_log(qcfg, cfg.num_terms);

  bench::print_header(
      "Ablation: scheduling policies (Figure 1's four schemes)",
      "intra-query (1d) beats whole-query hybrid (1c) and both statics");

  cpu::CpuEngine cpu_engine(idx);
  gpu::GpuEngine gpu_engine(idx);
  core::HybridEngine griffin(idx);
  core::HybridOptions cost_opt;
  cost_opt.scheduler.policy = core::SchedulerPolicy::kCostModel;
  core::HybridEngine griffin_cost(idx, {}, cost_opt);

  // 1(a), which also records each query's first intersect shape — the input
  // a whole-query placement policy sees.
  std::vector<std::optional<core::StepShape>> first_shape(log.size());
  const auto r_cpu = run_policy(log, [&](std::size_t i, const core::Query& q) {
    auto res = cpu_engine.execute(q);
    for (const auto& rec : res.trace) {
      if (rec.kind == core::StepKind::kIntersect) {
        first_shape[i] = rec.shape;
        break;
      }
    }
    return res;
  });
  const auto r_gpu = run_policy(log, [&](std::size_t, const core::Query& q) {
    return gpu_engine.execute(q);
  });
  // 1(c): whole-query placement from the recorded first-pair shape, decided
  // by the paper's ratio rule with residency folded out (a one-shot planner
  // has no cache state to consult). Single-term queries have no intersect
  // step; ratio 1 puts them on the GPU.
  for (auto& shape : first_shape) {
    if (!shape.has_value()) continue;
    shape->longer_device_resident = false;
    shape->longer_host_decoded = false;
    shape->longer_prefetched = false;
  }
  const core::Scheduler whole;
  cpu::CpuEngine whole_cpu(idx);
  gpu::GpuEngine whole_gpu(idx);
  const auto r_whole =
      run_policy(log, [&](std::size_t i, const core::Query& q) {
        const bool on_gpu =
            !first_shape[i].has_value() ||
            whole.decide(*first_shape[i]) == core::Placement::kGpu;
        return on_gpu ? whole_gpu.execute(q) : whole_cpu.execute(q);
      });
  const auto r_griffin =
      run_policy(log, [&](std::size_t, const core::Query& q) {
        return griffin.execute(q);
      });
  const auto r_cost = run_policy(log, [&](std::size_t, const core::Query& q) {
    return griffin_cost.execute(q);
  });

  std::printf("%-28s %12s %12s %10s %6s %6s\n", "policy", "mean (ms)",
              "p95 (ms)", "GPU int %", "xfers", "migr");
  print_policy("CPU-only (1a)", r_cpu);
  print_policy("GPU-only (1b)", r_gpu);
  print_policy("whole-query hybrid (1c)", r_whole);
  print_policy("Griffin ratio rule (1d)", r_griffin);
  print_policy("Griffin cost model (ext.)", r_cost);
  std::printf(
      "\nStep mix from the recorded plans: 1d ran %llu/%llu intersects on "
      "the GPU with %llu mid-query migrations; 1c commits each query whole "
      "(%llu migrations by construction).\n",
      static_cast<unsigned long long>(r_griffin.trace.gpu_intersects),
      static_cast<unsigned long long>(r_griffin.trace.gpu_intersects +
                                      r_griffin.trace.cpu_intersects),
      static_cast<unsigned long long>(r_griffin.trace.migrations),
      static_cast<unsigned long long>(r_whole.trace.migrations));

  bench::Json rows = bench::Json::array();
  rows.push_back(policy_json("cpu_only", r_cpu));
  rows.push_back(policy_json("gpu_only", r_gpu));
  rows.push_back(policy_json("whole_query", r_whole));
  rows.push_back(policy_json("griffin_ratio", r_griffin));
  rows.push_back(policy_json("griffin_cost_model", r_cost));
  bench::Json root = bench::Json::object();
  root["bench"] = "ablation_scheduling";
  root["fast_mode"] = bench::fast_mode();
  root["queries"] = static_cast<std::uint64_t>(log.size());
  root["policies"] = std::move(rows);
  bench::write_bench_json("ablation_scheduling", root);
  bench::Gates gates("ablation_scheduling");
  gates.check(r_griffin.mean_ms < r_whole.mean_ms,
              "intra-query (1d) not faster than whole-query hybrid (1c)");
  gates.check(r_griffin.mean_ms < std::min(r_cpu.mean_ms, r_gpu.mean_ms),
              "intra-query (1d) not faster than both static policies");
  return gates.exit_code();
}
