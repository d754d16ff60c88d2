// Extension bench — query service under load (the paper's future work:
// "more complex scenarios under heavy system loads with multiple users").
// Poisson arrivals into a single query-processing node; FCFS. Griffin's
// shorter heavy queries reduce head-of-line blocking, so its advantage in
// *response* time (queueing + service) exceeds its advantage in service
// time alone, and the node sustains a higher offered load.
#include <cstdio>

#include "bench_common.h"
#include "core/hybrid_engine.h"
#include "service/service_sim.h"

using namespace griffin;

int main() {
  auto cfg = bench::paper_corpus_config();
  cfg.num_docs = bench::fast_mode() ? 500'000 : 3'000'000;
  cfg.num_terms = bench::fast_mode() ? 300 : 2'000;
  std::fprintf(stderr, "[service_load] building/loading corpus...\n");
  const auto idx = bench::cached_corpus(cfg);

  auto qcfg = bench::paper_query_config(200, cfg);
  const auto log = workload::generate_query_log(qcfg, cfg.num_terms);

  bench::print_header(
      "Extension: interactive service under load (Poisson arrivals, FCFS)",
      "future work in the paper; Griffin's tail gains compound with queueing");

  cpu::CpuEngine cpu_engine(idx);
  core::HybridEngine griffin(idx);

  // One execution pass per engine; the load sweep reuses the times.
  std::fprintf(stderr, "[service_load] measuring service times...\n");
  core::RunTotals cpu_run;
  const auto cpu_times =
      service::measure_service_times(cpu_engine, log, &cpu_run);
  core::RunTotals grif_run;
  const auto grif_times =
      service::measure_service_times(griffin, log, &grif_run);

  std::printf("%-10s %-9s %12s %12s %12s %12s %8s\n", "load(qps)", "engine",
              "util", "p50 resp", "p95 resp", "p99 resp", "h2d");
  bench::Json rows = bench::Json::array();
  for (const double qps : {50.0, 100.0, 200.0, 400.0}) {
    service::ServiceConfig scfg;
    scfg.arrival_qps = qps;
    const auto rc = service::run_service(
        std::span<const sim::Duration>(cpu_times), scfg);
    const auto rg = service::run_service(
        std::span<const sim::Duration>(grif_times), scfg);
    // Per-resource busy fraction of a run: the engines' summed timeline
    // busy over the FCFS makespan at this load.
    const auto uc = cpu_run.engine_overlap.busy_fractions(rc.horizon);
    const auto ug = grif_run.engine_overlap.busy_fractions(rg.horizon);
    std::printf("%-10.0f %-9s %11.0f%% %11.2f %11.2f %11.2f %7.1f%%\n", qps,
                "cpu", 100.0 * rc.utilization, rc.response_ms.percentile(50),
                rc.response_ms.percentile(95), rc.response_ms.percentile(99),
                100.0 * uc[std::size_t(sim::Resource::kCopyH2D)]);
    std::printf("%-10.0f %-9s %11.0f%% %11.2f %11.2f %11.2f %7.1f%%\n", qps,
                "griffin", 100.0 * rg.utilization,
                rg.response_ms.percentile(50), rg.response_ms.percentile(95),
                rg.response_ms.percentile(99),
                100.0 * ug[std::size_t(sim::Resource::kCopyH2D)]);
    bench::Json row = bench::Json::object();
    row["qps"] = qps;
    row["cpu_utilization"] = rc.utilization;
    row["griffin_utilization"] = rg.utilization;
    row["cpu_response"] = bench::latency_json(rc.response_ms);
    row["griffin_response"] = bench::latency_json(rg.response_ms);
    row["cpu_resource_utilization"] = bench::resource_utilization_json(uc);
    row["griffin_resource_utilization"] = bench::resource_utilization_json(ug);
    row["cpu_max_queue_depth"] = rc.max_queue_depth;
    row["griffin_max_queue_depth"] = rg.max_queue_depth;
    rows.push_back(std::move(row));
  }
  std::printf("\n(response = queueing + service, simulated ms; at loads where "
              "the CPU-only\nnode saturates, Griffin still serves with "
              "bounded queues)\n");

  bench::Json root = bench::Json::object();
  root["bench"] = "service_load";
  root["fast_mode"] = bench::fast_mode();
  root["queries"] = static_cast<std::uint64_t>(log.size());
  root["loads"] = std::move(rows);
  root["griffin_overlap"] = bench::counters_json(grif_run.engine_overlap);
  bench::write_bench_json("service_load", root);
  return 0;
}
