// Extension bench — multi-tenant device sharing (DESIGN.md §12). The
// single-tenant service sim leaves the device mostly idle between a query's
// own steps: one query's H2D copy cannot ride under another query's kernels
// because every query owns a private timeline. The DeviceManager shares ONE
// timeline across an admission window of concurrent queries, and optionally
// fuses compatible GPU steps from co-admitted queries into batched launches.
//
// Sweep: concurrency {1,2,4,8} x batching {off,on} x offered load, against
// the sequential FCFS baseline on identical queries. Reported per cell:
// response percentiles, sustained throughput, per-resource busy fractions
// (watch H2D climb from the ~5% single-tenant figure), cross-query batch
// counts, and shed queries. Results stay bit-identical to sequential
// execution (test_tenancy's golden parity test); only timing moves.
//
// Emits BENCH_multi_tenant.json under GRIFFIN_BENCH_JSON_DIR. The output is
// deterministic: CI runs this bench twice and diffs the JSON byte-for-byte.
#include <cstdio>
#include <span>
#include <vector>

#include "bench_common.h"
#include "core/hybrid_engine.h"
#include "service/service_sim.h"
#include "tenancy/device_manager.h"

using namespace griffin;

int main() {
  auto cfg = bench::paper_corpus_config();
  cfg.num_docs = bench::fast_mode() ? 500'000 : 3'000'000;
  cfg.num_terms = bench::fast_mode() ? 300 : 2'000;
  std::fprintf(stderr, "[multi_tenant] building/loading corpus...\n");
  const auto idx = bench::cached_corpus(cfg);

  auto qcfg = bench::paper_query_config(200, cfg);
  const auto log = workload::generate_query_log(qcfg, cfg.num_terms);

  bench::print_header(
      "Extension: multi-tenant device — shared timeline + cross-query "
      "batching",
      "future work in the paper: heavy system loads with multiple users");

  // ---- Sequential FCFS baseline (one query owns the device at a time) ----
  core::HybridEngine griffin(idx);
  std::fprintf(stderr, "[multi_tenant] measuring sequential baseline...\n");
  core::RunTotals base_run;
  const auto base_times =
      service::measure_service_times(griffin, log, &base_run);

  // The sweep is in units of the sequential node's capacity (1/mean
  // service time): rho < 1 is comfortable, rho ~ 1 saturates a sequential
  // device, rho > 1 is only sustainable if concurrency + batching buy real
  // throughput. Fixed qps values would leave the fast-mode corpus idle.
  sim::Duration svc_sum;
  for (const auto& t : base_times) svc_sum += t;
  const double mean_svc_ms =
      base_times.empty() ? 1.0 : svc_sum.ms() / double(base_times.size());
  const double capacity_qps = mean_svc_ms > 0.0 ? 1000.0 / mean_svc_ms : 1.0;
  const std::vector<double> rhos = {0.6, 1.2, 2.5};
  std::printf("sequential capacity ~%.0f qps (mean service %.3f ms)\n\n",
              capacity_qps, mean_svc_ms);

  std::printf("%-10s %-6s %-6s %10s %10s %10s %9s %7s %7s %7s\n",
              "load(qps)", "conc", "batch", "p50 resp", "p95 resp",
              "p99 resp", "qps out", "h2d", "gpu", "groups");
  bench::Json rows = bench::Json::array();

  for (const double rho : rhos) {
    const double qps = rho * capacity_qps;
    service::ServiceConfig scfg;
    scfg.arrival_qps = qps;
    const auto rb = service::run_service(
        std::span<const sim::Duration>(base_times), scfg);
    const auto ub = base_run.engine_overlap.busy_fractions(rb.horizon);
    const double base_qps_out =
        rb.horizon.ms() > 0.0
            ? 1000.0 * double(rb.response_ms.count()) / rb.horizon.ms()
            : 0.0;
    std::printf("%-10.0f %-6s %-6s %10.2f %10.2f %10.2f %9.1f %6.1f%% "
                "%6.1f%% %7s\n",
                qps, "seq", "-", rb.response_ms.percentile(50),
                rb.response_ms.percentile(95), rb.response_ms.percentile(99),
                base_qps_out,
                100.0 * ub[std::size_t(sim::Resource::kCopyH2D)],
                100.0 * ub[std::size_t(sim::Resource::kGpuCompute)], "-");
    bench::Json row = bench::Json::object();
    row["rho"] = rho;
    row["qps"] = qps;
    row["mode"] = "sequential";
    row["response"] = bench::latency_json(rb.response_ms);
    row["sustained_qps"] = base_qps_out;
    row["resource_utilization"] = bench::resource_utilization_json(ub);
    row["horizon_ms"] = rb.horizon.ms();
    rows.push_back(std::move(row));

    // ---- Multi-tenant cells: admission window x batching ----
    for (const std::uint32_t conc : {1u, 2u, 4u, 8u}) {
      for (const bool batching : {false, true}) {
        tenancy::TenancyOptions topt;
        topt.max_concurrency = conc;
        topt.batch.enabled = batching;
        tenancy::DeviceManager device(idx, {}, topt);
        const auto rt = service::run_service(device, log, scfg);
        const double qps_out =
            rt.horizon.ms() > 0.0
                ? 1000.0 * double(rt.response_ms.count()) / rt.horizon.ms()
                : 0.0;
        std::printf("%-10.0f %-6u %-6s %10.2f %10.2f %10.2f %9.1f %6.1f%% "
                    "%6.1f%% %7llu\n",
                    qps, conc, batching ? "on" : "off",
                    rt.response_ms.percentile(50),
                    rt.response_ms.percentile(95),
                    rt.response_ms.percentile(99), qps_out,
                    100.0 * rt.resource_utilization[std::size_t(
                                sim::Resource::kCopyH2D)],
                    100.0 * rt.resource_utilization[std::size_t(
                                sim::Resource::kGpuCompute)],
                    static_cast<unsigned long long>(device.batch_groups()));
        bench::Json cell = bench::Json::object();
        cell["rho"] = rho;
        cell["qps"] = qps;
        cell["mode"] = "tenant";
        cell["concurrency"] = conc;
        cell["batching"] = batching;
        cell["response"] = bench::latency_json(rt.response_ms);
        cell["service"] = bench::latency_json(rt.service_ms);
        cell["sustained_qps"] = qps_out;
        cell["utilization"] = rt.utilization;
        cell["resource_utilization"] =
            bench::resource_utilization_json(rt.resource_utilization);
        cell["horizon_ms"] = rt.horizon.ms();
        cell["batch_groups"] = device.batch_groups();
        cell["batched_steps"] = rt.trace.batched_steps;
        cell["overlap_saved_us"] = rt.engine_overlap.saved.us();
        cell["shed"] = rt.faults.shed_queries;
        rows.push_back(std::move(cell));
      }
    }
  }

  std::printf("\n(qps out = completed queries / device makespan; h2d/gpu = "
              "shared-timeline\nbusy fractions. Concurrency feeds the copy "
              "engines work from many queries\nat once; batching fuses "
              "co-admitted GPU steps into shared launches.)\n");

  bench::Json root = bench::Json::object();
  root["bench"] = "multi_tenant";
  root["fast_mode"] = bench::fast_mode();
  root["queries"] = static_cast<std::uint64_t>(log.size());
  root["cells"] = std::move(rows);
  bench::write_bench_json("multi_tenant", root);
  return 0;
}
