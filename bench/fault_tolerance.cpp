// Extension bench — fault tolerance and degraded execution (DESIGN.md §11).
// The cluster broker replays one seeded query stream while replica crashes
// (and engine-level GPU/PCIe faults) are injected at a swept rate, crossed
// with the per-shard deadline and the per-replica circuit breaker:
//
//   - fault rate x {no deadline, tight, loose} x {breaker off, on};
//   - reported per cell: p50/p99 response, mean/min coverage, the degraded
//     fraction, and the full fault-counter block.
//
// The zero-rate row doubles as the golden-parity check: with every site
// disarmed the broker runs the exact pre-fault code path, so that row must
// be bit-identical across builds that only add fault machinery. Everything
// is seeded; two runs print identical tables and write identical JSON (the
// CI determinism gate diffs them).
#include <algorithm>
#include <cstdio>
#include <span>

#include "bench_common.h"
#include "cluster/broker.h"
#include "core/hybrid_engine.h"
#include "tenancy/device_manager.h"

using namespace griffin;

namespace {

const char* onoff(bool b) { return b ? "on" : "off"; }

struct DeadlineMode {
  const char* name;
  double scale;  ///< multiple of the fault-free p99 shard critical; 0 = off
};

}  // namespace

int main() {
  workload::CorpusConfig cfg = bench::paper_corpus_config();
  cfg.num_docs = bench::fast_mode() ? 200'000 : 1'000'000;
  cfg.num_terms = bench::fast_mode() ? 300 : 1'500;
  std::fprintf(stderr, "[fault_tolerance] building/loading corpus...\n");
  const auto idx = bench::cached_corpus(cfg);

  auto qcfg = bench::paper_query_config(1, cfg);
  qcfg.num_queries = static_cast<std::uint32_t>(bench::scaled(400));
  qcfg.seed = 606;
  const auto stream = workload::generate_query_log(qcfg, cfg.num_terms);

  // Offered load calibrated to the single-node service rate (as in
  // bench/cluster_scaling) so queueing neither vanishes nor explodes.
  core::HybridEngine probe(idx);
  sim::Duration probe_total;
  const std::size_t probe_n = std::min<std::size_t>(stream.size(), 50);
  for (std::size_t i = 0; i < probe_n; ++i) {
    probe_total += probe.execute(stream[i]).metrics.total;
  }
  const double mean_service_s =
      probe_total.seconds() / static_cast<double>(probe_n);
  const double qps = 0.5 / mean_service_s;

  // Crash windows sized to the stream's simulated horizon: ~50 windows per
  // replica per run, so the swept rate translates into actual churn (a
  // fixed 50 ms window would be one Bernoulli per replica on a short run).
  const double horizon_ms =
      1000.0 * static_cast<double>(stream.size()) / qps;
  const double window_ms = std::max(0.2, horizon_ms / 50.0);

  const auto make_config = [&](double rate, sim::Duration deadline,
                               bool breaker) {
    cluster::ClusterConfig ccfg;
    ccfg.num_shards = 4;
    ccfg.replicas_per_shard = 2;
    ccfg.arrival_qps = qps;
    ccfg.seed = 2028;
    ccfg.faults.crash.probability = rate;
    ccfg.faults.crash_window_ms = window_ms;
    // Engine-level faults ride the same rate, scaled down: device faults,
    // DMA errors and memory pressure are rarer than whole-replica trouble
    // in practice.
    ccfg.faults.gpu.probability = rate * 0.2;
    ccfg.faults.pcie.probability = rate * 0.2;
    ccfg.faults.oom.probability = rate * 0.2;
    ccfg.faults.seed = 42;
    ccfg.shard_deadline = deadline;
    ccfg.breaker.enabled = breaker;
    ccfg.breaker.failure_threshold = 3;
    ccfg.breaker.open_duration = sim::Duration::from_ms(100.0);
    return ccfg;
  };

  // Fault-free baseline: calibrates the deadline scales and pins the
  // golden-parity row (rate 0 must match the pre-fault broker exactly).
  cluster::ClusterBroker baseline(idx, make_config(0.0, {}, false));
  const auto base = baseline.run(stream);
  const double crit_p99_ms = base.shard_critical_ms.percentile(99);

  bench::print_header(
      "Extension: fault tolerance — injected faults, deadlines, breakers",
      "robustness under the paper's future-work serving scenario (heavy "
      "loads, multiple users)");
  std::printf(
      "corpus: %u docs, %u terms; stream: %zu queries, offered load %.0f "
      "qps\ncluster: 4 shards x 2 replicas; crash windows of %.2f ms at the "
      "swept rate,\nengine GPU/PCIe faults at 0.2x that rate; deadlines "
      "scale the fault-free\np99 shard critical path (%.3f ms)\n\n",
      cfg.num_docs, cfg.num_terms, stream.size(), qps, window_ms,
      crit_p99_ms);
  std::printf("%-6s %-9s %-7s %9s %9s %9s %7s %8s %8s %8s %7s\n", "rate",
              "deadline", "breaker", "p50(ms)", "p99(ms)", "cover", "degr%",
              "failovr", "dropped", "shortckt", "misses");

  const DeadlineMode deadlines[] = {
      {"none", 0.0}, {"tight", 1.0}, {"loose", 3.0}};

  bench::Json rows = bench::Json::array();
  for (const double rate : {0.0, 0.02, 0.05, 0.10}) {
    for (const DeadlineMode& dl : deadlines) {
      for (const bool breaker : {false, true}) {
        const sim::Duration deadline =
            dl.scale > 0.0 ? sim::Duration::from_ms(crit_p99_ms * dl.scale)
                           : sim::Duration{};
        cluster::ClusterBroker broker(idx,
                                      make_config(rate, deadline, breaker));
        const auto res = broker.run(stream);

        const double degraded_frac =
            res.gathered_queries == 0
                ? 0.0
                : double(res.faults.degraded_queries) /
                      double(res.gathered_queries);

        std::printf(
            "%-6.2f %-9s %-7s %9.3f %9.3f %8.1f%% %6.1f%% %8llu %8llu "
            "%8llu %7llu\n",
            rate, dl.name, onoff(breaker), res.response_ms.percentile(50),
            res.response_ms.percentile(99), 100.0 * res.mean_coverage(),
            100.0 * degraded_frac,
            static_cast<unsigned long long>(res.faults.failovers),
            static_cast<unsigned long long>(res.faults.shards_dropped),
            static_cast<unsigned long long>(
                res.faults.breaker_short_circuits),
            static_cast<unsigned long long>(res.faults.deadline_misses));

        bench::Json row = bench::Json::object();
        row["fault_rate"] = rate;
        row["deadline"] = dl.name;
        row["deadline_ms"] = deadline.ms();
        row["breaker"] = breaker;
        row["response_ms"] = bench::latency_json(res.response_ms);
        row["shard_critical_ms"] = bench::latency_json(res.shard_critical_ms);
        row["mean_coverage"] = res.mean_coverage();
        row["min_coverage"] = res.min_coverage;
        row["degraded_fraction"] = degraded_frac;
        row["faults"] = bench::fault_json(res.faults);
        rows.push_back(std::move(row));
      }
    }
    std::printf("\n");
  }

  // Breaker ablation under a *persistent* outage: probabilistic churn
  // rarely produces the consecutive failures that open a breaker (crashes
  // recover at the next window), so this scenario pins shard 0's primary
  // down for the whole run — every query eats the crash-detect timeout plus
  // backoff until the breaker opens and short-circuits the dead replica.
  std::printf("persistent outage (shard 0 primary down for the whole run):\n");
  std::printf("%-7s %9s %9s %9s %8s %8s %9s\n", "breaker", "p50(ms)",
              "p99(ms)", "mean(ms)", "failovr", "shortckt", "backoff");
  bench::Json outage_rows = bench::Json::array();
  for (const bool breaker : {false, true}) {
    auto ccfg = make_config(0.0, {}, breaker);
    ccfg.faults.outages.push_back(
        {0, 0, sim::Duration{}, sim::Duration::from_seconds(3600)});
    cluster::ClusterBroker broker(idx, ccfg);
    const auto res = broker.run(stream);
    std::printf("%-7s %9.3f %9.3f %9.3f %8llu %8llu %8.2fms\n",
                onoff(breaker), res.response_ms.percentile(50),
                res.response_ms.percentile(99), res.response_ms.mean(),
                static_cast<unsigned long long>(res.faults.failovers),
                static_cast<unsigned long long>(
                    res.faults.breaker_short_circuits),
                res.faults.backoff_time.ms());

    bench::Json row = bench::Json::object();
    row["breaker"] = breaker;
    row["response_ms"] = bench::latency_json(res.response_ms);
    row["mean_coverage"] = res.mean_coverage();
    row["faults"] = bench::fault_json(res.faults);
    outage_rows.push_back(std::move(row));
  }
  std::printf("\n");

  // Split-execution recovery (DESIGN.md §16): every intersect splits across
  // both processors, and injected device faults kill GPU legs mid-step. The
  // CPU leg's partial survives; the lost range is redone host-side. Parity
  // against the all-CPU reference is checked inline — a bench row with
  // parity=FAIL means the recovery path corrupted a result.
  const std::size_t sub_n = std::min<std::size_t>(stream.size(), 120);
  const std::span<const core::Query> sub(stream.data(), sub_n);
  std::printf(
      "split recovery (kAlwaysSplit engine, gpu+oom faults at the swept "
      "rate):\n");
  std::printf("%-6s %9s %8s %8s %8s %8s %8s %7s\n", "rate", "mean(ms)",
              "gpufault", "legfault", "oomfault", "oomstep", "prefetch",
              "parity");
  bench::Json split_rows = bench::Json::array();
  {
    core::HybridOptions cpu_opt;
    cpu_opt.scheduler.policy = core::SchedulerPolicy::kAlwaysCpu;
    core::HybridEngine cpu_ref(idx, {}, cpu_opt);
    std::vector<core::QueryResult> want;
    want.reserve(sub_n);
    for (const auto& q : sub) want.push_back(cpu_ref.execute(q));

    for (const double rate : {0.0, 0.05, 0.10, 0.25}) {
      core::HybridOptions opt;
      opt.scheduler.policy = core::SchedulerPolicy::kAlwaysSplit;
      opt.scheduler.forced_split_alpha = 0.5;
      opt.faults.gpu.probability = rate;
      opt.faults.oom.probability = rate;
      opt.faults.seed = 4242;
      core::HybridEngine engine(idx, {}, opt);

      fault::FaultCounters f;
      sim::Duration total;
      bool parity = true;
      for (std::size_t i = 0; i < sub_n; ++i) {
        const auto res = engine.execute(sub[i]);
        f += res.metrics.faults;
        total += res.metrics.total;
        if (res.topk.size() != want[i].topk.size()) parity = false;
        for (std::size_t r = 0; parity && r < res.topk.size(); ++r) {
          parity = res.topk[r].doc == want[i].topk[r].doc &&
                   res.topk[r].score == want[i].topk[r].score;
        }
      }
      const double mean_ms = 1000.0 * total.seconds() / double(sub_n);
      std::printf("%-6.2f %9.3f %8llu %8llu %8llu %8llu %8llu %7s\n", rate,
                  mean_ms, static_cast<unsigned long long>(f.gpu_faults),
                  static_cast<unsigned long long>(f.split_leg_faults),
                  static_cast<unsigned long long>(f.oom_faults),
                  static_cast<unsigned long long>(f.oom_degraded_steps),
                  static_cast<unsigned long long>(f.prefetch_faults),
                  parity ? "ok" : "FAIL");
      bench::Json row = bench::Json::object();
      row["fault_rate"] = rate;
      row["mean_ms"] = mean_ms;
      row["parity"] = parity;
      row["faults"] = bench::fault_json(f);
      split_rows.push_back(std::move(row));
    }
  }
  std::printf("\n");

  // Fault-aware tenancy (DESIGN.md §16): the shared device runs the same
  // sub-stream under batching + concurrency with the injector armed. A
  // fault inside a fused launch degrades only the hit query; OOM pressure
  // unfuses batches or re-plans single steps.
  std::printf(
      "multi-tenant device under faults (4 lanes, batching on, gpu+oom at "
      "the swept rate):\n");
  std::printf("%-6s %9s %9s %8s %8s %8s %8s %8s\n", "rate", "p50(ms)",
              "p99(ms)", "gpufault", "oomfault", "unfused", "oomstep",
              "evicted");
  bench::Json tenancy_rows = bench::Json::array();
  for (const double rate : {0.0, 0.05, 0.10, 0.25}) {
    tenancy::TenancyOptions topt;
    topt.max_concurrency = 4;
    topt.engine.faults.gpu.probability = rate;
    topt.engine.faults.oom.probability = rate;
    topt.engine.faults.seed = 4242;
    tenancy::DeviceManager dm(idx, {}, topt);
    std::vector<tenancy::TenantQuery> load;
    load.reserve(sub_n);
    for (std::size_t i = 0; i < sub_n; ++i) {
      load.push_back({sub[i], sim::Duration::from_seconds(double(i) / qps)});
    }
    const auto results = dm.run(load);
    util::PercentileTracker resp;
    for (const auto& r : results) {
      resp.add((r.finish - r.arrival).ms());
    }
    const auto& f = dm.run_faults();
    std::printf("%-6.2f %9.3f %9.3f %8llu %8llu %8llu %8llu %8llu\n", rate,
                resp.percentile(50), resp.percentile(99),
                static_cast<unsigned long long>(f.gpu_faults),
                static_cast<unsigned long long>(f.oom_faults),
                static_cast<unsigned long long>(f.oom_unfused),
                static_cast<unsigned long long>(f.oom_degraded_steps),
                static_cast<unsigned long long>(f.oom_evictions));
    bench::Json row = bench::Json::object();
    row["fault_rate"] = rate;
    row["response_ms"] = bench::latency_json(resp);
    row["batch_groups"] = dm.batch_groups();
    row["faults"] = bench::fault_json(f);
    tenancy_rows.push_back(std::move(row));
  }
  std::printf("\n");

  bench::Json root = bench::Json::object();
  root["bench"] = "fault_tolerance";
  root["fast_mode"] = bench::fast_mode();
  root["num_docs"] = cfg.num_docs;
  root["num_terms"] = cfg.num_terms;
  root["offered_qps"] = qps;
  root["deadline_base_ms"] = crit_p99_ms;
  root["baseline_response_ms"] = bench::latency_json(base.response_ms);
  root["rows"] = std::move(rows);
  root["persistent_outage"] = std::move(outage_rows);
  root["split_recovery"] = std::move(split_rows);
  root["tenancy_under_faults"] = std::move(tenancy_rows);
  bench::write_bench_json("fault_tolerance", root);

  std::printf(
      "(the zero-rate rows reproduce the fault-free broker exactly — the "
      "golden-parity\ninvariant. as the rate climbs, 'none' rows keep "
      "coverage at 100%% by paying the\ntail in failover latency; deadline "
      "rows trade coverage for a bounded p99; the\nbreaker trims the "
      "crash-detect/backoff tax once a replica is persistently down.)\n");
  return 0;
}
