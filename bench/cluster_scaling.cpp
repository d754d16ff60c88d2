// Extension bench — cluster scaling (the paper's closing future work:
// "more complex scenarios under heavy system loads with multiple users",
// taken to its production shape). One logical index is served as N
// document-partitioned shards behind a scatter-gather broker
// (src/cluster/); this bench sweeps the shard count and independently
// toggles the broker's two latency defenses:
//
//   - hedged requests, under deterministic straggler injection (5% of
//     primary shard requests run 20x slow): the adaptive-p95 hedge
//     re-issues exactly those to an idle replica, collapsing p99;
//   - the LRU result cache, fed a Zipf-skewed repeated query stream: the
//     popular head is answered at the broker without any shard fan-out.
//
// Everything is seeded; two runs print identical tables.
#include <cstdio>

#include "bench_common.h"
#include "cluster/broker.h"
#include "core/hybrid_engine.h"
#include "service/service_sim.h"

using namespace griffin;

namespace {

const char* onoff(bool b) { return b ? "on" : "off"; }

}  // namespace

int main() {
  workload::CorpusConfig cfg = bench::paper_corpus_config();
  cfg.num_docs = bench::fast_mode() ? 200'000 : 1'000'000;
  cfg.num_terms = bench::fast_mode() ? 300 : 1'500;
  std::fprintf(stderr, "[cluster_scaling] building/loading corpus...\n");
  const auto idx = bench::cached_corpus(cfg);

  // Zipf-skewed repeated stream: the head recurs, so the cache has heads to
  // hit; the tail keeps the shards honest.
  auto base = bench::paper_query_config(1, cfg);
  workload::RepeatedLogConfig rep;
  rep.num_queries = static_cast<std::uint32_t>(bench::scaled(600));
  rep.unique_queries = static_cast<std::uint32_t>(bench::scaled(150));
  rep.popularity_zipf_s = 1.1;
  rep.seed = 505;
  const auto stream =
      workload::generate_repeated_query_log(base, rep, cfg.num_terms);

  // Offered load calibrated to the single-node service rate so the 1-shard
  // baseline runs at moderate utilization and scaling headroom is visible.
  core::HybridEngine probe(idx);
  sim::Duration probe_total;
  const std::size_t probe_n = std::min<std::size_t>(stream.size(), 50);
  for (std::size_t i = 0; i < probe_n; ++i) {
    probe_total += probe.execute(stream[i]).metrics.total;
  }
  const double mean_service_s =
      probe_total.seconds() / static_cast<double>(probe_n);
  const double qps = 0.5 / mean_service_s;

  bench::print_header(
      "Extension: cluster scaling — sharded scatter-gather broker",
      "future work (heavy system loads, multiple users); Dean & Barroso "
      "hedging");
  std::printf("corpus: %u docs, %u terms; stream: %u queries (%u unique), "
              "offered load %.0f qps\nstragglers: 5%% of primary shard "
              "requests run 20x slow (injected, seeded)\n\n",
              cfg.num_docs, cfg.num_terms, rep.num_queries,
              rep.unique_queries, qps);
  std::printf("%-7s %-6s %-6s %9s %9s %9s %8s %8s %9s %8s %8s\n", "shards",
              "hedge", "cache", "p50(ms)", "p99(ms)", "util", "hit%",
              "hedges", "hedgewon", "dev-h%", "host-h%");

  bench::Json rows = bench::Json::array();
  for (const std::uint32_t shards : {1u, 2u, 4u, 8u}) {
    for (const bool hedging : {false, true}) {
      for (const bool caching : {false, true}) {
        cluster::ClusterConfig ccfg;
        ccfg.num_shards = shards;
        ccfg.partition = cluster::PartitionStrategy::kRoundRobin;
        ccfg.replicas_per_shard = 2;
        ccfg.arrival_qps = qps;
        ccfg.seed = 2027;
        ccfg.faults.slow.probability = 0.05;
        ccfg.faults.slow_factor = 20.0;
        ccfg.hedge.enabled = hedging;
        ccfg.hedge.percentile = 95.0;
        ccfg.hedge.min_samples = 16;
        ccfg.cache_capacity = caching ? 256 : 0;
        // Byte-budgeted result cache (DESIGN.md §7): entry count is still
        // the binding limit here, but the bytes are now accounted and
        // reported below.
        ccfg.cache_budget_bytes = caching ? (std::uint64_t{1} << 20) : 0;

        cluster::ClusterBroker broker(idx, ccfg);
        const auto res = broker.run(stream);

        double util = 0.0;
        for (const double u : res.shard_utilization) util += u;
        util /= static_cast<double>(res.shard_utilization.size());

        // Engine-tier caches (device lists + host decoded postings) warm on
        // the same Zipf head the broker's result cache exploits; their hit
        // rates are the per-shard view of that skew.
        std::printf("%-7u %-6s %-6s %9.3f %9.3f %8.0f%% %7.0f%% %8llu %9llu "
                    "%7.0f%% %7.0f%%\n",
                    shards, onoff(hedging), onoff(caching),
                    res.response_ms.percentile(50),
                    res.response_ms.percentile(99), 100.0 * util,
                    100.0 * res.cache.hit_rate(),
                    static_cast<unsigned long long>(res.hedge.issued),
                    static_cast<unsigned long long>(res.hedge.won),
                    100.0 * res.engine_cache.device_hit_rate(),
                    100.0 * res.engine_cache.host_hit_rate());

        bench::Json row = bench::Json::object();
        row["shards"] = shards;
        row["hedging"] = hedging;
        row["result_cache"] = caching;
        row["response_ms"] = bench::latency_json(res.response_ms);
        row["utilization"] = util;
        row["result_cache_hit_rate"] = res.cache.hit_rate();
        row["result_cache_bytes"] = res.result_cache_bytes;
        row["result_cache_counters"] = bench::counters_json(res.cache);
        row["hedges_issued"] = res.hedge.issued;
        row["hedges_won"] = res.hedge.won;
        row["engine_cache"] = bench::cache_json(res.engine_cache);
        rows.push_back(std::move(row));
      }
    }
    std::printf("\n");
  }

  bench::Json root = bench::Json::object();
  root["bench"] = "cluster_scaling";
  root["fast_mode"] = bench::fast_mode();
  root["num_docs"] = cfg.num_docs;
  root["num_terms"] = cfg.num_terms;
  root["offered_qps"] = qps;
  root["rows"] = std::move(rows);
  bench::write_bench_json("cluster_scaling", root);

  std::printf("(p99 with hedging on should sit well below hedging off at "
              "every shard count:\nthe injected stragglers are exactly the "
              "requests the adaptive p95 timer re-issues.\ncache hits skip "
              "the whole scatter-gather, so p50 drops toward the broker's\n"
              "cache-hit latency once the Zipf head warms the LRU.)\n");
  return 0;
}
