// Extension bench — device-resident posting-list cache and host
// decoded-postings cache (DESIGN.md §7). The paper uploads every posting
// list over PCIe per query; on production streams the term popularity is
// Zipf-skewed, so a byte-budgeted LRU of uploaded lists in spare device
// memory (and of decoded lists in host memory) removes the dominant
// transfer/decode charges for the hot head.
//
// This bench replays Zipf-repeated query streams at three skews against a
// sweep of {scheduler policy} x {cache configuration} — one warm-up replay,
// then a measured replay (steady state) — and reports the latency
// distribution, the cache-tier hit rates, and — the correctness gate —
// whether every cached run returned bit-identical top-k results (doc ids
// and float-exact scores) to the cache-off baseline. Exits non-zero on any
// mismatch. Everything is seeded; two runs print the same.
#include <cstdio>
#include <string>
#include <vector>

#include "bench_common.h"
#include "core/hybrid_engine.h"
#include "cpu/engine.h"
#include "util/stats.h"

using namespace griffin;

namespace {

struct CacheConfig {
  const char* name;
  std::uint64_t device_bytes;  // GPU list-cache budget (0 = off)
  std::size_t host_bytes;      // host decoded-cache budget (0 = off)

  bool any() const { return device_bytes != 0 || host_bytes != 0; }
};

struct RunResult {
  util::PercentileTracker lat_ms;
  core::CacheCounters cache;
  std::vector<std::vector<core::ScoredDoc>> topk;
};

/// One warm-up replay, then a measured replay. Warming isolates the
/// steady-state effect the cache exists for (the cold pass costs exactly
/// the uncached engine's price by construction — tests/test_list_cache and
/// tests/test_decoded_cache pin that); for cache-off configs the engine is
/// stateless, so the warm-up changes nothing and the comparison is fair.
template <typename Engine>
RunResult run_warmed(Engine& engine, const std::vector<core::Query>& stream) {
  for (const auto& q : stream) engine.execute(q);

  RunResult r;
  r.lat_ms.reserve(stream.size());
  r.topk.reserve(stream.size());
  for (const auto& q : stream) {
    auto res = engine.execute(q);
    r.lat_ms.add(res.metrics.total.ms());
    r.cache += res.metrics.cache;
    r.topk.push_back(std::move(res.topk));
  }
  return r;
}

RunResult run_stream(const index::InvertedIndex& idx,
                     const std::vector<core::Query>& stream,
                     core::SchedulerPolicy policy, const CacheConfig& cc) {
  core::HybridOptions opt;
  opt.scheduler.policy = policy;
  opt.gpu.list_cache_bytes = cc.device_bytes;
  opt.cpu.decoded_cache_bytes = cc.host_bytes;
  core::HybridEngine engine(idx, {}, opt);
  return run_warmed(engine, stream);
}

RunResult run_cpu_stream(const index::InvertedIndex& idx,
                         const std::vector<core::Query>& stream,
                         std::size_t decoded_cache_bytes) {
  cpu::CpuEngineOptions opt;
  opt.decoded_cache_bytes = decoded_cache_bytes;
  // The decoded cache fills on the skip path's probe decode (the merge path
  // is deliberately lookup-only; see cpu/svs_step.h). This bench corpus has
  // milder length ratios than the paper's, so lower the skip threshold to
  // put the stream on the path the cache serves. Applied to baseline and
  // cached runs alike, so the bit-identical comparison is like-for-like.
  opt.skip_ratio = 1.0;
  cpu::CpuEngine engine(idx, {}, opt);
  return run_warmed(engine, stream);
}

bool identical_topk(const RunResult& a, const RunResult& b) {
  if (a.topk.size() != b.topk.size()) return false;
  for (std::size_t i = 0; i < a.topk.size(); ++i) {
    const auto& x = a.topk[i];
    const auto& y = b.topk[i];
    if (x.size() != y.size()) return false;
    for (std::size_t j = 0; j < x.size(); ++j) {
      if (x[j].doc != y[j].doc || x[j].score != y[j].score) return false;
    }
  }
  return true;
}

const char* policy_name(core::SchedulerPolicy p) {
  return p == core::SchedulerPolicy::kCostModel ? "cost" : "ratio";
}

}  // namespace

int main() {
  workload::CorpusConfig cfg = bench::paper_corpus_config();
  cfg.num_docs = bench::fast_mode() ? 200'000 : 1'000'000;
  cfg.num_terms = bench::fast_mode() ? 300 : 1'500;
  std::fprintf(stderr, "[list_cache] building/loading corpus...\n");
  const auto idx = bench::cached_corpus(cfg);

  const std::size_t device_mem = sim::HardwareSpec{}.pcie.device_mem_bytes;
  // The default device budget leaves 1 GiB of the 5 GiB device for the
  // per-query working set.
  const std::uint64_t device_default = gpu::GpuOptions{}.list_cache_bytes;
  const CacheConfig configs[] = {
      {"off", 0, 0},
      {"device", device_default, 0},
      {"dev+host", device_default, std::size_t{1} << 30},
      // Tight budgets (512 KiB device, 64 KiB host) force eviction churn:
      // the hot head should still hit while the tail cycles through.
      {"tight", std::uint64_t{512} << 10, std::size_t{64} << 10},
  };

  bench::print_header(
      "Extension: device-resident list cache + host decoded cache",
      "removes per-query PCIe upload (paper charges it on every query)");
  std::printf("corpus: %u docs, %u terms; device mem %zu MiB\n\n", cfg.num_docs,
              cfg.num_terms, device_mem >> 20);
  std::printf("%-5s %-6s %-9s %9s %9s %9s %9s %7s %7s %8s %5s\n", "zipf",
              "policy", "cache", "mean(ms)", "p50(ms)", "p95(ms)", "p99(ms)",
              "dev-h%", "host-h%", "evict", "same");

  bench::Json runs = bench::Json::array();
  bool all_identical = true;

  for (const double zipf : {0.7, 1.1, 1.5}) {
    auto base = bench::paper_query_config(1, cfg);
    workload::RepeatedLogConfig rep;
    rep.num_queries = static_cast<std::uint32_t>(bench::scaled(400));
    rep.unique_queries = static_cast<std::uint32_t>(bench::scaled(100));
    rep.popularity_zipf_s = zipf;
    rep.seed = 707;
    const auto stream =
        workload::generate_repeated_query_log(base, rep, cfg.num_terms);

    for (const auto policy : {core::SchedulerPolicy::kRatioThreshold,
                              core::SchedulerPolicy::kCostModel}) {
      // Fresh cache-off baseline per (zipf, policy): the reference both for
      // latency (warm-cache speedup) and for bit-identical top-k.
      const RunResult baseline = run_stream(idx, stream, policy, configs[0]);

      for (const CacheConfig& cc : configs) {
        const RunResult r =
            cc.any() ? run_stream(idx, stream, policy, cc) : RunResult{};
        const RunResult& cur = cc.any() ? r : baseline;
        const bool same = identical_topk(baseline, cur);
        all_identical = all_identical && same;

        const auto evictions =
            cur.cache.device_evictions + cur.cache.host_evictions;
        std::printf(
            "%-5.1f %-6s %-9s %9.3f %9.3f %9.3f %9.3f %6.0f%% %6.0f%% %8llu "
            "%5s\n",
            zipf, policy_name(policy), cc.name, cur.lat_ms.mean(),
            cur.lat_ms.percentile(50), cur.lat_ms.percentile(95),
            cur.lat_ms.percentile(99), 100.0 * cur.cache.device_hit_rate(),
            100.0 * cur.cache.host_hit_rate(),
            static_cast<unsigned long long>(evictions), same ? "yes" : "NO");

        bench::Json row = bench::Json::object();
        row["zipf_s"] = zipf;
        row["policy"] = policy_name(policy);
        row["cache"] = cc.name;
        row["latency_ms"] = bench::latency_json(cur.lat_ms);
        bench::Json cache = bench::Json::object();
        cache["device_hits"] = cur.cache.device_hits;
        cache["device_misses"] = cur.cache.device_misses;
        cache["device_evictions"] = cur.cache.device_evictions;
        cache["device_hit_rate"] = cur.cache.device_hit_rate();
        cache["host_hits"] = cur.cache.host_hits;
        cache["host_misses"] = cur.cache.host_misses;
        cache["host_evictions"] = cur.cache.host_evictions;
        cache["host_hit_rate"] = cur.cache.host_hit_rate();
        row["cache_counters"] = cache;
        row["identical_to_baseline"] = same;
        row["speedup_mean_vs_off"] = baseline.lat_ms.mean() / cur.lat_ms.mean();
        row["speedup_p99_vs_off"] =
            baseline.lat_ms.percentile(99) / cur.lat_ms.percentile(99);
        runs.push_back(std::move(row));
      }
      std::printf("\n");
    }
  }

  // ---- Host decoded-postings tier in isolation ----
  // The hybrid engine routes the heavy steps of this stream to the GPU, so
  // the host tier barely registers above; the CPU-only engine is where it
  // pays (skip-path probe decodes recur on the hot head). Same bit-identical
  // gate against a cache-off CPU baseline.
  std::printf(
      "\nHost decoded-postings tier (CPU-only engine, same streams):\n");
  std::printf("%-5s %-9s %9s %9s %9s %7s %8s %5s\n", "zipf", "cache",
              "mean(ms)", "p50(ms)", "p99(ms)", "host-h%", "evict", "same");

  bench::Json cpu_runs = bench::Json::array();
  struct HostConfig { const char* name; std::size_t bytes; };
  const HostConfig host_configs[] = {
      {"off", 0},
      {"host", std::size_t{1} << 30},
      {"tight", std::size_t{64} << 10},
  };
  for (const double zipf : {0.7, 1.5}) {
    auto base = bench::paper_query_config(1, cfg);
    workload::RepeatedLogConfig rep;
    rep.num_queries = static_cast<std::uint32_t>(bench::scaled(400));
    rep.unique_queries = static_cast<std::uint32_t>(bench::scaled(100));
    rep.popularity_zipf_s = zipf;
    rep.seed = 707;
    const auto stream =
        workload::generate_repeated_query_log(base, rep, cfg.num_terms);

    const RunResult baseline = run_cpu_stream(idx, stream, 0);
    for (const HostConfig& hc : host_configs) {
      const RunResult r =
          hc.bytes != 0 ? run_cpu_stream(idx, stream, hc.bytes) : RunResult{};
      const RunResult& cur = hc.bytes != 0 ? r : baseline;
      const bool same = identical_topk(baseline, cur);
      all_identical = all_identical && same;

      std::printf("%-5.1f %-9s %9.3f %9.3f %9.3f %6.0f%% %8llu %5s\n", zipf,
                  hc.name, cur.lat_ms.mean(), cur.lat_ms.percentile(50),
                  cur.lat_ms.percentile(99),
                  100.0 * cur.cache.host_hit_rate(),
                  static_cast<unsigned long long>(cur.cache.host_evictions),
                  same ? "yes" : "NO");

      bench::Json row = bench::Json::object();
      row["zipf_s"] = zipf;
      row["cache"] = hc.name;
      row["latency_ms"] = bench::latency_json(cur.lat_ms);
      row["host_hits"] = cur.cache.host_hits;
      row["host_misses"] = cur.cache.host_misses;
      row["host_evictions"] = cur.cache.host_evictions;
      row["host_hit_rate"] = cur.cache.host_hit_rate();
      row["identical_to_baseline"] = same;
      row["speedup_mean_vs_off"] = baseline.lat_ms.mean() / cur.lat_ms.mean();
      cpu_runs.push_back(std::move(row));
    }
    std::printf("\n");
  }

  // ---- Codec dimension: budget x Zipf x codec ----
  // The device cache admits by *actual* compressed footprint (blob words +
  // descriptors), so the codec decides how many lists a byte budget holds:
  // a tighter codec turns the same budget into more resident lists and a
  // higher hit rate. Swept over fixed schemes and the adaptive selector on
  // a re-encoded copy of the corpus; the bit-identical gate applies per
  // codec (its own cache-off baseline).
  std::printf("\nCodec dimension (device cache, budget x zipf x codec):\n");
  std::printf("%-9s %-6s %-5s %9s %9s %7s %8s %5s\n", "codec", "cache",
              "zipf", "mean(ms)", "p99(ms)", "dev-h%", "evict", "same");

  struct CodecConfig {
    const char* name;
    codec::Scheme scheme;
    bool adaptive;
  };
  const CodecConfig codecs[] = {
      {"ef", codec::Scheme::kEliasFano, false},
      {"pfor", codec::Scheme::kPForDelta, false},
      {"vbyte", codec::Scheme::kVarByte, false},
      {"adaptive", codec::Scheme::kEliasFano, true},
  };
  bench::Json codec_runs = bench::Json::array();
  for (const CodecConfig& co : codecs) {
    workload::CorpusConfig ccfg = cfg;
    ccfg.scheme = co.scheme;
    ccfg.adaptive = co.adaptive;
    const auto cidx = bench::cached_corpus(ccfg);
    for (const double zipf : {0.7, 1.5}) {
      auto base = bench::paper_query_config(1, ccfg);
      workload::RepeatedLogConfig rep;
      rep.num_queries = static_cast<std::uint32_t>(bench::scaled(400));
      rep.unique_queries = static_cast<std::uint32_t>(bench::scaled(100));
      rep.popularity_zipf_s = zipf;
      rep.seed = 707;
      const auto stream =
          workload::generate_repeated_query_log(base, rep, ccfg.num_terms);
      const RunResult baseline = run_stream(
          cidx, stream, core::SchedulerPolicy::kRatioThreshold, configs[0]);
      for (const CacheConfig& cc : {configs[1], configs[3]}) {
        const RunResult r = run_stream(
            cidx, stream, core::SchedulerPolicy::kRatioThreshold, cc);
        const bool same = identical_topk(baseline, r);
        all_identical = all_identical && same;
        std::printf("%-9s %-6s %-5.1f %9.3f %9.3f %6.0f%% %8llu %5s\n",
                    co.name, cc.name, zipf, r.lat_ms.mean(),
                    r.lat_ms.percentile(99),
                    100.0 * r.cache.device_hit_rate(),
                    static_cast<unsigned long long>(r.cache.device_evictions),
                    same ? "yes" : "NO");

        bench::Json row = bench::Json::object();
        row["codec"] = co.name;
        row["cache"] = cc.name;
        row["zipf_s"] = zipf;
        row["latency_ms"] = bench::latency_json(r.lat_ms);
        row["device_hit_rate"] = r.cache.device_hit_rate();
        row["device_evictions"] = r.cache.device_evictions;
        row["compressed_docid_bytes"] = cidx.compressed_docid_bytes();
        row["identical_to_baseline"] = same;
        row["speedup_mean_vs_off"] = baseline.lat_ms.mean() / r.lat_ms.mean();
        codec_runs.push_back(std::move(row));
      }
    }
    std::printf("\n");
  }

  std::printf("(warm device cache removes the PCIe upload + allocation from\n"
              "every repeated heavy-term step, so mean and p99 drop vs 'off'\n"
              "and drop further the hotter the Zipf head; 'tight' shows the\n"
              "budget under eviction pressure. 'same' must read yes: caching\n"
              "is a pure cost optimization, results are bit-identical.)\n");

  bench::Json root = bench::Json::object();
  root["bench"] = "list_cache";
  root["fast_mode"] = bench::fast_mode();
  root["num_docs"] = cfg.num_docs;
  root["num_terms"] = cfg.num_terms;
  root["device_mem_bytes"] = static_cast<std::uint64_t>(device_mem);
  root["all_identical"] = all_identical;
  root["runs"] = std::move(runs);
  root["cpu_runs"] = std::move(cpu_runs);
  root["codec_runs"] = std::move(codec_runs);
  bench::write_bench_json("list_cache", root);

  if (!all_identical) {
    std::fprintf(stderr, "[list_cache] FAIL: cached results differ from "
                         "cache-off baseline\n");
    return 1;
  }
  return 0;
}
