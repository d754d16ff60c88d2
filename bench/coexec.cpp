// Co-execution ablation (DESIGN.md §15). Two engine configurations — step
// splitting off (`baseline`) and on (`split`), both with the engine's
// default inter-step pipelining — run the same two workloads:
//   * the paper's mixed query log (splits fire only where the scheduler's
//     band admits them);
//   * a band-targeted set of pair queries whose list-length ratios land
//     inside the split band [lambda_lo, lambda_hi], where co-executing one
//     step is exactly what the three-way scheduler is for.
// Results must be bit-identical across both configurations (splitting
// moves work between processors, never changes it); the bench
// asserts that and records a top-k digest, which doubles as the
// determinism anchor: two runs of this bench must emit byte-identical
// JSON, and CI diffs them.
#include <cstdio>
#include <string>
#include <vector>

#include "bench_common.h"
#include "core/hybrid_engine.h"
#include "util/stats.h"

using namespace griffin;

namespace {

struct Config {
  const char* name;
  bool split;
};

struct RunStats {
  util::PercentileTracker latency;
  std::uint64_t split_steps = 0;
  std::uint64_t host_decodes = 0;
  std::uint64_t prefetch_issued = 0;
  std::uint64_t prefetch_used = 0;
  double overlap_saved_ms = 0.0;
  /// FNV over top-k docs and score bits.
  std::uint64_t digest = 14695981039346656037ull;
};

void fold_digest(std::uint64_t& d, std::uint64_t v) {
  d = (d ^ v) * 1099511628211ull;
}

/// Adds one executed query to a run's stats. The saved time is summed in
/// ms as doubles, query by query, which is the JSON's overlap_saved_ms.
void fold(RunStats& st, const core::QueryResult& res) {
  st.latency.add(res.metrics.total.ms());
  core::TraceSummary sum;
  sum.add(res.trace);
  st.split_steps += sum.split_intersects;
  st.host_decodes += sum.host_decode_steps;
  st.prefetch_issued += res.metrics.overlap.prefetch_issued;
  st.prefetch_used += res.metrics.overlap.prefetch_used;
  st.overlap_saved_ms += res.metrics.overlap.saved.ms();
  fold_digest(st.digest, res.metrics.result_count);
  for (const auto& d : res.topk) {
    fold_digest(st.digest, d.doc);
    fold_digest(st.digest, std::bit_cast<std::uint32_t>(d.score));
  }
}

core::HybridOptions options(const Config& cfg) {
  core::HybridOptions opt;
  opt.scheduler.split = cfg.split;
  return opt;
}

RunStats run_workload(const index::InvertedIndex& idx, const Config& cfg,
                      const std::vector<core::Query>& log) {
  core::HybridEngine engine(idx, {}, options(cfg));
  RunStats st;
  for (const auto& q : log) fold(st, engine.execute(q));
  return st;
}

/// Band-targeted pair workload. Natural Zipf corpora rarely put a large
/// probe against a list hundreds of times longer, so the band regime is
/// synthesized the way bench/crossover does: the shorter list indexed twice
/// (step 1 is the identity intersect, leaving it as the resident
/// intermediate) against a list lambda times longer — step 2 is then
/// exactly the in-band steady-state step the split scheduler targets.
/// VarByte, not Elias-Fano: these synthetic lists are dense (up to ~44% of
/// the universe), and EF compresses them under a byte per element, which
/// cheapens the GPU leg's deferred transfer enough that a pure-GPU step
/// clears the split's min-gain gate. VarByte's >= 1 B/elem payload keeps
/// the transfer term honest and the three-way comparison lands on kSplit —
/// the regime this workload exists to exercise.
struct BandPair {
  index::InvertedIndex idx;
  core::Query q;
};

std::vector<BandPair> band_targeted_pairs() {
  util::Xoshiro256 rng(515);
  const index::DocId universe = 48'000'000;
  const std::uint64_t shorter = bench::fast_mode() ? 48'000 : 192'000;
  std::vector<BandPair> out;
  for (const double lambda : {160.0, 224.0, 320.0, 440.0}) {
    const auto pair = workload::make_pair_with_ratio(
        static_cast<std::uint64_t>(lambda * static_cast<double>(shorter)),
        lambda, universe, 0.4, rng);
    BandPair bp{bench::pair_index(pair, universe, codec::Scheme::kVarByte),
                {}};
    bp.q.terms = {0, 1, 2};
    bp.q.k = 10;
    out.push_back(std::move(bp));
  }
  return out;
}

RunStats run_pairs(const std::vector<BandPair>& pairs, const Config& cfg) {
  RunStats st;
  for (const auto& bp : pairs) {
    core::HybridEngine engine(bp.idx, {}, options(cfg));
    fold(st, engine.execute(bp.q));
  }
  return st;
}

bench::Json stats_json(const RunStats& st) {
  bench::Json j = bench::Json::object();
  j["latency"] = bench::latency_json(st.latency);
  j["split_steps"] = st.split_steps;
  j["host_decode_steps"] = st.host_decodes;
  j["prefetch_issued"] = st.prefetch_issued;
  j["prefetch_used"] = st.prefetch_used;
  j["overlap_saved_ms"] = st.overlap_saved_ms;
  j["topk_digest"] = std::to_string(st.digest);  // string: exact uint64
  return j;
}

}  // namespace

int main() {
  bench::print_header(
      "Co-execution ablation: split steps",
      "intra-query CPU+GPU parallelism on top of per-step placement");

  const auto corpus_cfg = bench::paper_corpus_config();
  const auto idx = bench::cached_corpus(corpus_cfg);
  const auto mixed = workload::generate_query_log(
      bench::paper_query_config(120, corpus_cfg),
      static_cast<std::uint32_t>(idx.num_terms()));
  const auto banded = band_targeted_pairs();

  const Config configs[] = {
      {"baseline", false},
      {"split", true},
  };

  bench::Gates gates("coexec");
  bench::Json root = bench::Json::object();
  root["bench"] = "coexec";
  root["fast_mode"] = bench::fast_mode();
  root["band_queries"] = static_cast<std::uint64_t>(banded.size());

  for (const auto* wl : {"mixed", "band"}) {
    const bool is_mixed = std::string(wl) == "mixed";
    std::printf("\n%s workload (%zu queries):\n", wl,
                is_mixed ? mixed.size() : banded.size());
    std::printf("  %-16s %10s %10s %8s %8s %10s %8s\n", "config", "mean(ms)",
                "p95(ms)", "splits", "hostdec", "pf use/iss", "vs base");
    bench::Json rows = bench::Json::object();
    double base_mean = 0.0;
    std::uint64_t base_digest = 0;
    bool identical = true;
    for (const auto& cfg : configs) {
      const RunStats st =
          is_mixed ? run_workload(idx, cfg, mixed) : run_pairs(banded, cfg);
      const double mean = st.latency.count() ? st.latency.mean() : 0.0;
      if (std::string(cfg.name) == "baseline") {
        base_mean = mean;
        base_digest = st.digest;
      } else if (st.digest != base_digest) {
        identical = false;
      }
      const double speedup = mean > 0.0 ? base_mean / mean : 0.0;
      std::printf("  %-16s %10.3f %10.3f %8llu %8llu %5llu/%-4llu %7.3fx\n",
                  cfg.name, mean,
                  st.latency.count() ? st.latency.percentile(95) : 0.0,
                  static_cast<unsigned long long>(st.split_steps),
                  static_cast<unsigned long long>(st.host_decodes),
                  static_cast<unsigned long long>(st.prefetch_used),
                  static_cast<unsigned long long>(st.prefetch_issued),
                  speedup);
      // Split steps must really fire on the band-targeted workload (the
      // ablation is vacuous otherwise), and pay off there.
      if (!is_mixed && std::string(cfg.name) == "split") {
        gates.check(st.split_steps > 0, "band workload executed no splits");
        gates.check(speedup > 1.0, "splitting slowed the band workload");
      }
      bench::Json row = stats_json(st);
      row["speedup_vs_baseline"] = speedup;
      rows[cfg.name] = std::move(row);
    }
    // Moving work between processors must never change results: every
    // config's top-k digest matches the baseline's.
    gates.check(identical, std::string(wl) + ": co-execution changed results");
    rows["results_identical"] = identical;
    root[wl] = std::move(rows);
    std::printf("  (top-k digests %s across configs)\n",
                identical ? "identical" : "DIVERGED");
  }

  bench::write_bench_json("coexec", root);
  return gates.exit_code();
}
