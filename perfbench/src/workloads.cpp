#include "workloads.h"

#include <algorithm>
#include <memory>
#include <stdexcept>

#include "cluster/broker.h"
#include "cluster/partitioner.h"
#include "core/hybrid_engine.h"
#include "cpu/decode.h"
#include "cpu/engine.h"
#include "cpu/intersect.h"
#include "gpu/binary_intersect.h"
#include "gpu/decode.h"
#include "gpu/engine.h"
#include "gpu/mergepath.h"
#include "index/shard.h"
#include "service/queueing.h"
#include "service/service_sim.h"
#include "tenancy/device_manager.h"
#include "workload/corpus.h"
#include "workload/querylog.h"

namespace perfbench {

namespace {

using namespace griffin;

// ---- Inputs ----------------------------------------------------------------

/// Derives independent sub-seeds from the workload seed (splitmix64).
std::uint64_t sub_seed(std::uint64_t seed, std::uint64_t salt) {
  std::uint64_t z = seed + salt * 0x9E3779B97F4A7C15ull;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

/// The paper-corpus setting of the figure benches (1M docs, 1000 terms),
/// with the corpus drawn from the workload seed.
workload::CorpusConfig corpus_config(const Config& c) {
  workload::CorpusConfig cc;
  cc.num_docs = c.num_docs;
  cc.num_terms = c.num_terms;
  cc.max_list_divisor = 3.0;
  cc.zipf_s = 0.75;
  cc.min_list_size = 512;
  cc.num_topics = 8;
  cc.topic_affinity = 0.45;
  cc.seed = sub_seed(c.seed, 1);
  return cc;
}

/// The paper query log: term Zipf 1.6, 90% topical, Figure 11 term counts.
workload::QueryLogConfig query_config(const Config& c,
                                      const workload::CorpusConfig& cc,
                                      std::uint32_t n, std::uint64_t salt = 2) {
  workload::QueryLogConfig q;
  q.num_queries = n;
  q.term_zipf_s = 1.6;
  q.num_topics = cc.num_topics;
  q.topical_fraction = 0.9;
  q.seed = sub_seed(c.seed, salt);
  return q;
}

/// Serving workloads run the paper's Xeon with its SSE4.2 unit on, so the
/// CPU lane-accounting layer is exercised; paper_mix keeps the scalar
/// paper baseline.
sim::HardwareSpec serving_hw() {
  sim::HardwareSpec hw;
  hw.cpu = sim::CpuSpec::sse4_testbed();
  return hw;
}

struct Inputs {
  std::unique_ptr<index::InvertedIndex> idx;
  std::vector<core::Query> stream;  ///< offered queries, in order
  std::vector<core::Query> warm;    ///< warm-up queries, disjoint seed
};

/// Terms in ascending id order: one spelling per conjunctive query. The
/// broker's result cache keys on the sorted term set while BM25 sums in
/// query-term order, so a permuted repeat would be served a top-k whose
/// scores differ from a fresh execution in the last bit.
void canonicalize(std::vector<core::Query>& qs) {
  for (std::size_t i = 0; i < qs.size(); ++i) {
    qs[i].id = i;
    std::sort(qs[i].terms.begin(), qs[i].terms.end());
  }
}

Inputs make_inputs(const Config& c, Tracer& tr) {
  Inputs in;
  const auto cc = corpus_config(c);
  {
    Span s(tr, "workload.generate_corpus");
    in.idx = std::make_unique<index::InvertedIndex>(
        workload::generate_corpus(cc));
  }
  Span s(tr, "workload.generate_queries");
  in.stream = workload::generate_query_log(query_config(c, cc, c.queries),
                                           cc.num_terms);
  in.warm = workload::generate_query_log(
      query_config(c, cc, c.warmup_queries, 7), cc.num_terms);
  canonicalize(in.stream);
  canonicalize(in.warm);
  return in;
}

// ---- Passes ----------------------------------------------------------------

/// Calibration loop samples (calibration_ms) taken through one pass of the
/// timed phase, outside the host time they scale.
struct Calibration {
  std::vector<double> ms;

  void sample(int reps) {
    for (int i = 0; i < reps; ++i) ms.push_back(calibration_ms());
  }
  double mean() const {
    double sum = 0.0;
    for (const double x : ms) sum += x;
    return sum / static_cast<double>(ms.size());
  }
};

/// One engine over a query list: results plus per-query host time.
struct EnginePass {
  std::vector<core::QueryResult> results;
  std::vector<double> host_ms;
  double host_s = 0.0;  ///< summed execute() time
};

/// Samples `cal`, when given, between every kCalibrationStride queries.
constexpr std::size_t kCalibrationStride = 10;

EnginePass run_engine(core::Engine& e, const std::vector<core::Query>& qs,
                      Tracer& tr, const char* span,
                      Calibration* cal = nullptr) {
  EnginePass p;
  p.results.reserve(qs.size());
  for (std::size_t i = 0; i < qs.size(); ++i) {
    if (cal != nullptr && i % kCalibrationStride == 0) cal->sample(1);
    Span s(tr, span, qs[i].id);
    const auto tq = host_now();
    p.results.push_back(e.execute(qs[i]));
    p.host_ms.push_back(seconds_since(tq) * 1e3);
    p.host_s += p.host_ms.back() / 1e3;
  }
  return p;
}

double mean_ms(const std::vector<core::QueryResult>& rs) {
  double sum = 0.0;
  for (const auto& r : rs) sum += r.metrics.total.ms();
  return rs.empty() ? 0.0 : sum / static_cast<double>(rs.size());
}

double mean(const std::vector<double>& xs) {
  double sum = 0.0;
  for (const double x : xs) sum += x;
  return xs.empty() ? 0.0 : sum / static_cast<double>(xs.size());
}

double median(const std::vector<double>& xs) { return percentile(xs, 50); }

/// Simulated outcome of one query as text: total ps and top-k bits. Two
/// passes of the same system must produce identical digests.
std::string digest(const core::QueryResult& r) {
  std::string d = std::to_string(r.metrics.total.ps());
  for (const auto& s : r.topk) {
    d += ":" + std::to_string(s.doc) + "/" + exact(s.score);
  }
  return d;
}

bool engine_identities(const core::QueryResult& r) {
  return stage_identity_holds(r.metrics) &&
         prefetch_conserved(r.metrics.overlap);
}

// ---- Simulated per-layer aggregates ----------------------------------------

struct SimAgg {
  core::TraceSummary trace;
  core::CacheCounters cache;
  core::OverlapCounters overlap;
  sim::Duration decode, intersect, transfer, rank, total;
  std::uint64_t kernels = 0;
  std::uint64_t queries = 0;

  void add(const core::QueryResult& r) {
    trace.add(r.trace);
    cache += r.metrics.cache;
    overlap += r.metrics.overlap;
    // Stage sums from the step records: per engine query they equal the
    // QueryMetrics fields, and a broker execute() carries only the records.
    for (const auto& s : r.trace) {
      decode += s.decode;
      intersect += s.intersect;
      transfer += s.transfer;
      rank += s.rank;
    }
    total += r.metrics.total;
    kernels += r.metrics.gpu_kernels;
    ++queries;
  }
  double per_query_ms(sim::Duration d) const {
    return queries == 0 ? 0.0 : d.ms() / static_cast<double>(queries);
  }
};

void add_stage_metrics(MetricSet& m, const SimAgg& a) {
  m.add("core.stage_decode_ms", a.per_query_ms(a.decode), "ms", "sim");
  m.add("core.stage_intersect_ms", a.per_query_ms(a.intersect), "ms", "sim");
  m.add("core.stage_transfer_ms", a.per_query_ms(a.transfer), "ms", "sim");
  m.add("core.stage_rank_ms", a.per_query_ms(a.rank), "ms", "sim");
  m.add("gpu.kernels_per_query",
        a.queries == 0 ? 0.0
                       : static_cast<double>(a.kernels) /
                             static_cast<double>(a.queries),
        "count", "sim");
}

void add_plan_metrics(MetricSet& m, const core::TraceSummary& t,
                      const core::CacheCounters& c,
                      const core::OverlapCounters& o, std::uint64_t queries) {
  const double q = static_cast<double>(std::max<std::uint64_t>(queries, 1));
  m.add("core.overlap_saved_ms", o.saved.ms() / q, "ms", "sim");
  m.add("core.gpu_intersect_frac", t.gpu_intersect_fraction(), "ratio",
        "sim");
  m.add("core.split_intersects", static_cast<double>(t.split_intersects),
        "count", "sim");
  m.add("core.migrations_per_query", static_cast<double>(t.migrations) / q,
        "count", "sim");
  m.add("core.prefetch_used_ratio",
        o.prefetch_issued == 0 ? 0.0
                               : static_cast<double>(o.prefetch_used) /
                                     static_cast<double>(o.prefetch_issued),
        "ratio", "sim");
  m.add("gpu.list_cache_hit_rate", c.device_hit_rate(), "ratio", "sim");
  m.add("cpu.decoded_cache_hit_rate", c.host_hit_rate(), "ratio", "sim");
  m.add("cpu.simd_lane_utilization", t.lane_utilization(), "ratio", "sim");
  m.add("tenancy.batched_step_frac",
        t.steps == 0 ? 0.0
                     : static_cast<double>(t.batched_steps) /
                           static_cast<double>(t.steps),
        "ratio", "sim");
}

void add_busy_metrics(MetricSet& m,
                      const std::array<double, sim::kNumResources>& f) {
  m.add("sim.cpu_busy_frac", f[std::size_t(sim::Resource::kCpu)], "ratio",
        "sim");
  m.add("sim.gpu_busy_frac", f[std::size_t(sim::Resource::kGpuCompute)],
        "ratio", "sim");
  m.add("sim.h2d_busy_frac", f[std::size_t(sim::Resource::kCopyH2D)],
        "ratio", "sim");
  m.add("sim.d2h_busy_frac", f[std::size_t(sim::Resource::kCopyD2H)],
        "ratio", "sim");
}

/// Busy time of each resource over a span of sequential query time.
std::array<double, sim::kNumResources> busy_over(const core::OverlapCounters& o,
                                                 sim::Duration span) {
  std::array<double, sim::kNumResources> f{};
  if (span.ps() <= 0) return f;
  for (std::size_t r = 0; r < sim::kNumResources; ++r) {
    f[r] = o.busy(static_cast<sim::Resource>(r)) / span;
  }
  return f;
}

// ---- Host per-layer replays (traced runs) ----------------------------------

/// Terms of q, deduplicated, shortest list first (the planner's order).
std::vector<index::TermId> by_length(const index::InvertedIndex& idx,
                                     const core::Query& q) {
  std::vector<index::TermId> t = q.terms;
  std::sort(t.begin(), t.end());
  t.erase(std::unique(t.begin(), t.end()), t.end());
  std::stable_sort(t.begin(), t.end(), [&](index::TermId a, index::TermId b) {
    return idx.list(a).size() < idx.list(b).size();
  });
  return t;
}

/// Replays each query's first intersect pair through the simt kernels and
/// the CPU codec/intersect paths, and Scheduler::decide over every recorded
/// intersect shape. Also times index::extract_shards. Fills the host.* layer
/// metrics and checks that the kernels agree with the CPU intersection.
void replay_layers(const Config& c, const index::InvertedIndex& idx,
                   const std::vector<core::Query>& qs,
                   const std::vector<core::StepShape>& shapes,
                   const std::vector<core::Placement>& placements,
                   const sim::HardwareSpec& hw, Tracer& tr, Report& rep) {
  std::uint64_t elements = 0;
  std::uint64_t replayed = 0;
  std::uint64_t postings = 0;
  const std::size_t n = std::min<std::size_t>(qs.size(), c.replay_queries);
  bool agree = true;
  for (std::size_t i = 0; i < n; ++i) {
    const auto terms = by_length(idx, qs[i]);
    for (const auto t : terms) {
      Span s(tr, "cpu.decode_all", qs[i].id);
      sim::CpuCostAccumulator acc(hw.cpu);
      std::vector<index::DocId> out;
      cpu::decode_all(idx.list(t).docids, out, acc);
      postings += out.size();
    }
    if (terms.size() < 2) continue;
    const auto& la = idx.list(terms[0]).docids;
    const auto& lb = idx.list(terms[1]).docids;
    std::vector<index::DocId> probes;
    std::vector<index::DocId> cpu_out;
    {
      sim::CpuCostAccumulator acc(hw.cpu);
      cpu::decode_all(la, probes, acc);
      Span s(tr, "cpu.skip_intersect", qs[i].id);
      cpu::skip_intersect(probes, lb, cpu_out, acc);
    }

    simt::Device dev(hw.gpu, hw.pcie.device_mem_bytes);
    const pcie::Link link(hw.pcie);
    pcie::TransferLedger ledger;
    gpu::DeviceList da;
    gpu::DeviceList db;
    {
      Span s(tr, "gpu.upload_list", qs[i].id);
      da = gpu::upload_list(dev, la, link, ledger);
      db = gpu::upload_list(dev, lb, link, ledger);
    }
    auto outa = dev.alloc<index::DocId>(la.size());
    auto outb = dev.alloc<index::DocId>(lb.size());
    {
      Span s(tr, "simt.decode", qs[i].id);
      gpu::decode_range(dev, da, 0, da.num_blocks(), outa);
      gpu::decode_range(dev, db, 0, db.num_blocks(), outb);
    }
    std::uint64_t merged = 0;
    {
      Span s(tr, "simt.mergepath", qs[i].id);
      merged = gpu::mergepath_intersect(dev, outa, la.size(), outb, lb.size(),
                                        link, ledger)
                   .count;
    }
    std::uint64_t searched = 0;
    {
      Span s(tr, "simt.binary_search", qs[i].id);
      searched = gpu::binary_search_intersect(dev, outa, la.size(), db, link,
                                              ledger)
                     .count;
    }
    agree = agree && merged == cpu_out.size() && searched == cpu_out.size();
    elements += 2 * (la.size() + lb.size()) + la.size();
    ++replayed;
  }
  rep.ledger.check_run(agree, "simt kernels disagree with cpu intersect");

  const core::Scheduler sched({}, hw);
  bool replays = true;
  {
    // Enough rounds that the span is far above clock resolution.
    Span s(tr, "core.scheduler_decide");
    for (int round = 0; round < 64; ++round) {
      for (std::size_t i = 0; i < shapes.size(); ++i) {
        replays = replays && sched.decide(shapes[i]) == placements[i];
      }
    }
  }
  rep.ledger.check_run(replays, "Scheduler::decide does not replay a step");

  {
    Span s(tr, "index.extract_shards");
    const auto owner = cluster::assign_docs(
        cluster::PartitionStrategy::kRoundRobin, idx.docs().num_docs(), 4);
    const auto shards = index::extract_shards(idx, owner, 4);
  }

  const double r = static_cast<double>(std::max<std::uint64_t>(replayed, 1));
  auto& m = rep.per_layer;
  m.add("host.simt.decode_ms", tr.total_ms("simt.decode") / r, "ms", "host");
  m.add("host.simt.mergepath_ms", tr.total_ms("simt.mergepath") / r, "ms",
        "host");
  m.add("host.simt.binary_search_ms", tr.total_ms("simt.binary_search") / r,
        "ms", "host");
  const double simt_ms = tr.total_ms("simt.decode") +
                         tr.total_ms("simt.mergepath") +
                         tr.total_ms("simt.binary_search");
  m.add("host.simt.ns_per_element",
        elements == 0 ? 0.0 : simt_ms * 1e6 / static_cast<double>(elements),
        "ns", "host");
  m.add("host.core.scheduler_decide_ns",
        shapes.empty() ? 0.0
                       : tr.total_ms("core.scheduler_decide") * 1e6 /
                             (64.0 * static_cast<double>(shapes.size())),
        "ns", "host");
  m.add("host.cpu.decode_all_us_per_kposting",
        postings == 0 ? 0.0
                      : tr.total_ms("cpu.decode_all") * 1e3 /
                            (static_cast<double>(postings) / 1e3),
        "us", "host");
  m.add("host.cpu.skip_intersect_us",
        tr.total_ms("cpu.skip_intersect") * 1e3 / r, "us", "host");
  m.add("host.cluster.broker_build_ms", tr.total_ms("index.extract_shards"),
        "ms", "host");
  rep.notes.push_back("replays: first intersect pair of " +
                      std::to_string(replayed) + " queries, " +
                      std::to_string(shapes.size()) +
                      " recorded intersect shapes x64 through decide()");
}

void collect_shapes(const std::vector<core::StepRecord>& trace,
                    std::vector<core::StepShape>& shapes,
                    std::vector<core::Placement>& placements) {
  for (const auto& r : trace) {
    if (r.kind != core::StepKind::kIntersect || r.faulted) continue;
    shapes.push_back(r.shape);
    placements.push_back(r.placement);
  }
}

/// Host layer metrics read off the recorded spans: set-up spans divided by
/// the number of set-ups, the rest as totals or per-call means.
/// host.core.execute_ms is HybridEngine::execute alone, so a Griffin host
/// speedup is not diluted by the cheaper CpuEngine reference calls.
void add_span_layers(const Config& c, const Tracer& tr, Report& rep) {
  const double reps = static_cast<double>(c.setup_reps);
  auto& m = rep.per_layer;
  m.add("host.workload.generate_corpus_s",
        tr.total_ms("workload.generate_corpus") / 1e3 / reps, "s", "host");
  m.add("host.workload.generate_queries_ms",
        tr.total_ms("workload.generate_queries") / reps, "ms", "host");
  m.add("host.core.engine_build_ms", tr.total_ms("core.engine_build") / reps,
        "ms", "host");
  const auto calls = tr.count("core.execute.griffin");
  m.add("host.core.execute_ms",
        calls == 0 ? 0.0
                   : tr.total_ms("core.execute.griffin") /
                         static_cast<double>(calls),
        "ms", "host");
  m.add("host.tenancy.run_s", tr.total_ms("tenancy.run") / 1e3, "s", "host");
  m.add("host.service.run_service_ms", tr.total_ms("service.run_service"),
        "ms", "host");
  m.add("host.cluster.run_s", tr.total_ms("cluster.run") / 1e3, "s", "host");
  const auto executes = tr.count("cluster.execute");
  m.add("host.cluster.execute_ms",
        executes == 0
            ? 0.0
            : tr.total_ms("cluster.execute") / static_cast<double>(executes),
        "ms", "host");
}

/// Set-up: `setup_reps` complete builds; setup_s is their median and the
/// last one is kept for the run.
template <typename System, typename Build>
std::unique_ptr<System> set_up(const Config& c, Build build, Report& rep) {
  std::vector<double> times;
  std::unique_ptr<System> sys;
  for (std::uint32_t i = 0; i < c.setup_reps; ++i) {
    sys.reset();
    const auto t0 = host_now();
    sys = build();
    times.push_back(seconds_since(t0));
  }
  rep.end_to_end.add("setup_s", median(times), "s", "host");
  return sys;
}

/// Per-query host samples and per-pass host times of the timed phase.
struct HostTiming {
  std::vector<double> pass_ms_per_query;  ///< calibrated
  std::vector<double> raw_ms_per_query;
  std::vector<double> cal_ms;
  std::vector<double> per_query_ms;
};

/// Typical calibration_ms() on the reference machine (a 4-core Xeon VM
/// shared with other tenants, where it read 1.30-1.57 ms). The timed
/// phase's host time is scaled by this over the loop's mean time through
/// the pass, so host_ms_per_query reads as ms on that machine at its typical
/// speed, and a co-tenant slowing the whole core moves it less. On that
/// machine one seed's raw paper_mix pass read 61-76 ms/query across two
/// runs, the calibrated one 64-69.
constexpr double kReferenceCalibrationMs = 1.4;

/// Repeats `pass` (which fills per-pass digests and per-query host samples,
/// samples the calibration loop where it can, and returns its host time
/// without those samples) until `seconds` of host time is spent. The loop is
/// also sampled before and after each pass. In a traced run: exactly two
/// passes, the first untraced and the second traced, and the overhead of
/// tracing is their difference.
template <typename Pass>
HostTiming timed_phase(const Config& c, Tracer& tr, std::uint64_t queries,
                       Pass pass, Report& rep) {
  HostTiming h;
  std::vector<std::string> first;
  double spent = 0.0;
  const bool traced = tr.enabled();
  for (int i = 0;; ++i) {
    if (traced) tr.set_enabled(i == 1);
    std::vector<std::string> digests;
    std::vector<double> per_query;
    Calibration cal;
    cal.sample(10);
    const double host_s = pass(i, digests, per_query, cal);
    cal.sample(10);
    spent += host_s;
    h.raw_ms_per_query.push_back(host_s * 1e3 / static_cast<double>(queries));
    h.cal_ms.push_back(cal.mean());
    h.pass_ms_per_query.push_back(h.raw_ms_per_query.back() *
                                  kReferenceCalibrationMs / cal.mean());
    h.per_query_ms.insert(h.per_query_ms.end(), per_query.begin(),
                          per_query.end());
    if (i == 0) {
      first = std::move(digests);
    } else {
      rep.ledger.check_run(digests == first,
                           "a repeated pass changed simulated results");
    }
    if (traced ? i == 1 : spent >= c.seconds) break;
  }
  if (traced) {
    tr.set_enabled(true);
    const double untraced = h.pass_ms_per_query[0];
    rep.per_layer.add("host.trace_overhead_frac",
                      (h.pass_ms_per_query[1] - untraced) / untraced, "ratio",
                      "host");
  }
  std::string passes;
  for (std::size_t i = 0; i < h.raw_ms_per_query.size(); ++i) {
    passes += " " + exact(h.raw_ms_per_query[i]) + " (calibration loop " +
              exact(h.cal_ms[i]) + " ms)";
  }
  rep.notes.push_back("timed phase: " +
                      std::to_string(h.pass_ms_per_query.size()) +
                      " pass(es) over " + std::to_string(queries) +
                      " queries, raw host ms/query per pass:" + passes);
  return h;
}

void add_latency(Report& rep, const std::vector<double>& ms,
                 const std::string& what) {
  rep.end_to_end.add("sim_p50_ms", percentile(ms, 50), "ms", "sim");
  rep.ungated.add("sim_p95_ms", percentile(ms, 95), "ms", "sim");
  const std::size_t beyond = samples_beyond(ms.size(), 95);
  rep.ledger.check_run(beyond >= 10, "p95 rests on fewer than 10 samples");
  rep.notes.push_back("sim_p95_ms: " + what + ", " +
                      std::to_string(ms.size()) + " samples, " +
                      std::to_string(beyond) +
                      " beyond p95 (highest supported: p" +
                      exact(highest_supported_percentile(ms.size())) + ")");
}

/// host_ms_per_query is the median pass of the timed phase. Per-query host
/// samples exist only where the timed phase calls execute() per query.
void add_host(Report& rep, const HostTiming& h) {
  rep.end_to_end.add("host_ms_per_query", median(h.pass_ms_per_query), "ms",
                     "host");
  if (h.per_query_ms.empty()) return;
  rep.ungated.add("host_p50_ms", percentile(h.per_query_ms, 50), "ms", "host");
  rep.ungated.add("host_p95_ms", percentile(h.per_query_ms, 95), "ms", "host");
  rep.notes.push_back("host_p50_ms/host_p95_ms: HybridEngine::execute per "
                      "query, " + std::to_string(h.per_query_ms.size()) +
                      " samples");
}

/// CPU-only reference over `qs` on the full index: every answer is
/// compared with it, and its latencies are the speedup denominators.
EnginePass reference(const index::InvertedIndex& idx, const sim::HardwareSpec& hw,
                     const std::vector<core::Query>& qs, Tracer& tr) {
  cpu::CpuEngine ref(idx, hw.cpu);
  return run_engine(ref, qs, tr, "core.execute.cpu");
}

// ---- cluster layers (traced tenant_load runs) ------------------------------

cluster::ClusterConfig cluster_config(const Config& c) {
  cluster::ClusterConfig cc;
  cc.num_shards = 4;
  cc.partition = cluster::PartitionStrategy::kRoundRobin;
  cc.replicas_per_shard = 2;
  cc.arrival_qps = c.cluster_qps;
  cc.seed = sub_seed(c.seed, 6);
  cc.faults.slow.probability = 0.05;
  cc.faults.slow_factor = 20.0;
  cc.hedge.enabled = true;
  cc.hedge.percentile = 95.0;
  cc.hedge.min_samples = 16;
  cc.cache_capacity = 256;
  cc.cache_budget_bytes = std::uint64_t{1} << 20;
  cc.record_outcomes = true;
  return cc;
}

/// The cluster-tier layer metrics; `res` == nullptr (a workload without the
/// broker replay) reports zeros.
void add_cluster_metrics(MetricSet& m, const cluster::ClusterResult* res) {
  const bool on = res != nullptr;
  m.add("cluster.result_cache_hit_rate", on ? res->cache.hit_rate() : 0.0,
        "ratio", "sim");
  m.add("cluster.hedges_issued",
        on ? static_cast<double>(res->hedge.issued) : 0.0, "count", "sim");
  m.add("cluster.hedge_win_ratio",
        on && res->hedge.issued > 0
            ? static_cast<double>(res->hedge.won) /
                  static_cast<double>(res->hedge.issued)
            : 0.0,
        "ratio", "sim");
  m.add("cluster.shard_critical_p95_ms",
        on && res->shard_critical_ms.count() > 0
            ? res->shard_critical_ms.percentile(95)
            : 0.0,
        "ms", "sim");
  m.add("fault.slow_replicas",
        on ? static_cast<double>(res->faults.slow_replicas) : 0.0, "count",
        "sim");
}

/// The cluster tier's per-layer numbers: the workload's stream, whose Zipf
/// term draws repeat, replayed through a 4-shard x 2-replica broker with the
/// result cache, adaptive-p95 hedging and 5% 20x stragglers, plus untimed
/// scatter-gathers of the stream's head. Every merged answer is checked.
void measure_cluster(const Config& c, const Inputs& in,
                     const sim::HardwareSpec& hw, const EnginePass& ref,
                     Tracer& tr, Report& rep) {
  if (c.cluster_qps <= 0.0) {
    throw std::invalid_argument("traced tenant_load needs --cluster-qps");
  }
  std::unique_ptr<cluster::ClusterBroker> broker;
  {
    Span s(tr, "cluster.build");
    broker = std::make_unique<cluster::ClusterBroker>(*in.idx,
                                                      cluster_config(c), hw);
  }
  cluster::ClusterResult res;
  {
    Span s(tr, "cluster.run");
    res = broker->run(in.stream);
  }
  bool ok = res.outcomes.size() == in.stream.size() &&
            res.cache_hits_served + res.gathered_queries == in.stream.size() &&
            prefetch_conserved(res.engine_overlap);
  for (const auto& o : res.outcomes) {
    ok = ok && !o.degraded && same_topk(o.topk, ref.results[o.query].topk);
  }
  const std::size_t n =
      std::min<std::size_t>(in.stream.size(), c.replay_queries);
  for (std::size_t i = 0; i < n; ++i) {
    Span s(tr, "cluster.execute", in.stream[i].id);
    ok = ok && same_topk(broker->execute(in.stream[i]).topk,
                         ref.results[i].topk);
  }
  rep.ledger.check_run(ok, "cluster answers or conservation failed");
  add_cluster_metrics(rep.per_layer, &res);
  rep.notes.push_back("cluster layers: " + std::to_string(in.stream.size()) +
                      " queries at " + exact(c.cluster_qps) + " q/s, " +
                      std::to_string(res.cache_hits_served) +
                      " result-cache hits, " + std::to_string(n) +
                      " execute() calls");
}

/// Every kGpuStride-th query of the stream also runs on an idle GpuEngine
/// (a GPU-only pass over all of them would cost as much host time as the
/// timed phase). speedup_vs_gpu is its mean latency over the mean latency
/// of the same queries in `latency_ms` (the system under test); its answers
/// are checked against the reference like every other.
constexpr std::size_t kGpuStride = 2;

void gpu_sample(const index::InvertedIndex& idx, const sim::HardwareSpec& hw,
                const std::vector<core::Query>& qs,
                const std::vector<double>& latency_ms, const EnginePass& ref,
                Tracer& tr, Report& rep) {
  std::vector<core::Query> sample;
  double latency_sum = 0.0;
  for (std::size_t i = 0; i < qs.size(); i += kGpuStride) {
    sample.push_back(qs[i]);
    latency_sum += latency_ms[i];
  }
  gpu::GpuEngine gpu_only(idx, hw);
  const auto p = run_engine(gpu_only, sample, tr, "core.execute.gpu");
  for (std::size_t j = 0; j < sample.size(); ++j) {
    rep.ledger.check_run(
        same_topk(p.results[j].topk, ref.results[j * kGpuStride].topk) &&
            engine_identities(p.results[j]),
        "GpuEngine sample disagrees with the reference");
  }
  rep.notes.push_back("speedup_vs_gpu: GpuEngine on one query in " +
                      std::to_string(kGpuStride) + " (" +
                      std::to_string(sample.size()) + " queries)");
  rep.end_to_end.add(
      "speedup_vs_gpu",
      mean_ms(p.results) / (latency_sum / static_cast<double>(sample.size())),
      "x", "sim");
}

// ---- paper_mix -------------------------------------------------------------

struct PaperSystem {
  Inputs in;
  std::unique_ptr<core::HybridEngine> griffin;
};

void run_paper_mix(const Config& c, Tracer& tr, Report& rep) {
  const sim::HardwareSpec hw;
  auto sys = set_up<PaperSystem>(
      c,
      [&] {
        auto s = std::make_unique<PaperSystem>();
        s->in = make_inputs(c, tr);
        Span span(tr, "core.engine_build");
        s->griffin = std::make_unique<core::HybridEngine>(*s->in.idx, hw);
        return s;
      },
      rep);
  const auto& idx = *sys->in.idx;
  const auto& qs = sys->in.stream;

  // Warm the allocator and host caches on a throwaway engine, so the timed
  // engine's simulated state is untouched.
  {
    core::HybridEngine warm(idx, hw);
    Tracer off(false);
    run_engine(warm, sys->in.warm, off, "warmup");
  }

  EnginePass grif;
  const auto host = timed_phase(
      c, tr, qs.size(),
      [&](int pass, std::vector<std::string>& digests,
          std::vector<double>& per_query, Calibration& cal) {
        std::unique_ptr<core::HybridEngine> fresh;
        if (pass > 0) fresh = std::make_unique<core::HybridEngine>(idx, hw);
        auto p = run_engine(pass == 0 ? *sys->griffin : *fresh, qs, tr,
                            "core.execute.griffin", &cal);
        for (const auto& r : p.results) digests.push_back(digest(r));
        per_query = p.host_ms;
        const double host_s = p.host_s;
        if (pass == 0) grif = std::move(p);
        return host_s;
      },
      rep);

  const auto cpu = reference(idx, hw, qs, tr);
  std::vector<double> lat;
  for (std::size_t i = 0; i < qs.size(); ++i) {
    rep.ledger.record(same_topk(grif.results[i].topk, cpu.results[i].topk),
                      true,
                      engine_identities(grif.results[i]) &&
                          engine_identities(cpu.results[i]));
    lat.push_back(grif.results[i].metrics.total.ms());
  }

  add_latency(rep, lat, "HybridEngine critical path, closed loop");
  double sum_s = 0.0;
  for (const double x : lat) sum_s += x / 1e3;
  auto& e = rep.end_to_end;
  e.add("sim_throughput_qps", makespan_qps(lat.size(), sum_s), "1/s", "sim");
  e.add("speedup_vs_cpu", mean_ms(cpu.results) / mean_ms(grif.results), "x",
        "sim");
  gpu_sample(idx, hw, qs, lat, cpu, tr, rep);
  add_host(rep, host);
  rep.notes.push_back("closed loop, 1 client; " + std::to_string(qs.size()) +
                      " queries through CPU-only, GPU-only and Griffin");

  if (!c.trace) return;
  SimAgg agg;
  std::vector<core::StepShape> shapes;
  std::vector<core::Placement> placements;
  for (const auto& r : grif.results) {
    agg.add(r);
    collect_shapes(r.trace, shapes, placements);
  }
  auto& m = rep.per_layer;
  add_stage_metrics(m, agg);
  add_plan_metrics(m, agg.trace, agg.cache, agg.overlap, agg.queries);
  add_busy_metrics(m, busy_over(agg.overlap, agg.total));
  m.add("tenancy.batch_groups", 0.0, "count", "sim");
  m.add("service.max_queue_depth", 1.0, "count", "sim");
  add_cluster_metrics(m, nullptr);
  replay_layers(c, idx, qs, shapes, placements, hw, tr, rep);
}

// ---- tenant_load -----------------------------------------------------------

struct TenantSystem {
  Inputs in;
  std::unique_ptr<tenancy::DeviceManager> nominal;
  std::unique_ptr<tenancy::DeviceManager> overload;
};

tenancy::TenancyOptions tenant_options() {
  tenancy::TenancyOptions t;
  t.max_concurrency = 4;
  t.batch.enabled = true;
  return t;
}

std::vector<tenancy::TenantQuery> poisson_load(
    const std::vector<core::Query>& qs, double qps, std::uint64_t seed) {
  service::PoissonArrivals arrivals(qps, seed);
  std::vector<tenancy::TenantQuery> load;
  for (const auto& q : qs) load.push_back({q, arrivals.next()});
  return load;
}

void check_tenant(const std::vector<tenancy::TenantResult>& out,
                  std::size_t offered, const EnginePass& ref, Report& rep) {
  std::size_t answered = 0;
  std::size_t shed = 0;
  for (std::size_t i = 0; i < out.size(); ++i) {
    const auto& r = out[i];
    if (r.shed) {
      ++shed;
      rep.ledger.record(false, false, true);
      continue;
    }
    ++answered;
    rep.ledger.record(same_topk(r.result.topk, ref.results[i].topk), true,
                      engine_identities(r.result));
  }
  rep.ledger.check_run(out.size() == offered && answered + shed == offered,
                       "tenant results do not conserve offered queries");
}

void run_tenant_load(const Config& c, Tracer& tr, Report& rep) {
  if (c.nominal_qps <= 0.0 || c.overload_qps <= 0.0) {
    throw std::invalid_argument("tenant_load needs --nominal-qps and "
                                "--overload-qps");
  }
  const auto hw = serving_hw();
  auto build_devices = [&](TenantSystem& s) {
    s.nominal = std::make_unique<tenancy::DeviceManager>(*s.in.idx, hw,
                                                         tenant_options());
    s.overload = std::make_unique<tenancy::DeviceManager>(*s.in.idx, hw,
                                                          tenant_options());
  };
  auto sys = set_up<TenantSystem>(
      c,
      [&] {
        auto s = std::make_unique<TenantSystem>();
        s->in = make_inputs(c, tr);
        Span span(tr, "core.engine_build");
        build_devices(*s);
        return s;
      },
      rep);
  const auto& qs = sys->in.stream;
  const auto nominal_load = poisson_load(qs, c.nominal_qps, sub_seed(c.seed, 4));
  const std::vector<core::Query> head(
      qs.begin(),
      qs.begin() + std::min<std::size_t>(qs.size(), c.overload_queries));
  const auto overload_load =
      poisson_load(head, c.overload_qps, sub_seed(c.seed, 5));
  // Lane caches persist across run() calls: a warm-up load from a disjoint
  // query seed fills them, so the timed runs see a warm serving system.
  const auto warm_load =
      poisson_load(sys->in.warm, c.nominal_qps, sub_seed(c.seed, 8));
  auto warm_up = [&] {
    sys->nominal->run(warm_load);
    sys->overload->run(warm_load);
  };

  std::vector<tenancy::TenantResult> nominal;
  std::vector<tenancy::TenantResult> overload;
  double makespan_s = 0.0;
  std::array<double, sim::kNumResources> busy{};
  std::uint64_t groups = 0;
  const auto host = timed_phase(
      c, tr, qs.size() + head.size(),
      [&](int pass, std::vector<std::string>& digests,
          std::vector<double>&, Calibration& cal) {
        if (pass > 0) build_devices(*sys);
        warm_up();
        // batch_groups() counts from construction, warm-up included.
        const std::uint64_t groups_before = sys->nominal->batch_groups();
        std::vector<tenancy::TenantResult> a;
        std::vector<tenancy::TenantResult> b;
        double host_s = 0.0;
        {
          Span s(tr, "tenancy.run");
          const auto t0 = host_now();
          a = sys->nominal->run(nominal_load);
          host_s += seconds_since(t0);
        }
        cal.sample(10);
        {
          Span s(tr, "tenancy.run");
          const auto t0 = host_now();
          b = sys->overload->run(overload_load);
          host_s += seconds_since(t0);
        }
        for (const auto* v : {&a, &b}) {
          for (const auto& r : *v) {
            digests.push_back(digest(r.result) + "@" +
                              std::to_string(r.finish.ps()));
          }
        }
        if (pass == 0) {
          nominal = std::move(a);
          overload = std::move(b);
          makespan_s = sys->overload->timeline().critical_path().seconds();
          busy = sys->nominal->busy_fractions();
          groups = sys->nominal->batch_groups() - groups_before;
        }
        return host_s;
      },
      rep);

  const auto cpu = reference(*sys->in.idx, hw, qs, tr);
  check_tenant(nominal, qs.size(), cpu, rep);
  check_tenant(overload, head.size(), cpu, rep);

  std::vector<double> response;
  std::vector<double> service_ms;
  service::QueueDepthTracker depth;
  std::uint64_t completed = 0;
  for (const auto& r : nominal) {
    response.push_back((r.finish - r.arrival).ms());
    service_ms.push_back(r.result.metrics.total.ms());
    if (!r.shed) depth.observe(r.arrival, r.finish);
  }
  for (const auto& r : overload) completed += r.shed ? 0 : 1;

  add_latency(rep, response, "response (finish - arrival) at " +
                                 exact(c.nominal_qps) + " q/s");
  auto& e = rep.end_to_end;
  e.add("sim_throughput_qps", makespan_qps(completed, makespan_s), "1/s",
        "sim");
  // Idle single-engine latency over the span each query held the shared
  // device (admission to finish, queueing left out), at the nominal rate.
  e.add("speedup_vs_cpu", mean_ms(cpu.results) / mean(service_ms), "x",
        "sim");
  gpu_sample(*sys->in.idx, hw, qs, service_ms, cpu, tr, rep);
  add_host(rep, host);
  rep.notes.push_back("speedup_vs_cpu/speedup_vs_gpu: idle engine latency "
                      "over the service span on the shared device (admission "
                      "to finish), not response time");
  rep.notes.push_back(
      "open loop, Poisson in simulated time (generator lateness 0 by "
      "construction): " + exact(c.nominal_qps) + " q/s nominal over " +
      std::to_string(qs.size()) + " queries, " + exact(c.overload_qps) +
      " q/s overload over the first " + std::to_string(head.size()) +
      "; 4 lanes, batching on");

  if (!c.trace) return;
  SimAgg agg;
  std::vector<core::StepShape> shapes;
  std::vector<core::Placement> placements;
  for (const auto& r : nominal) {
    agg.add(r.result);
    collect_shapes(r.result.trace, shapes, placements);
  }
  auto& m = rep.per_layer;
  add_stage_metrics(m, agg);
  add_plan_metrics(m, agg.trace, agg.cache, agg.overlap, agg.queries);
  add_busy_metrics(m, busy);
  m.add("tenancy.batch_groups", static_cast<double>(groups), "count", "sim");
  m.add("service.max_queue_depth", static_cast<double>(depth.max_depth()),
        "count", "sim");
  {
    // The single-server FCFS view of the same service times at the nominal
    // rate: the service layer's own queueing model.
    Span s(tr, "service.run_service");
    service::ServiceConfig scfg;
    scfg.arrival_qps = c.nominal_qps;
    scfg.seed = sub_seed(c.seed, 4);
    std::vector<sim::Duration> times;
    for (const auto& r : nominal) times.push_back(r.result.metrics.total);
    service::run_service(std::span<const sim::Duration>(times), scfg);
  }
  {
    // The lanes call the engine internally; a HybridEngine over the replay
    // queries gives host.core.execute_ms here too.
    core::HybridEngine griffin(*sys->in.idx, hw);
    const std::vector<core::Query> some(
        qs.begin(),
        qs.begin() + std::min<std::size_t>(qs.size(), c.replay_queries));
    const auto p = run_engine(griffin, some, tr, "core.execute.griffin");
    for (std::size_t i = 0; i < some.size(); ++i) {
      rep.ledger.check_run(same_topk(p.results[i].topk, cpu.results[i].topk) &&
                               engine_identities(p.results[i]),
                           "HybridEngine replay disagrees with the reference");
    }
  }
  measure_cluster(c, sys->in, hw, cpu, tr, rep);
  replay_layers(c, *sys->in.idx, qs, shapes, placements, hw, tr, rep);
}

}  // namespace

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> names = {"paper_mix",
                                                 "tenant_load"};
  return names;
}

Report run_workload(const Config& c) {
  if (c.setup_reps == 0 || c.queries == 0) {
    throw std::invalid_argument("setup_reps and queries must be positive");
  }
  Report rep;
  Tracer tr(c.trace);
  if (c.workload == "paper_mix") {
    run_paper_mix(c, tr, rep);
  } else if (c.workload == "tenant_load") {
    run_tenant_load(c, tr, rep);
  } else {
    throw std::invalid_argument("unknown workload " + c.workload);
  }
  rep.end_to_end.add("peak_rss_mb", peak_rss_mb(), "MB", "host");
  if (c.trace) {
    add_span_layers(c, tr, rep);
    if (!c.trace_path.empty() && !tr.write_chrome_trace(c.trace_path)) {
      rep.ledger.check_run(false, "could not write " + c.trace_path);
    }
  }
  return rep;
}

}  // namespace perfbench
