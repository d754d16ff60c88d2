// Shared utilities for the reproduction benches: the paper-testbed hardware
// spec, corpus caching (indexes are built once and memoized on disk via
// index/io.h), simple aligned table printing, a scale knob, and exit-code
// gates.
//
// Environment:
//   GRIFFIN_FAST=1         shrink workloads ~10x (smoke-test mode)
//   GRIFFIN_CACHE_DIR=...  corpus cache directory (default /tmp/griffin_bench)
//   GRIFFIN_BENCH_JSON_DIR=...  where BENCH_<name>.json files go (default cwd)
//   GRIFFIN_TRACE_DIR=...  when set, benches that support it write per-query
//                          plan-step traces as <bench>.trace.jsonl there
#pragma once

#include <array>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <string>
#include <type_traits>
#include <utility>
#include <variant>
#include <vector>

#include "codec/block_codec.h"
#include "core/query.h"
#include "index/io.h"
#include "util/fields.h"
#include "util/stats.h"
#include "workload/corpus.h"
#include "workload/querylog.h"

namespace griffin::bench {

inline bool fast_mode() {
  const char* v = std::getenv("GRIFFIN_FAST");
  return v != nullptr && v[0] == '1';
}

/// Scales a workload size down in fast mode.
inline std::uint64_t scaled(std::uint64_t n) {
  return fast_mode() ? std::max<std::uint64_t>(n / 10, 1) : n;
}

inline std::string cache_dir() {
  const char* v = std::getenv("GRIFFIN_CACHE_DIR");
  std::string dir = v != nullptr ? v : "/tmp/griffin_bench";
  std::filesystem::create_directories(dir);
  return dir;
}

/// The corpus cache file name for cfg: every CorpusConfig field, doubles at
/// round-trip precision, so two configs share a file only when they build
/// the same corpus.
inline std::string corpus_cache_key(const workload::CorpusConfig& cfg) {
  char key[320];
  std::snprintf(key, sizeof(key),
                "corpus_%u_%u_%.17g_%.17g_%u_%u%s_%llu_%u_%.17g.idx",
                cfg.num_docs, cfg.num_terms, cfg.max_list_divisor, cfg.zipf_s,
                cfg.min_list_size, static_cast<unsigned>(cfg.scheme),
                cfg.adaptive ? "a" : "",
                static_cast<unsigned long long>(cfg.seed), cfg.num_topics,
                cfg.topic_affinity);
  return key;
}

/// Builds (or loads from cache) the corpus described by cfg.
inline index::InvertedIndex cached_corpus(const workload::CorpusConfig& cfg) {
  const std::string path = cache_dir() + "/" + corpus_cache_key(cfg);
  if (std::filesystem::exists(path)) {
    try {
      return index::load_index(path);
    } catch (const std::exception&) {
      std::filesystem::remove(path);
    }
  }
  auto idx = workload::generate_corpus(cfg);
  try {
    index::save_index(idx, path);
  } catch (const std::exception&) {
    // Cache misses are fine; the bench still runs.
  }
  return idx;
}

/// The corpus the end-to-end experiments (Figures 10/11/14/15) run on: the
/// scaled-down ClueWeb12 stand-in (DESIGN.md §2).
inline workload::CorpusConfig paper_corpus_config() {
  workload::CorpusConfig cfg;
  cfg.num_docs = fast_mode() ? 1'000'000 : 6'000'000;
  cfg.num_terms = fast_mode() ? 1'000 : 8'000;
  cfg.max_list_divisor = 3.0;
  cfg.zipf_s = 0.75;
  cfg.min_list_size = 512;
  // Coarse topics put multi-million-entry lists inside every topic, so
  // topical queries hit the heavy-list regime the paper's latencies reflect.
  cfg.num_topics = 8;
  cfg.topic_affinity = 0.45;
  cfg.seed = 20260705;
  return cfg;
}

/// The pair micro-index of crossover, coexec and overlap: terms 0 and 1 are
/// the shorter list and term 2 the longer, so a {0, 1, 2} query's first
/// intersect is the identity and leaves the shorter list as the resident
/// intermediate, and its second is the steady-state step against the longer
/// list.
inline index::InvertedIndex pair_index(const workload::ListPair& pair,
                                       index::DocId universe,
                                       codec::Scheme scheme) {
  index::InvertedIndex idx(scheme);
  idx.docs().resize(universe);
  idx.add_list(pair.shorter);
  idx.add_list(pair.shorter);
  idx.add_list(pair.longer);
  return idx;
}

inline workload::QueryLogConfig paper_query_config(
    std::uint32_t n, const workload::CorpusConfig& corpus) {
  workload::QueryLogConfig qcfg;
  qcfg.num_queries = static_cast<std::uint32_t>(scaled(n));
  // Real query logs skew hard toward frequent terms (stopword-adjacent
  // terms dominate TREC efficiency-track queries), which is what gives the
  // paper its long CPU latencies on frequent-term queries; and most queries
  // are topical, so their terms' lists genuinely overlap.
  qcfg.term_zipf_s = 1.6;
  qcfg.num_topics = corpus.num_topics;
  qcfg.topical_fraction = 0.9;
  qcfg.seed = 4242;
  return qcfg;
}

// ---- Machine-readable results (BENCH_<name>.json) ----
//
// A tiny self-contained JSON value tree: just enough for the benches to emit
// their tables as structured records CI can archive and diff across commits.
// Objects keep insertion order so the files are stable and reviewable.

class Json {
 public:
  Json() : v_(nullptr) {}
  Json(bool b) : v_(b) {}                            // NOLINT(runtime/explicit)
  Json(double d) : v_(d) {}                          // NOLINT(runtime/explicit)
  Json(int i) : v_(static_cast<double>(i)) {}        // NOLINT(runtime/explicit)
  Json(unsigned u) : v_(static_cast<double>(u)) {}   // NOLINT(runtime/explicit)
  Json(std::uint64_t u) : v_(static_cast<double>(u)) {}  // NOLINT
  Json(const char* s) : v_(std::string(s)) {}        // NOLINT(runtime/explicit)
  Json(std::string s) : v_(std::move(s)) {}          // NOLINT(runtime/explicit)

  static Json object() { Json j; j.v_ = Members{}; return j; }
  static Json array() { Json j; j.v_ = Elements{}; return j; }

  /// Object access; inserts a null member on first use of a key.
  Json& operator[](const std::string& key) {
    if (!std::holds_alternative<Members>(v_)) v_ = Members{};
    auto& members = std::get<Members>(v_);
    for (auto& [k, val] : members) {
      if (k == key) return val;
    }
    members.emplace_back(key, Json{});
    return members.back().second;
  }

  void push_back(Json j) {
    if (!std::holds_alternative<Elements>(v_)) v_ = Elements{};
    std::get<Elements>(v_).push_back(std::move(j));
  }

  std::string dump(int indent = 0) const {
    std::string out;
    write(out, indent);
    return out;
  }

  /// Compact single-line form (no whitespace): one JSONL record per call.
  std::string dump_line() const {
    std::string out;
    write_line(out);
    return out;
  }

 private:
  using Members = std::vector<std::pair<std::string, Json>>;
  using Elements = std::vector<Json>;

  static void write_escaped(std::string& out, const std::string& s) {
    out += '"';
    for (const char c : s) {
      switch (c) {
        case '"': out += "\\\""; break;
        case '\\': out += "\\\\"; break;
        case '\n': out += "\\n"; break;
        case '\t': out += "\\t"; break;
        default:
          if (static_cast<unsigned char>(c) < 0x20) {
            char buf[8];
            std::snprintf(buf, sizeof(buf), "\\u%04x", c);
            out += buf;
          } else {
            out += c;
          }
      }
    }
    out += '"';
  }

  /// Writes a null/bool/number/string value; returns false for containers,
  /// which write() and write_line() lay out themselves.
  bool write_scalar(std::string& out) const {
    if (std::holds_alternative<std::nullptr_t>(v_)) {
      out += "null";
    } else if (const bool* b = std::get_if<bool>(&v_)) {
      out += *b ? "true" : "false";
    } else if (const double* d = std::get_if<double>(&v_)) {
      if (!std::isfinite(*d)) {
        out += "null";  // JSON has no inf/nan
      } else {
        char buf[32];
        std::snprintf(buf, sizeof(buf), "%.12g", *d);
        out += buf;
      }
    } else if (const std::string* s = std::get_if<std::string>(&v_)) {
      write_escaped(out, *s);
    } else {
      return false;
    }
    return true;
  }

  void write(std::string& out, int indent) const {
    if (write_scalar(out)) return;
    const std::string pad(static_cast<std::size_t>(indent), ' ');
    if (const Elements* els = std::get_if<Elements>(&v_)) {
      if (els->empty()) { out += "[]"; return; }
      out += "[\n";
      for (std::size_t i = 0; i < els->size(); ++i) {
        out += pad + "  ";
        (*els)[i].write(out, indent + 2);
        out += i + 1 < els->size() ? ",\n" : "\n";
      }
      out += pad + "]";
    } else if (const Members* ms = std::get_if<Members>(&v_)) {
      if (ms->empty()) { out += "{}"; return; }
      out += "{\n";
      for (std::size_t i = 0; i < ms->size(); ++i) {
        out += pad + "  ";
        write_escaped(out, (*ms)[i].first);
        out += ": ";
        (*ms)[i].second.write(out, indent + 2);
        out += i + 1 < ms->size() ? ",\n" : "\n";
      }
      out += pad + "}";
    }
  }

  void write_line(std::string& out) const {
    if (write_scalar(out)) return;
    if (const Elements* els = std::get_if<Elements>(&v_)) {
      out += '[';
      for (std::size_t i = 0; i < els->size(); ++i) {
        if (i > 0) out += ',';
        (*els)[i].write_line(out);
      }
      out += ']';
    } else if (const Members* ms = std::get_if<Members>(&v_)) {
      out += '{';
      for (std::size_t i = 0; i < ms->size(); ++i) {
        if (i > 0) out += ',';
        write_escaped(out, (*ms)[i].first);
        out += ':';
        (*ms)[i].second.write_line(out);
      }
      out += '}';
    }
  }

  std::variant<std::nullptr_t, bool, double, std::string, Elements, Members>
      v_;
};

// ---- Plan-step traces (QueryResult::trace) as JSON ----

inline const char* step_kind_name(core::StepKind k) {
  switch (k) {
    case core::StepKind::kDecode: return "decode";
    case core::StepKind::kIntersect: return "intersect";
    case core::StepKind::kTransfer: return "transfer";
    case core::StepKind::kRank: return "rank";
    case core::StepKind::kPrefetch: return "prefetch";
    case core::StepKind::kHostDecode: return "host_decode";
  }
  return "?";
}

inline const char* placement_name(core::Placement p) {
  switch (p) {
    case core::Placement::kCpu: return "cpu";
    case core::Placement::kGpu: return "gpu";
    case core::Placement::kSplit: return "split";
  }
  return "?";
}

inline Json counter_value(std::uint64_t n) { return n; }
inline Json counter_value(double x) { return x; }
inline Json counter_value(sim::Duration d) { return d.us(); }

/// A counter struct (sim::SimdCounters, core::CacheCounters,
/// core::OverlapCounters, fault::FaultCounters, sim::KernelStats,
/// util::LruStats, core::QueryMetrics) as a JSON object: each field of
/// C::fields() under its key, in list order, durations in microseconds and
/// a listed member as its own nested object.
template <class C>
Json counters_json(const C& c) {
  Json j = Json::object();
  util::for_each_field<C>([&](const auto& f) {
    using T = typename std::remove_cvref_t<decltype(f)>::type;
    if constexpr (util::Listed<T>) {
      j[f.key] = counters_json(c.*f.member);
    } else {
      j[f.key] = counter_value(c.*f.member);
    }
  });
  return j;
}

/// An engine's cache-tier counters with both hit rates: the cache block
/// every bench that reports the engine tiers writes.
inline Json cache_json(const core::CacheCounters& c) {
  Json j = counters_json(c);
  j["device_hit_rate"] = c.device_hit_rate();
  j["host_hit_rate"] = c.host_hit_rate();
  return j;
}

/// One StepRecord as a JSON object (durations in microseconds). An
/// intersect carries its whole StepShape, so Scheduler::decide(shape) can be
/// replayed from the line.
inline Json step_json(const core::StepRecord& r) {
  Json j = Json::object();
  j["kind"] = step_kind_name(r.kind);
  j["placement"] = placement_name(r.placement);
  // Attribution under multi-tenancy: which query charged this step, and the
  // cross-query batch group it launched in (0 = unbatched).
  j["query"] = r.query;
  if (r.batch_group != 0) j["batch_group"] = r.batch_group;
  if (r.kind == core::StepKind::kDecode ||
      r.kind == core::StepKind::kIntersect ||
      r.kind == core::StepKind::kPrefetch ||
      r.kind == core::StepKind::kHostDecode) {
    j["term"] = static_cast<std::uint64_t>(r.term);
  }
  if (r.kind == core::StepKind::kIntersect) {
    if (r.placement == core::Placement::kSplit) j["alpha"] = r.alpha;
    j["shorter"] = r.shape.shorter;
    j["shorter_terms"] = r.shape.terms;
    j["longer"] = r.shape.longer;
    j["longer_bytes"] = r.shape.longer_bytes;
    j["longer_density"] = r.shape.longer_density;
    j["longer_scheme"] = codec::scheme_name(r.shape.longer_scheme);
    j["longer_device_resident"] = r.shape.longer_device_resident;
    j["longer_host_decoded"] = r.shape.longer_host_decoded;
    j["longer_prefetched"] = r.shape.longer_prefetched;
    if (r.shape.current_location) {
      j["current_location"] = placement_name(*r.shape.current_location);
    }
  }
  if (r.kind == core::StepKind::kTransfer) j["migration"] = r.migration;
  if (r.faulted) j["faulted"] = true;
  if (r.leg_faulted) j["leg_faulted"] = true;
  j["output_count"] = r.output_count;
  if (r.gpu_kernels > 0) j["gpu_kernels"] = r.gpu_kernels;
  if (r.simd.loops > 0) j["simd"] = counters_json(r.simd);
  j["us"] = r.duration.us();
  if (r.decode.ps() > 0) j["decode_us"] = r.decode.us();
  if (r.intersect.ps() > 0) j["intersect_us"] = r.intersect.us();
  if (r.transfer.ps() > 0) j["transfer_us"] = r.transfer.us();
  if (r.rank.ps() > 0) j["rank_us"] = r.rank.us();
  // Timeline placement (DESIGN.md §10): where and when the step's ops ran.
  j["resource"] = sim::resource_name(r.resource);
  j["issue_us"] = r.issue.us();
  j["start_us"] = r.start.us();
  j["end_us"] = r.end.us();
  return j;
}

/// JSONL sink for per-query plan traces, active only when GRIFFIN_TRACE_DIR
/// is set. Each write() appends one line:
///   {"engine":...,"query":N,"terms":T,"k":K,"total_us":...,"steps":[...]}
class TraceWriter {
 public:
  explicit TraceWriter(const std::string& bench_name) {
    const char* dir = std::getenv("GRIFFIN_TRACE_DIR");
    if (dir == nullptr) return;
    std::error_code ec;
    std::filesystem::create_directories(dir, ec);
    path_ = std::string(dir) + "/" + bench_name + ".trace.jsonl";
    f_ = std::fopen(path_.c_str(), "w");
    if (f_ == nullptr) {
      std::fprintf(stderr, "[bench] could not open %s\n", path_.c_str());
    }
  }
  ~TraceWriter() {
    if (f_ != nullptr) {
      std::fclose(f_);
      std::fprintf(stderr, "[bench] wrote %s (%llu records)\n", path_.c_str(),
                   static_cast<unsigned long long>(records_));
    }
  }
  TraceWriter(const TraceWriter&) = delete;
  TraceWriter& operator=(const TraceWriter&) = delete;

  bool enabled() const { return f_ != nullptr; }

  void write(const char* engine, std::uint64_t query_id, const core::Query& q,
             const core::QueryResult& res) {
    if (f_ == nullptr) return;
    Json line = Json::object();
    line["engine"] = engine;
    line["query"] = query_id;
    line["terms"] = static_cast<std::uint64_t>(q.terms.size());
    line["k"] = static_cast<std::uint64_t>(q.k);
    line["total_us"] = res.metrics.total.us();
    line["results"] = res.metrics.result_count;
    line["migrations"] = res.metrics.migrations;
    Json steps = Json::array();
    for (const auto& r : res.trace) steps.push_back(step_json(r));
    line["steps"] = std::move(steps);
    const std::string text = line.dump_line() + "\n";
    std::fwrite(text.data(), 1, text.size(), f_);
    ++records_;
  }

 private:
  std::string path_;
  std::FILE* f_ = nullptr;
  std::uint64_t records_ = 0;
};

/// Per-resource busy fractions (sim::Resource order) as a JSON object.
inline Json resource_utilization_json(
    const std::array<double, sim::kNumResources>& u) {
  Json j = Json::object();
  for (std::size_t r = 0; r < sim::kNumResources; ++r) {
    j[sim::resource_name(static_cast<sim::Resource>(r))] = u[r];
  }
  return j;
}

/// Latency distribution as a JSON object (ms units throughout the benches).
inline Json latency_json(const util::PercentileTracker& t) {
  Json j = Json::object();
  j["count"] = static_cast<std::uint64_t>(t.count());
  if (t.count() > 0) {
    j["mean"] = t.mean();
    j["p50"] = t.percentile(50);
    j["p95"] = t.percentile(95);
    j["p99"] = t.percentile(99);
    j["max"] = t.max();
    // Sequential service rate of one node at these latencies.
    j["throughput_qps"] = t.mean() > 0.0 ? 1000.0 / t.mean() : 0.0;
  }
  return j;
}

/// Writes BENCH_<name>.json under GRIFFIN_BENCH_JSON_DIR (default: cwd).
/// Benches call this once at exit with their full result tree; failures are
/// reported but never abort the bench (the printed table is the primary
/// output, the JSON a CI artifact).
inline void write_bench_json(const std::string& name, const Json& root) {
  const char* env = std::getenv("GRIFFIN_BENCH_JSON_DIR");
  std::string dir = env != nullptr ? env : ".";
  std::error_code ec;
  std::filesystem::create_directories(dir, ec);
  const std::string path = dir + "/BENCH_" + name + ".json";
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "[bench] could not write %s\n", path.c_str());
    return;
  }
  const std::string text = root.dump() + "\n";
  std::fwrite(text.data(), 1, text.size(), f);
  std::fclose(f);
  std::fprintf(stderr, "[bench] wrote %s\n", path.c_str());
}

// ---- Exit-code gates ----
//
// A bench checks its own invariants and floors and returns exit_code()
// from main, so ctest's `bench` label (bench/run_fast.cmake) enforces them.
// A failed check is reported on stderr; stdout and the JSON are untouched.
class Gates {
 public:
  explicit Gates(std::string bench) : bench_(std::move(bench)) {}

  void check(bool ok, const std::string& what) {
    if (ok) return;
    ++failures_;
    std::fprintf(stderr, "[%s] VIOLATION: %s\n", bench_.c_str(), what.c_str());
  }

  int failures() const { return failures_; }
  int exit_code() const { return failures_ == 0 ? 0 : 1; }

 private:
  std::string bench_;
  int failures_ = 0;
};

// ---- Table printing ----

inline void print_header(const char* title, const char* paper_note) {
  std::printf(
      "\n================================================================\n");
  std::printf("%s\n", title);
  std::printf("paper: %s\n", paper_note);
  std::printf(
      "================================================================\n");
}

inline void print_row_labels(const char* a) { std::printf("%s\n", a); }

}  // namespace griffin::bench
