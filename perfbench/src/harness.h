// Benchmark plumbing shared by the workloads and the self-test: the
// percentile rule, throughput over a makespan, the per-query correctness
// ledger, named metrics with their clock, and an in-memory span tracer that
// writes Chrome trace-event JSON.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "core/query.h"

namespace perfbench {

// ---- Percentiles -----------------------------------------------------------

/// Nearest-rank percentile of `samples` (p in (0, 100]), through
/// util::PercentileTracker. Throws on an empty sample.
double percentile(const std::vector<double>& samples, double p);

/// Samples strictly above the nearest-rank p-th percentile position: the
/// count a tail estimate at p rests on.
std::size_t samples_beyond(std::size_t n, double p);

/// The highest of {99.9, 99, 95, 90, 75, 50} with at least ten samples
/// beyond it, or 0 when even the median has fewer.
double highest_supported_percentile(std::size_t n);

/// Completed work over the span that contained it, in queries per second.
double makespan_qps(std::uint64_t completed, double makespan_s);

// ---- Correctness -----------------------------------------------------------

/// Bit-for-bit top-k equality (docID and the score's bit pattern).
bool same_topk(std::span<const griffin::core::ScoredDoc> a,
               std::span<const griffin::core::ScoredDoc> b);

/// decode + intersect + transfer + rank == total + overlap.saved, in
/// integer picoseconds.
bool stage_identity_holds(const griffin::core::QueryMetrics& m);

/// prefetch used + dropped == issued.
bool prefetch_conserved(const griffin::core::OverlapCounters& o);

/// Per-query pass/fail bookkeeping. A query fails when any check on it
/// fails; it counts once however many checks it breaks.
class Ledger {
 public:
  /// Records one attempted query with the outcome of every check on it.
  void record(bool topk_ok, bool served_ok, bool identities_ok);
  /// A run-level check (e.g. answered + shed == offered). A broken one
  /// fails the run without adding attempts.
  void check_run(bool ok, const std::string& what);

  std::uint64_t attempted() const { return attempted_; }
  std::uint64_t failed() const { return failed_; }
  bool correct() const { return failed_ == 0 && run_errors_.empty(); }
  const std::vector<std::string>& run_errors() const { return run_errors_; }
  std::uint64_t topk_mismatches() const { return topk_bad_; }
  std::uint64_t not_served() const { return served_bad_; }
  std::uint64_t identity_breaks() const { return identity_bad_; }

 private:
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
  std::uint64_t topk_bad_ = 0;
  std::uint64_t served_bad_ = 0;
  std::uint64_t identity_bad_ = 0;
  std::vector<std::string> run_errors_;
};

// ---- Metrics ---------------------------------------------------------------

/// `clock` is "sim" (simulated, deterministic) or "host" (the simulator's
/// own running time, or its memory).
struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
  std::string clock;
};

class MetricSet {
 public:
  void add(std::string name, double value, std::string unit,
           std::string clock);
  const std::vector<Metric>& all() const { return metrics_; }
  /// `{"name": {"value": v, "unit": u}, ...}` with every digit of v.
  std::string json() const;
  /// The metrics of one clock as `name=value` lines (byte-comparable).
  std::string dump(const std::string& clock) const;

 private:
  std::vector<Metric> metrics_;
};

/// Shortest decimal text that reads back as exactly `v`.
std::string exact(double v);

// ---- Host timing and spans ---------------------------------------------------

/// Host time in seconds: the CPU time of this process. The benchmark is
/// single-threaded, so this is the simulator's own running time; unlike the
/// wall clock it leaves out the time other processes on a shared machine
/// held the core.
double host_now();

inline double seconds_since(double t0) { return host_now() - t0; }

/// Host time (ms) of a fixed reference job that shares no code with the
/// simulator: sorting the same 16k pseudo-random keys. CPU time still
/// stretches when co-tenants of a shared machine contend for the core, and
/// this branchy, cache-resident job stretches with it.
double calibration_ms();

/// In-memory span recorder. Disabled, a Span costs two branches; enabled,
/// it appends one record per span and nothing is written until
/// write_chrome_trace at the end of the run.
class Tracer {
 public:
  struct Record {
    std::string name;
    std::int64_t start_ns = 0;
    std::int64_t end_ns = 0;
    std::int64_t parent = -1;  ///< index of the enclosing span, -1 = root
    std::uint64_t query = 0;   ///< query id the span serves (0 = none)
  };

  explicit Tracer(bool enabled) : enabled_(enabled), epoch_(host_now()) {}

  bool enabled() const { return enabled_; }
  /// Pauses or resumes recording (an untraced pass inside a traced run).
  void set_enabled(bool on) { enabled_ = on; }

  /// Opens a span; returns its index (-1 when disabled).
  std::int64_t open(const char* name, std::uint64_t query);
  void close(std::int64_t id);

  /// Summed duration (ms) and count of the spans called `name`.
  double total_ms(const std::string& name) const;
  std::uint64_t count(const std::string& name) const;

  /// Chrome trace-event JSON ("X" complete events, microsecond timestamps),
  /// loadable in Perfetto or chrome://tracing. Returns false on I/O error.
  bool write_chrome_trace(const std::string& path) const;

 private:
  bool enabled_;
  double epoch_;
  std::vector<Record> records_;
  std::vector<std::int64_t> stack_;
};

/// RAII span: open on construction, close on destruction.
class Span {
 public:
  Span(Tracer& t, const char* name, std::uint64_t query = 0)
      : tracer_(t), id_(t.open(name, query)) {}
  ~Span() { tracer_.close(id_); }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  Tracer& tracer_;
  std::int64_t id_;
};

/// Peak resident set of this process so far, in MB.
double peak_rss_mb();

}  // namespace perfbench
