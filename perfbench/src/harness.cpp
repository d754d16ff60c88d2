#include "harness.h"

#include <sys/resource.h>
#include <time.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <stdexcept>
#include <vector>

#include "util/stats.h"

namespace perfbench {

namespace {

std::size_t nearest_rank(std::size_t n, double p) {
  const auto rank =
      static_cast<std::size_t>(std::ceil(p / 100.0 * static_cast<double>(n)));
  return std::clamp<std::size_t>(rank, 1, n);
}

}  // namespace

double percentile(const std::vector<double>& samples, double p) {
  if (samples.empty()) throw std::invalid_argument("percentile of nothing");
  griffin::util::PercentileTracker t;
  for (const double x : samples) t.add(x);
  return t.percentile(p);
}

std::size_t samples_beyond(std::size_t n, double p) {
  return n == 0 ? 0 : n - nearest_rank(n, p);
}

double highest_supported_percentile(std::size_t n) {
  for (const double p : {99.9, 99.0, 95.0, 90.0, 75.0, 50.0}) {
    if (samples_beyond(n, p) >= 10) return p;
  }
  return 0.0;
}

double makespan_qps(std::uint64_t completed, double makespan_s) {
  return makespan_s > 0.0 ? static_cast<double>(completed) / makespan_s : 0.0;
}

bool same_topk(std::span<const griffin::core::ScoredDoc> a,
               std::span<const griffin::core::ScoredDoc> b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (a[i].doc != b[i].doc) return false;
    std::uint32_t sa = 0;
    std::uint32_t sb = 0;
    std::memcpy(&sa, &a[i].score, sizeof(sa));
    std::memcpy(&sb, &b[i].score, sizeof(sb));
    if (sa != sb) return false;
  }
  return true;
}

bool stage_identity_holds(const griffin::core::QueryMetrics& m) {
  return m.decode.ps() + m.intersect.ps() + m.transfer.ps() + m.rank.ps() ==
         m.total.ps() + m.overlap.saved.ps();
}

bool prefetch_conserved(const griffin::core::OverlapCounters& o) {
  return o.prefetch_used + o.prefetch_dropped == o.prefetch_issued;
}

void Ledger::record(bool topk_ok, bool served_ok, bool identities_ok) {
  ++attempted_;
  if (!topk_ok) ++topk_bad_;
  if (!served_ok) ++served_bad_;
  if (!identities_ok) ++identity_bad_;
  if (!topk_ok || !served_ok || !identities_ok) ++failed_;
}

void Ledger::check_run(bool ok, const std::string& what) {
  if (!ok) run_errors_.push_back(what);
}

void MetricSet::add(std::string name, double value, std::string unit,
                    std::string clock) {
  metrics_.push_back(
      {std::move(name), value, std::move(unit), std::move(clock)});
}

std::string exact(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[40];
  for (int digits = 1; digits <= 17; ++digits) {
    std::snprintf(buf, sizeof(buf), "%.*g", digits, v);
    if (std::strtod(buf, nullptr) == v) break;
  }
  return buf;
}

std::string MetricSet::json() const {
  std::string out = "{";
  for (std::size_t i = 0; i < metrics_.size(); ++i) {
    const auto& m = metrics_[i];
    if (i > 0) out += ", ";
    out += "\"" + m.name + "\": {\"value\": " + exact(m.value) +
           ", \"unit\": \"" + m.unit + "\"}";
  }
  return out + "}";
}

std::string MetricSet::dump(const std::string& clock) const {
  std::string out;
  for (const auto& m : metrics_) {
    if (m.clock == clock) out += m.name + "=" + exact(m.value) + "\n";
  }
  return out;
}

std::int64_t Tracer::open(const char* name, std::uint64_t query) {
  if (!enabled_) return -1;
  const auto now = static_cast<std::int64_t>((host_now() - epoch_) * 1e9);
  const std::int64_t parent = stack_.empty() ? -1 : stack_.back();
  records_.push_back({name, now, now, parent, query});
  const auto id = static_cast<std::int64_t>(records_.size() - 1);
  stack_.push_back(id);
  return id;
}

void Tracer::close(std::int64_t id) {
  if (id < 0) return;
  records_[static_cast<std::size_t>(id)].end_ns =
      static_cast<std::int64_t>((host_now() - epoch_) * 1e9);
  if (!stack_.empty() && stack_.back() == id) stack_.pop_back();
}

double Tracer::total_ms(const std::string& name) const {
  std::int64_t ns = 0;
  for (const auto& r : records_) {
    if (r.name == name) ns += r.end_ns - r.start_ns;
  }
  return static_cast<double>(ns) * 1e-6;
}

std::uint64_t Tracer::count(const std::string& name) const {
  return static_cast<std::uint64_t>(
      std::count_if(records_.begin(), records_.end(),
                    [&](const Record& r) { return r.name == name; }));
}

bool Tracer::write_chrome_trace(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fputs("{\"displayTimeUnit\": \"ms\", \"traceEvents\": [\n", f);
  for (std::size_t i = 0; i < records_.size(); ++i) {
    const auto& r = records_[i];
    std::fprintf(f,
                 "%s{\"name\": \"%s\", \"cat\": \"host\", \"ph\": \"X\", "
                 "\"pid\": 1, \"tid\": 1, \"ts\": %.3f, \"dur\": %.3f, "
                 "\"args\": {\"span\": %zu, \"parent\": %lld, \"query\": "
                 "%llu}}",
                 i == 0 ? "" : ",\n", r.name.c_str(),
                 static_cast<double>(r.start_ns) * 1e-3,
                 static_cast<double>(r.end_ns - r.start_ns) * 1e-3, i,
                 static_cast<long long>(r.parent),
                 static_cast<unsigned long long>(r.query));
  }
  std::fputs("\n]}\n", f);
  return std::fclose(f) == 0;
}

double host_now() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

double calibration_ms() {
  static const std::vector<std::uint32_t> keys = [] {
    std::vector<std::uint32_t> k(1u << 14);
    std::uint32_t x = 12345;
    for (auto& v : k) v = x = x * 1664525u + 1013904223u;
    return k;
  }();
  const double t0 = host_now();
  std::vector<std::uint32_t> sorted = keys;
  std::sort(sorted.begin(), sorted.end());
  // Observable before the clock is read, so the sort is neither optimised
  // away nor moved past it.
  volatile std::uint32_t sink = sorted[sorted.size() / 2];
  (void)sink;
  return (host_now() - t0) * 1e3;
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // Linux: KiB
}

}  // namespace perfbench
