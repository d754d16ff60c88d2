// The benchmark's two workloads. Each one generates its corpus and query
// stream from the seed in-process, sets the system up, runs a timed phase
// through the public APIs, checks every answer against a CpuEngine
// reference on the full index, and fills two metric sets: the end-to-end
// metrics (every run) and the per-layer metrics (traced runs only).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "harness.h"

namespace perfbench {

struct Config {
  std::string workload;  ///< paper_mix | tenant_load
  std::uint64_t seed = 1;
  /// Minimum host time of the timed phase: passes over the fixed query set
  /// repeat on freshly built systems until it is spent, and host metrics are
  /// the median pass. Simulated metrics come from the first pass (every
  /// pass must reproduce them exactly).
  double seconds = 0.0;
  bool trace = false;
  std::string trace_path;  ///< Chrome trace-event JSON (traced runs)

  // Sizes and offered rates. run.py passes the committed values from
  // workloads.json where they differ from these defaults; the self-test
  // shrinks them.
  std::uint32_t num_docs = 1'000'000;
  std::uint32_t num_terms = 1'000;
  std::uint32_t queries = 200;        ///< stream length
  std::uint32_t overload_queries = 100;  ///< tenant_load overload prefix
  double nominal_qps = 0.0;           ///< tenant_load latency rate
  double overload_qps = 0.0;          ///< tenant_load capacity rate
  double cluster_qps = 0.0;           ///< broker replay (traced tenant_load)
  std::uint32_t setup_reps = 3;       ///< set-ups per run (setup_s = median)
  std::uint32_t warmup_queries = 8;   ///< warm-up stream, disjoint seed
  std::uint32_t replay_queries = 24;  ///< per-layer kernel/codec replays
};

struct Report {
  MetricSet end_to_end;
  /// Printed beside the end-to-end metrics but kept out of the JSON result:
  /// sim_p95_ms swings more from seed to seed than a regression bound of at
  /// most 25% can absorb (which heavy term combinations the seed draws sets
  /// it), and host_p50_ms/host_p95_ms exist only on paper_mix, where the
  /// timed phase calls execute() per query.
  MetricSet ungated;
  MetricSet per_layer;
  Ledger ledger;
  /// Stated facts printed beside the metrics: sample counts, percentile
  /// support, generator lateness, which definition a metric uses here.
  std::vector<std::string> notes;
};

/// Runs one workload. Throws std::invalid_argument on a bad config.
Report run_workload(const Config& cfg);

/// Names of the workloads run_workload accepts.
const std::vector<std::string>& workload_names();

}  // namespace perfbench
