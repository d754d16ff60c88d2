// perfbench: the repository benchmark. Usually started through run.py,
// which builds it and passes the committed sizes and offered rates from
// workloads.json:
//
//   perfbench --workload paper_mix --seed 1 --seconds 10 --trace 0 [sizes]
//
// Prints every metric as `metric <name> = <value> <unit> [<clock>]`, the
// stated facts behind them, the provenance of the run, and as the last line
// one JSON object {"correct", "attempted", "failed", "metrics"}: the
// end-to-end metrics with --trace 0, the per-layer ones with --trace 1.
// Exits 1 when any answer or invariant check failed, 2 on bad arguments.
#include <unistd.h>

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>

#include "harness.h"
#include "workloads.h"

namespace {

using perfbench::Config;

[[noreturn]] void usage(const std::string& why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload <name> --seed <n> "
               "--seconds <s> --trace <0|1> [--trace-out <file>] "
               "[--queries n] [--overload-queries n] [--docs n] "
               "[--nominal-qps q] [--overload-qps q] [--cluster-qps q] "
               "[--warmup-queries n] [--git-commit id]\n",
               why.c_str());
  std::exit(2);
}

double number(const char* flag, const char* v) {
  char* end = nullptr;
  const double d = std::strtod(v, &end);
  if (end == v || *end != '\0' || d < 0) {
    usage(std::string("bad value for ") + flag + ": " + v);
  }
  return d;
}

std::uint32_t count(const char* flag, const char* v) {
  const double d = number(flag, v);
  if (d != static_cast<double>(static_cast<std::uint32_t>(d))) {
    usage(std::string("not a whole number for ") + flag + ": " + v);
  }
  return static_cast<std::uint32_t>(d);
}

}  // namespace

int main(int argc, char** argv) {
  const auto t0 = std::chrono::steady_clock::now();
  Config c;
  std::string commit = "unknown";
  bool have_workload = false;
  bool have_seed = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) usage("missing value for " + flag);
    const char* v = argv[++i];
    if (flag == "--workload") {
      c.workload = v;
      have_workload = true;
    } else if (flag == "--seed") {
      c.seed = static_cast<std::uint64_t>(std::strtoull(v, nullptr, 10));
      have_seed = true;
    } else if (flag == "--seconds") {
      c.seconds = number("--seconds", v);
    } else if (flag == "--trace") {
      c.trace = std::string(v) == "1";
    } else if (flag == "--trace-out") {
      c.trace_path = v;
    } else if (flag == "--queries") {
      c.queries = count("--queries", v);
    } else if (flag == "--overload-queries") {
      c.overload_queries = count("--overload-queries", v);
    } else if (flag == "--docs") {
      c.num_docs = count("--docs", v);
    } else if (flag == "--nominal-qps") {
      c.nominal_qps = number("--nominal-qps", v);
    } else if (flag == "--overload-qps") {
      c.overload_qps = number("--overload-qps", v);
    } else if (flag == "--cluster-qps") {
      c.cluster_qps = number("--cluster-qps", v);
    } else if (flag == "--warmup-queries") {
      c.warmup_queries = count("--warmup-queries", v);
    } else if (flag == "--git-commit") {
      commit = v;
    } else {
      usage("unknown flag " + flag);
    }
  }
  if (!have_workload || !have_seed) usage("--workload and --seed are required");

  perfbench::Report rep;
  try {
    rep = perfbench::run_workload(c);
  } catch (const std::invalid_argument& e) {
    usage(e.what());
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }

  const auto& metrics = c.trace ? rep.per_layer : rep.end_to_end;
  for (const auto& m : metrics.all()) {
    std::printf("metric %s = %s %s [%s]\n", m.name.c_str(),
                perfbench::exact(m.value).c_str(), m.unit.c_str(),
                m.clock.c_str());
  }
  if (!c.trace) {
    for (const auto& m : rep.ungated.all()) {
      std::printf("metric %s = %s %s [%s, not in the JSON result]\n",
                  m.name.c_str(), perfbench::exact(m.value).c_str(),
                  m.unit.c_str(), m.clock.c_str());
    }
  }
  const auto& l = rep.ledger;
  std::printf("failed_frac = %s (%llu of %llu attempted: %llu top-k "
              "mismatches, %llu shed or degraded, %llu identity breaks)\n",
              perfbench::exact(l.attempted() == 0
                                   ? 0.0
                                   : static_cast<double>(l.failed()) /
                                         static_cast<double>(l.attempted()))
                  .c_str(),
              static_cast<unsigned long long>(l.failed()),
              static_cast<unsigned long long>(l.attempted()),
              static_cast<unsigned long long>(l.topk_mismatches()),
              static_cast<unsigned long long>(l.not_served()),
              static_cast<unsigned long long>(l.identity_breaks()));
  for (const auto& e : l.run_errors()) std::printf("CHECK FAILED: %s\n", e.c_str());
  for (const auto& n : rep.notes) std::printf("note: %s\n", n.c_str());
  std::printf(
      "provenance: workload=%s seed=%llu queries=%u overload_queries=%u "
      "docs=%u terms=%u nominal_qps=%s overload_qps=%s cluster_qps=%s "
      "setup_reps=%u build_type=%s compiler=\"%s\" nproc=%ld commit=%s "
      "host_wall_s=%s\n",
      c.workload.c_str(), static_cast<unsigned long long>(c.seed), c.queries,
      c.overload_queries, c.num_docs, c.num_terms,
      perfbench::exact(c.nominal_qps).c_str(),
      perfbench::exact(c.overload_qps).c_str(),
      perfbench::exact(c.cluster_qps).c_str(), c.setup_reps,
      PERFBENCH_BUILD_TYPE, PERFBENCH_COMPILER, sysconf(_SC_NPROCESSORS_ONLN),
      commit.c_str(),
      perfbench::exact(std::chrono::duration<double>(
                           std::chrono::steady_clock::now() - t0)
                           .count())
          .c_str());
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": %s}\n",
              l.correct() ? "true" : "false",
              static_cast<unsigned long long>(l.attempted()),
              static_cast<unsigned long long>(l.failed()),
              metrics.json().c_str());
  return l.correct() ? 0 : 1;
}
