// Chaos soak harness (DESIGN.md §16). One seeded query stream replayed
// through three execution modes — the sequential hybrid engine, the
// every-step-split engine, and the batched multi-tenant device — crossed
// with six fault schedules (disarmed, armed-but-silent, gpu, pcie, oom,
// everything at once) over an adaptive-codec corpus, so every recovery path
// in the unified fault domain runs against every codec the zoo picked.
//
// The bench checks as it measures (bench::Gates). Invariants, each counted
// as a violation when broken (nonzero exit):
//
//   1. golden parity — every cell's top-k digest equals the all-CPU
//      reference's: faults perturb timing and counters, never bits;
//   2. disarmed == silent — an armed injector whose faults never fire is
//      bit-identical to a disarmed one, down to total picoseconds;
//   3. determinism — every cell, rebuilt and rerun, reproduces its digest,
//      fault counters, and total time exactly;
//   4. stage identity — decode + intersect + transfer + rank ==
//      total + overlap.saved per query, faults included;
//   5. fault coverage — armed schedules actually fire their sites (a chaos
//      run that injects nothing proves nothing);
//   6. conservation — prefetch_used + prefetch_dropped == prefetch_issued,
//      and under admission control completed + shed == offered.
#include <algorithm>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "bench_common.h"
#include "core/hybrid_engine.h"
#include "tenancy/device_manager.h"

using namespace griffin;

namespace {

bench::Gates gates("chaos");

void check(bool ok, const char* what, const std::string& where) {
  gates.check(ok, std::string(what) + " (" + where + ")");
}

/// Order-sensitive digest of every query's top-k: doc ids and raw float
/// score bits. Two runs agree iff their results are bit-identical.
struct Digest {
  std::uint64_t h = 1469598103934665603ULL;
  void mix(std::uint64_t x) {
    h ^= x;
    h *= 1099511628211ULL;
  }
  void add(const core::QueryResult& res) {
    mix(res.topk.size());
    for (const auto& d : res.topk) {
      mix(d.doc);
      std::uint32_t bits = 0;
      std::memcpy(&bits, &d.score, sizeof(bits));
      mix(bits);
    }
    mix(res.metrics.result_count);
  }
};

enum class Mode { kSeq, kSplit, kTenancy };
constexpr Mode kModes[] = {Mode::kSeq, Mode::kSplit, Mode::kTenancy};

const char* mode_name(Mode m) {
  switch (m) {
    case Mode::kSeq: return "hybrid";
    case Mode::kSplit: return "split";
    case Mode::kTenancy: return "tenancy";
  }
  return "?";
}

struct Schedule {
  const char* name;
  fault::FaultConfig cfg;
  bool expect_gpu = false;
  bool expect_pcie = false;
  bool expect_oom = false;
};

std::vector<Schedule> schedules() {
  std::vector<Schedule> out;
  out.push_back({"disarmed", {}, false, false, false});
  Schedule silent{"silent", {}, false, false, false};
  // Armed (the injector is consulted everywhere) but pointed at a query id
  // the stream never reaches: every decision is false.
  silent.cfg.gpu.triggers.push_back({1u << 30, 0});
  silent.cfg.pcie.triggers.push_back({1u << 30, 0});
  silent.cfg.oom.triggers.push_back({1u << 30, 0});
  out.push_back(silent);
  Schedule gpu{"gpu", {}, true, false, false};
  gpu.cfg.gpu.probability = 0.12;
  gpu.cfg.seed = 11;
  out.push_back(gpu);
  Schedule pcie{"pcie", {}, false, true, false};
  pcie.cfg.pcie.probability = 0.05;
  pcie.cfg.seed = 12;
  out.push_back(pcie);
  Schedule oom{"oom", {}, false, false, true};
  oom.cfg.oom.probability = 0.12;
  oom.cfg.seed = 13;
  out.push_back(oom);
  Schedule all{"all", {}, true, true, true};
  all.cfg.gpu.probability = 0.10;
  all.cfg.pcie.probability = 0.04;
  all.cfg.oom.probability = 0.10;
  all.cfg.seed = 14;
  out.push_back(all);
  return out;
}

struct CellResult {
  std::uint64_t digest = 0;
  sim::Duration total;  ///< sum of per-query totals (tenancy: makespan)
  fault::FaultCounters faults;
  core::OverlapCounters overlap;
  bool stage_identity = true;
};

CellResult run_cell(Mode mode, const index::InvertedIndex& idx,
                    const std::vector<core::Query>& queries,
                    const fault::FaultConfig& faults) {
  CellResult out;
  Digest dig;
  const auto note = [&](const core::QueryMetrics& m) {
    out.faults += m.faults;
    out.overlap += m.overlap;
    if (m.decode + m.intersect + m.transfer + m.rank !=
        m.total + m.overlap.saved) {
      out.stage_identity = false;
    }
  };

  if (mode == Mode::kTenancy) {
    tenancy::TenancyOptions opt;
    opt.max_concurrency = 4;
    opt.engine.faults = faults;
    tenancy::DeviceManager dm(idx, {}, opt);
    std::vector<tenancy::TenantQuery> load;
    load.reserve(queries.size());
    for (std::size_t i = 0; i < queries.size(); ++i) {
      load.push_back({queries[i], sim::Duration::from_us(40.0 * double(i))});
    }
    const auto results = dm.run(load);
    for (const auto& r : results) {
      dig.add(r.result);
      note(r.result.metrics);
      out.total = sim::max(out.total, r.finish);
    }
    // The engine-level rollup equals the per-query sum by construction;
    // trust but verify (it is the surface the service sim reads).
    if (dm.run_faults().gpu_faults != out.faults.gpu_faults ||
        dm.run_faults().oom_faults != out.faults.oom_faults) {
      out.stage_identity = false;
    }
  } else {
    core::HybridOptions opt;
    if (mode == Mode::kSplit) {
      opt.scheduler.policy = core::SchedulerPolicy::kAlwaysSplit;
      opt.scheduler.forced_split_alpha = 0.5;
    }
    opt.faults = faults;
    core::HybridEngine engine(idx, {}, opt);
    for (const auto& q : queries) {
      const auto res = engine.execute(q);
      dig.add(res);
      note(res.metrics);
      out.total += res.metrics.total;
    }
  }
  out.digest = dig.h;
  return out;
}

}  // namespace

int main() {
  workload::CorpusConfig cfg = bench::paper_corpus_config();
  cfg.num_docs = bench::fast_mode() ? 120'000 : 400'000;
  cfg.num_terms = 300;
  cfg.adaptive = true;  // per-list codec selection: the whole zoo in play
  std::fprintf(stderr, "[chaos] building/loading corpus...\n");
  const auto idx = bench::cached_corpus(cfg);

  auto qcfg = bench::paper_query_config(1, cfg);
  qcfg.num_queries = static_cast<std::uint32_t>(bench::scaled(150));
  qcfg.seed = 909;
  const auto queries = workload::generate_query_log(qcfg, cfg.num_terms);

  bench::print_header(
      "Extension: chaos soak — all fault sites x execution modes",
      "robustness: faults perturb timing and counters, never result bits");
  std::printf(
      "corpus: %u docs, %u terms (adaptive codecs); stream: %zu queries\n"
      "modes: hybrid (ratio policy), split (kAlwaysSplit a=0.5), tenancy "
      "(4 lanes,\nbatching on); schedules: disarmed, silent, gpu, pcie, oom, "
      "all\n\n",
      cfg.num_docs, cfg.num_terms, queries.size());

  // The golden reference: the all-CPU engine, disarmed. Every cell in
  // the matrix must reproduce this digest bit for bit.
  core::HybridOptions cpu_opt;
  cpu_opt.scheduler.policy = core::SchedulerPolicy::kAlwaysCpu;
  core::HybridEngine cpu_ref(idx, {}, cpu_opt);
  Digest ref;
  for (const auto& q : queries) ref.add(cpu_ref.execute(q));

  std::printf("%-8s %-9s %10s %8s %8s %8s %8s %8s %6s\n", "mode", "faults",
              "total(ms)", "gpuflt", "pcie", "oomflt", "legflt", "oomstep",
              "parity");

  const auto scheds = schedules();
  bench::Json cells = bench::Json::array();
  for (const Mode mode : kModes) {
    CellResult disarmed_cell;
    for (const auto& s : scheds) {
      const std::string where =
          std::string(mode_name(mode)) + "/" + s.name;
      const CellResult a = run_cell(mode, idx, queries, s.cfg);
      const CellResult b = run_cell(mode, idx, queries, s.cfg);

      // 1. golden parity with the all-CPU reference.
      check(a.digest == ref.h, "top-k digest != CPU reference", where);
      // 3. determinism: rebuild + rerun reproduces everything.
      check(a.digest == b.digest, "rerun digest differs", where);
      check(a.total == b.total, "rerun total time differs", where);
      check(a.faults.gpu_faults == b.faults.gpu_faults &&
                a.faults.pcie_errors == b.faults.pcie_errors &&
                a.faults.oom_faults == b.faults.oom_faults &&
                a.faults.oom_recovery == b.faults.oom_recovery &&
                a.faults.gpu_wasted == b.faults.gpu_wasted,
            "rerun fault counters differ", where);
      // 4. per-query stage identity held everywhere.
      check(a.stage_identity, "stage identity broke", where);
      // 6. prefetch conservation.
      check(a.overlap.prefetch_used + a.overlap.prefetch_dropped ==
                a.overlap.prefetch_issued,
            "prefetch counters not conserved", where);
      // 5. coverage: armed schedules fire; disarmed/silent stay silent.
      if (s.expect_gpu) {
        check(a.faults.gpu_faults > 0, "gpu site never fired", where);
      }
      if (s.expect_pcie) {
        check(a.faults.pcie_errors > 0, "pcie site never fired", where);
      }
      if (s.expect_oom) {
        check(a.faults.oom_faults > 0, "oom site never fired", where);
      }
      if (!s.expect_gpu && !s.expect_pcie && !s.expect_oom) {
        check(!a.faults.any(), "disarmed/silent schedule injected", where);
      }
      // 2. armed-but-silent == disarmed to the picosecond.
      if (std::strcmp(s.name, "disarmed") == 0) {
        disarmed_cell = a;
      } else if (std::strcmp(s.name, "silent") == 0) {
        check(a.digest == disarmed_cell.digest,
              "silent digest != disarmed digest", where);
        check(a.total == disarmed_cell.total,
              "silent total != disarmed total", where);
      }

      std::printf(
          "%-8s %-9s %10.3f %8llu %8llu %8llu %8llu %8llu %6s\n",
          mode_name(mode), s.name, a.total.ms(),
          static_cast<unsigned long long>(a.faults.gpu_faults),
          static_cast<unsigned long long>(a.faults.pcie_errors),
          static_cast<unsigned long long>(a.faults.oom_faults),
          static_cast<unsigned long long>(a.faults.split_leg_faults),
          static_cast<unsigned long long>(a.faults.oom_degraded_steps),
          a.digest == ref.h ? "ok" : "FAIL");

      bench::Json cell = bench::Json::object();
      cell["mode"] = mode_name(mode);
      cell["schedule"] = s.name;
      cell["digest"] = a.digest;
      cell["total_ms"] = a.total.ms();
      cell["parity"] = a.digest == ref.h;
      cell["deterministic"] = a.digest == b.digest && a.total == b.total;
      cell["stage_identity"] = a.stage_identity;
      cell["faults"] = bench::fault_json(a.faults);
      cells.push_back(std::move(cell));
    }
    std::printf("\n");
  }

  // 6b. shed conservation under admission control, injector armed: every
  // offered query is either answered bit-identically or counted shed.
  {
    tenancy::TenancyOptions opt;
    opt.max_concurrency = 4;
    opt.engine.faults.gpu.probability = 0.10;
    opt.engine.faults.oom.probability = 0.10;
    opt.engine.faults.seed = 21;
    tenancy::DeviceManager dm(idx, {}, opt);
    std::vector<tenancy::TenantQuery> load;
    for (std::size_t i = 0; i < queries.size(); ++i) {
      load.push_back({queries[i], sim::Duration::from_us(10.0 * double(i))});
    }
    const auto results = dm.run(load, /*max_in_system=*/8);
    std::uint64_t shed = 0;
    std::uint64_t answered = 0;
    for (const auto& r : results) {
      if (r.shed) {
        ++shed;
        check(r.result.topk.empty(), "shed query has results",
              "tenancy/shed");
      } else {
        ++answered;
      }
    }
    check(shed + answered == queries.size(), "shed + answered != offered",
          "tenancy/shed");
    check(shed == dm.run_faults().shed_queries,
          "shed rollup != observed sheds", "tenancy/shed");
    check(shed > 0, "admission control never shed", "tenancy/shed");
    std::printf(
        "admission control, armed: offered %zu = answered %llu + shed "
        "%llu\n\n",
        queries.size(), static_cast<unsigned long long>(answered),
        static_cast<unsigned long long>(shed));
  }

  bench::Json root = bench::Json::object();
  root["bench"] = "chaos";
  root["fast_mode"] = bench::fast_mode();
  root["num_docs"] = cfg.num_docs;
  root["num_terms"] = cfg.num_terms;
  root["num_queries"] = static_cast<std::uint64_t>(queries.size());
  root["reference_digest"] = ref.h;
  root["cells"] = std::move(cells);
  root["violations"] = static_cast<std::uint64_t>(gates.failures());
  bench::write_bench_json("chaos", root);

  if (gates.failures() > 0) return gates.exit_code();
  std::printf(
      "(every cell reproduced the all-CPU digest, reran identically, and "
      "kept the\nstage identity — the fault domain degrades timing, never "
      "answers.)\n");
  return 0;
}
