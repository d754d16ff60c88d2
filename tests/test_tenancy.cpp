// Multi-tenant device subsystem (DESIGN.md §12): golden parity with
// sequential execution (tenancy and batching reshape timing, never bits),
// per-query stage identities on the shared timeline, scope accounting that
// partitions the global clocks exactly, cross-query batching, and the
// occupancy-driven multi-tenant service loop.
#include "tenancy/device_manager.h"

#include <gtest/gtest.h>

#include <cstring>
#include <set>

#include "core/hybrid_engine.h"
#include "engine_test_util.h"
#include "service/queueing.h"
#include "service/service_sim.h"

using namespace griffin;

namespace {

std::vector<core::Query> tenant_queries(std::size_t n, std::uint64_t seed) {
  workload::QueryLogConfig qcfg;
  qcfg.num_queries = static_cast<std::uint32_t>(n);
  qcfg.seed = seed;
  return workload::generate_query_log(
      qcfg, static_cast<std::uint32_t>(testutil::large_index().num_terms()));
}

/// Offered load with a fixed inter-arrival gap small enough that several
/// queries are always in flight on the large corpus (whose queries take
/// milliseconds).
std::vector<tenancy::TenantQuery> dense_load(
    const std::vector<core::Query>& queries, double gap_us) {
  std::vector<tenancy::TenantQuery> load;
  load.reserve(queries.size());
  for (std::size_t i = 0; i < queries.size(); ++i) {
    load.push_back(
        {queries[i], sim::Duration::from_us(gap_us * double(i))});
  }
  return load;
}

/// A run's results folded the way the service sim folds them.
core::RunTotals fold(const std::vector<tenancy::TenantResult>& results) {
  core::RunTotals run;
  for (const auto& r : results) run.add(r.result);
  return run;
}

/// Bit-exact top-k comparison: doc ids equal and score *bits* equal — the
/// contract is bit-identical results, not merely close ones.
void expect_bit_identical_topk(const std::vector<core::ScoredDoc>& got,
                               const std::vector<core::ScoredDoc>& want,
                               std::size_t qi) {
  ASSERT_EQ(got.size(), want.size()) << "query " << qi;
  for (std::size_t r = 0; r < want.size(); ++r) {
    EXPECT_EQ(got[r].doc, want[r].doc) << "query " << qi << " rank " << r;
    std::uint32_t gb = 0;
    std::uint32_t wb = 0;
    std::memcpy(&gb, &got[r].score, sizeof(gb));
    std::memcpy(&wb, &want[r].score, sizeof(wb));
    EXPECT_EQ(gb, wb) << "query " << qi << " rank " << r;
  }
}

}  // namespace

TEST(Tenancy, GoldenParityWithSequentialExecution) {
  // The acceptance contract: multi-tenancy + batching on vs. off vs. the
  // sequential hybrid engine — all three produce bit-identical top-k.
  const auto& idx = testutil::large_index();
  const auto queries = tenant_queries(40, 21);
  const auto load = dense_load(queries, 100.0);

  core::HybridEngine seq(idx);
  std::vector<core::QueryResult> want;
  want.reserve(queries.size());
  for (const auto& q : queries) want.push_back(seq.execute(q));

  tenancy::TenancyOptions batched;
  batched.max_concurrency = 4;
  tenancy::DeviceManager dm_batched(idx, {}, batched);
  const auto got_batched = dm_batched.run(load);

  tenancy::TenancyOptions unbatched;
  unbatched.max_concurrency = 4;
  unbatched.batch.enabled = false;
  tenancy::DeviceManager dm_plain(idx, {}, unbatched);
  const auto got_plain = dm_plain.run(load);

  ASSERT_EQ(got_batched.size(), queries.size());
  ASSERT_EQ(got_plain.size(), queries.size());
  for (std::size_t i = 0; i < queries.size(); ++i) {
    expect_bit_identical_topk(got_batched[i].result.topk, want[i].topk, i);
    expect_bit_identical_topk(got_plain[i].result.topk, want[i].topk, i);
    EXPECT_EQ(got_batched[i].result.metrics.result_count,
              want[i].metrics.result_count);
  }
}

TEST(Tenancy, SingleLaneMatchesSequentialTimingExactly) {
  // max_concurrency = 1 on the shared timeline IS the sequential device:
  // the same warm caches in the same order, streams merely offset by the
  // release time. Every per-query latency must match the persistent
  // sequential engine to the picosecond.
  const auto& idx = testutil::large_index();
  const auto queries = tenant_queries(25, 33);

  core::HybridEngine seq(idx);
  std::vector<sim::Duration> want;
  for (const auto& q : queries) want.push_back(seq.execute(q).metrics.total);

  tenancy::TenancyOptions opt;
  opt.max_concurrency = 1;
  tenancy::DeviceManager dm(idx, {}, opt);
  const auto got = dm.run(dense_load(queries, 50.0));

  for (std::size_t i = 0; i < queries.size(); ++i) {
    EXPECT_EQ(got[i].result.metrics.total.ps(), want[i].ps()) << "query " << i;
  }
}

TEST(Tenancy, StageIdentityHoldsPerQueryOnTheSharedTimeline) {
  // decode + intersect + transfer + rank == total + overlap.saved, exactly,
  // for every co-admitted query — with `saved` free to go negative when a
  // query queued behind its co-tenants' ops.
  const auto& idx = testutil::large_index();
  const auto queries = tenant_queries(30, 5);
  tenancy::TenancyOptions opt;
  opt.max_concurrency = 6;
  tenancy::DeviceManager dm(idx, {}, opt);
  const auto results = dm.run(dense_load(queries, 20.0));

  for (std::size_t i = 0; i < results.size(); ++i) {
    const auto& m = results[i].result.metrics;
    const sim::Duration stages = m.decode + m.intersect + m.transfer + m.rank;
    EXPECT_EQ(stages.ps(), (m.total + m.overlap.saved).ps()) << "query " << i;
    EXPECT_EQ(results[i].finish.ps(),
              (results[i].release + m.total).ps()) << "query " << i;
    EXPECT_GE(results[i].release.ps(), results[i].arrival.ps());
  }
}

TEST(Tenancy, ScopeAccountingPartitionsTheSharedClocks) {
  const auto& idx = testutil::large_index();
  const auto queries = tenant_queries(24, 11);
  tenancy::TenancyOptions opt;
  opt.max_concurrency = 4;
  tenancy::DeviceManager dm(idx, {}, opt);
  const auto results = dm.run(dense_load(queries, 40.0));
  const auto& tl = dm.timeline();

  // Per-query busy durations sum to the global per-resource busy, and no
  // resource is busy longer than the horizon.
  const core::OverlapCounters sum = fold(results).engine_overlap;
  for (std::size_t r = 0; r < sim::kNumResources; ++r) {
    const auto res = static_cast<sim::Resource>(r);
    EXPECT_EQ(sum.busy(res).ps(), tl.busy(res).ps()) << sim::resource_name(res);
    EXPECT_LE(tl.busy(res).ps(), tl.critical_path().ps());
    EXPECT_GE(tl.busy_fraction(res), 0.0);
    EXPECT_LE(tl.busy_fraction(res), 1.0);
  }
  EXPECT_LE(tl.critical_path().ps(), tl.serial_total().ps());
}

TEST(Tenancy, BatchingFiresAndIsAttributable) {
  const auto& idx = testutil::large_index();
  const auto queries = tenant_queries(30, 9);
  tenancy::TenancyOptions opt;
  opt.max_concurrency = 6;
  tenancy::DeviceManager dm(idx, {}, opt);
  // A warm-up load on the same manager first: batch_groups() must count the
  // measured run alone, not everything since construction.
  dm.run(dense_load(tenant_queries(12, 10), 10.0));
  ASSERT_GT(dm.batch_groups(), 0u);
  const auto results = dm.run(dense_load(queries, 10.0));

  EXPECT_GT(dm.batch_groups(), 0u);
  core::TraceSummary summary;
  std::uint64_t batched = 0;
  std::set<std::uint64_t> groups;
  for (std::size_t i = 0; i < results.size(); ++i) {
    // Fused launches split one op's worth of overhead K ways, yet every
    // lane's records still sum to its own stage totals exactly.
    testutil::expect_stage_sums(results[i].result,
                                "lane query " + std::to_string(i),
                                results[i].release);
    for (const auto& rec : results[i].result.trace) {
      // Every record is attributable to its query.
      EXPECT_EQ(rec.query, queries[i].id);
      if (rec.batch_group != 0) {
        ++batched;
        groups.insert(rec.batch_group);
        // Only GPU decode/intersect steps batch.
        EXPECT_TRUE(rec.kind == core::StepKind::kDecode ||
                    rec.kind == core::StepKind::kIntersect);
        EXPECT_EQ(rec.placement, core::Placement::kGpu);
      }
    }
    summary.add(results[i].result.trace);
  }
  EXPECT_GT(batched, 0u);
  EXPECT_EQ(summary.batched_steps, batched);
  // Group ids restart with every run(): the measured run's distinct nonzero
  // ids are exactly 1..batch_groups().
  ASSERT_EQ(groups.size(), dm.batch_groups());
  EXPECT_EQ(*groups.begin(), 1u);
  EXPECT_EQ(*groups.rbegin(), dm.batch_groups());
}

TEST(Tenancy, ConcurrencyRaisesCopyEngineUtilizationAndThroughput) {
  // The point of the subsystem: with co-admitted queries, one tenant's H2D
  // rides under another's kernels — the copy engine's busy fraction rises
  // and the same load drains sooner than on the sequential device.
  const auto& idx = testutil::large_index();
  const auto queries = tenant_queries(30, 17);
  const auto load = dense_load(queries, 10.0);

  tenancy::TenancyOptions seq_opt;
  seq_opt.max_concurrency = 1;
  tenancy::DeviceManager seq(idx, {}, seq_opt);
  seq.run(load);
  const double seq_h2d =
      seq.timeline().busy_fraction(sim::Resource::kCopyH2D);
  const auto seq_span = seq.timeline().critical_path();

  tenancy::TenancyOptions par_opt;
  par_opt.max_concurrency = 6;
  tenancy::DeviceManager par(idx, {}, par_opt);
  par.run(load);
  const double par_h2d =
      par.timeline().busy_fraction(sim::Resource::kCopyH2D);
  const auto par_span = par.timeline().critical_path();

  EXPECT_GT(par_h2d, seq_h2d);
  EXPECT_LT(par_span.ps(), seq_span.ps());
}

TEST(Tenancy, DeterministicAcrossRuns) {
  const auto& idx = testutil::large_index();
  const auto queries = tenant_queries(20, 3);
  const auto load = dense_load(queries, 25.0);
  tenancy::TenancyOptions opt;
  opt.max_concurrency = 4;

  tenancy::DeviceManager a(idx, {}, opt);
  tenancy::DeviceManager b(idx, {}, opt);
  const auto ra = a.run(load);
  const auto rb = b.run(load);
  ASSERT_EQ(ra.size(), rb.size());
  for (std::size_t i = 0; i < ra.size(); ++i) {
    EXPECT_EQ(ra[i].finish.ps(), rb[i].finish.ps());
    EXPECT_EQ(ra[i].release.ps(), rb[i].release.ps());
  }
  EXPECT_EQ(a.timeline().critical_path().ps(),
            b.timeline().critical_path().ps());
  EXPECT_EQ(a.batch_groups(), b.batch_groups());
}

TEST(Tenancy, EmptyQueriesAndEmptyLoadAreWellDefined) {
  const auto& idx = testutil::small_index();
  tenancy::TenancyOptions opt;
  opt.max_concurrency = 2;
  tenancy::DeviceManager dm(idx, {}, opt);

  EXPECT_TRUE(dm.run({}).empty());

  std::vector<tenancy::TenantQuery> load;
  core::Query empty;  // no terms: finishes at admission, empty result
  empty.id = 7;
  load.push_back({empty, sim::Duration::from_us(1.0)});
  core::Query real;
  real.terms = {1, 2};
  real.id = 8;
  load.push_back({real, sim::Duration::from_us(2.0)});
  const auto results = dm.run(load);
  ASSERT_EQ(results.size(), 2u);
  EXPECT_TRUE(results[0].result.topk.empty());
  EXPECT_EQ(results[0].finish.ps(), results[0].release.ps());
  EXPECT_FALSE(results[1].result.trace.empty());
}

// ---- Fault-aware tenancy (DESIGN.md §16): arming the shared device's
// ---- injector perturbs timing and counters, never bits — and a fault
// ---- inside a fused batch degrades only the hit query.

TEST(TenancyFaults, ArmedButSilentTenancyIsBitIdenticalToDisarmed) {
  // Arming wires a real injector into every lane; scripted faults that
  // never fire must leave the whole run — results, per-query timing, batch
  // composition — bit-identical to the disarmed device.
  const auto& idx = testutil::large_index();
  const auto queries = tenant_queries(25, 47);
  const auto load = dense_load(queries, 30.0);

  tenancy::TenancyOptions plain;
  plain.max_concurrency = 4;
  tenancy::TenancyOptions armed = plain;
  armed.engine.faults.gpu.triggers.push_back({/*query=*/999999, 0});
  armed.engine.faults.oom.triggers.push_back({/*query=*/999999, 0});

  tenancy::DeviceManager a(idx, {}, plain);
  tenancy::DeviceManager b(idx, {}, armed);
  const auto ra = a.run(load);
  const auto rb = b.run(load);
  ASSERT_EQ(ra.size(), rb.size());
  for (std::size_t i = 0; i < ra.size(); ++i) {
    EXPECT_EQ(ra[i].finish.ps(), rb[i].finish.ps()) << "query " << i;
    EXPECT_EQ(ra[i].result.metrics.total.ps(),
              rb[i].result.metrics.total.ps()) << "query " << i;
    expect_bit_identical_topk(rb[i].result.topk, ra[i].result.topk, i);
  }
  EXPECT_FALSE(fold(rb).faults.any());
  EXPECT_EQ(a.batch_groups(), b.batch_groups());
}

TEST(TenancyFaults, ArmedTenancyKeepsGoldenParityAndIsDeterministic) {
  // Probabilistic gpu + oom faults across a batched multi-tenant run: every
  // recovery path may fire, and every answer must still match the clean
  // sequential engine bit for bit. Same seed, same load: same everything.
  const auto& idx = testutil::large_index();
  const auto queries = tenant_queries(40, 53);
  const auto load = dense_load(queries, 50.0);

  core::HybridEngine seq(idx);
  std::vector<core::QueryResult> want;
  want.reserve(queries.size());
  for (const auto& q : queries) want.push_back(seq.execute(q));

  tenancy::TenancyOptions opt;
  opt.max_concurrency = 4;
  opt.engine.faults.gpu.probability = 0.1;
  opt.engine.faults.oom.probability = 0.1;
  opt.engine.faults.seed = 99;
  tenancy::DeviceManager dm(idx, {}, opt);
  tenancy::DeviceManager twin(idx, {}, opt);
  const auto got = dm.run(load);
  const auto again = twin.run(load);

  ASSERT_EQ(got.size(), queries.size());
  for (std::size_t i = 0; i < queries.size(); ++i) {
    expect_bit_identical_topk(got[i].result.topk, want[i].topk, i);
    EXPECT_EQ(got[i].finish.ps(), again[i].finish.ps()) << "query " << i;
    // Stage sums per query and per record, faults included.
    testutil::expect_stage_sums(got[i].result, "query " + std::to_string(i),
                                got[i].release);
  }
  // The run actually injected something, and the twin injected the same.
  const fault::FaultCounters faults = fold(got).faults;
  EXPECT_TRUE(faults.any());
  EXPECT_GT(faults.gpu_faults + faults.oom_faults, 0u);
  EXPECT_EQ(faults, fold(again).faults);
}

TEST(TenancyFaults, ShedResultsCountThemselves) {
  const auto& idx = testutil::large_index();
  const auto queries = tenant_queries(30, 59);
  const auto load = dense_load(queries, 15.0);

  tenancy::TenancyOptions opt;
  opt.max_concurrency = 4;
  opt.engine.faults.gpu.probability = 0.15;
  opt.engine.faults.oom.probability = 0.1;
  opt.engine.faults.seed = 7;
  tenancy::DeviceManager dm(idx, {}, opt);
  // A tight admission bound so the shed path fires under armed faults.
  const auto results = dm.run(load, /*max_in_system=*/6);

  // A shed result's only count is its own shed, so a fold of the run's
  // results counts every shed exactly once.
  fault::FaultCounters one_shed;
  one_shed.shed_queries = 1;
  std::uint64_t shed = 0;
  for (const auto& r : results) {
    if (!r.shed) continue;
    ++shed;
    EXPECT_EQ(r.result.metrics.faults, one_shed);
    EXPECT_TRUE(r.result.trace.empty());
  }
  EXPECT_GT(shed, 0u);
  EXPECT_EQ(fold(results).faults.shed_queries, shed);
}

TEST(TenancyFaults, OomInsideAFusedBatchUnfusesOnlyTheHitQuery) {
  // Rung 2 of the ladder: the hit lane dissolves its batch membership and
  // re-launches alone; co-batched queries keep their fused accounting and
  // their bits. The device cache is disabled so rung 1 cannot absorb the
  // pressure first.
  const auto& idx = testutil::large_index();
  const auto queries = tenant_queries(30, 9);  // seed 9: batching fires
  const auto load = dense_load(queries, 10.0);
  const std::uint64_t victim = queries[7].id;

  tenancy::TenancyOptions opt;
  opt.max_concurrency = 6;
  opt.engine.gpu.list_cache_bytes = 0;
  opt.engine.faults.oom.triggers.push_back(
      {/*query=*/victim, /*scope=*/0});
  tenancy::DeviceManager dm(idx, {}, opt);
  const auto results = dm.run(load);

  // The clean reference: same per-lane engine config, no faults.
  tenancy::TenancyOptions clean = opt;
  clean.engine.faults = fault::FaultConfig{};
  tenancy::DeviceManager ref_dm(idx, {}, clean);
  const auto ref = ref_dm.run(load);

  ASSERT_EQ(results.size(), queries.size());
  std::uint64_t victim_i = queries.size();
  for (std::size_t i = 0; i < queries.size(); ++i) {
    if (queries[i].id == victim) victim_i = i;
    expect_bit_identical_topk(results[i].result.topk, ref[i].result.topk, i);
    if (queries[i].id != victim) {
      // Only the hit query pays: everyone else's counters stay clean.
      EXPECT_FALSE(results[i].result.metrics.faults.any()) << "query " << i;
    }
  }
  ASSERT_LT(victim_i, queries.size());
  const auto& vf = results[victim_i].result.metrics.faults;
  EXPECT_GT(vf.oom_faults, 0u);
  EXPECT_EQ(vf.oom_evictions, 0u);  // nothing cached to evict
  // The victim's pressure was absorbed by the ladder: unfused from a batch
  // and/or re-planned host-side, and the whole ladder cost is on the clock.
  EXPECT_GT(vf.oom_unfused + vf.oom_degraded_steps, 0u);
  EXPECT_GT(vf.oom_recovery.ps(), 0);
  EXPECT_EQ(fold(results).faults.oom_unfused, vf.oom_unfused);

  // The batch machinery itself kept running for everyone else.
  EXPECT_GT(dm.batch_groups(), 0u);
}

TEST(TenancyService, MultiTenantServiceLoopRunsAndSheds) {
  const auto& idx = testutil::small_index();
  workload::QueryLogConfig qcfg;
  qcfg.num_queries = 120;
  qcfg.seed = 41;
  const auto queries = workload::generate_query_log(
      qcfg, static_cast<std::uint32_t>(idx.num_terms()));

  tenancy::TenancyOptions opt;
  opt.max_concurrency = 4;
  tenancy::DeviceManager dm(idx, {}, opt);

  service::ServiceConfig cfg;
  cfg.arrival_qps = 20000.0;
  const auto open = service::run_service(dm, queries, cfg);
  EXPECT_EQ(open.response_ms.count(), queries.size());
  EXPECT_EQ(open.faults.shed_queries, 0u);
  // Per-resource utilization is populated from the shared timeline; the
  // scalar is the bottleneck's.
  double top = 0.0;
  for (const double f : open.resource_utilization) {
    EXPECT_GE(f, 0.0);
    EXPECT_LE(f, 1.0);
    top = std::max(top, f);
  }
  EXPECT_DOUBLE_EQ(open.utilization, top);
  EXPECT_GT(open.utilization, 0.0);
  EXPECT_GT(open.horizon.ps(), 0);

  // Admission control is DeviceManager::run's: the Poisson load the service
  // loop offered, with at most 5 queries in the system.
  service::PoissonArrivals arrivals(cfg.arrival_qps, cfg.seed);
  std::vector<tenancy::TenantQuery> load;
  for (const auto& q : queries) load.push_back({q, arrivals.next()});
  const auto bounded = dm.run(load, 5);
  std::uint64_t answered = 0;
  for (const auto& r : bounded) answered += r.shed ? 0 : 1;
  const std::uint64_t shed = fold(bounded).faults.shed_queries;
  EXPECT_GT(shed, 0u);
  EXPECT_EQ(answered + shed, queries.size());

  // Determinism: same load, same outcome for every query.
  const auto again = dm.run(load, 5);
  ASSERT_EQ(again.size(), bounded.size());
  for (std::size_t i = 0; i < bounded.size(); ++i) {
    EXPECT_EQ(again[i].shed, bounded[i].shed) << "query " << i;
    EXPECT_EQ(again[i].finish.ps(), bounded[i].finish.ps()) << "query " << i;
  }
}

TEST(TenancyService, ServiceFaultsAggregateTheArmedDeviceExactly) {
  // End-to-end counter plumbing: engine-level faults injected inside the
  // multi-tenant device surface in ServiceResult::faults — and the service
  // view equals a fold of the device's own results plus nothing.
  const auto& idx = testutil::small_index();
  workload::QueryLogConfig qcfg;
  qcfg.num_queries = 100;
  qcfg.seed = 43;
  const auto queries = workload::generate_query_log(
      qcfg, static_cast<std::uint32_t>(idx.num_terms()));

  tenancy::TenancyOptions opt;
  opt.max_concurrency = 4;
  opt.engine.scheduler.policy = core::SchedulerPolicy::kAlwaysGpu;
  opt.engine.faults.gpu.probability = 0.1;
  opt.engine.faults.oom.probability = 0.05;
  opt.engine.faults.seed = 17;
  tenancy::DeviceManager dm(idx, {}, opt);

  service::ServiceConfig cfg;
  cfg.arrival_qps = 20000.0;
  const auto out = service::run_service(dm, queries, cfg);

  EXPECT_TRUE(out.faults.any());
  EXPECT_GT(out.faults.gpu_faults + out.faults.oom_faults, 0u);
  // A twin device fed the same Poisson arrivals.
  service::PoissonArrivals arrivals(cfg.arrival_qps, cfg.seed);
  std::vector<tenancy::TenantQuery> load;
  for (const auto& q : queries) load.push_back({q, arrivals.next()});
  tenancy::DeviceManager twin(idx, {}, opt);
  const core::RunTotals run = fold(twin.run(load));
  EXPECT_EQ(out.faults, run.faults);
  EXPECT_EQ(out.trace, run.trace);

  // Every offered query is answered.
  EXPECT_EQ(out.response_ms.count(), queries.size());

  // And the armed service loop is deterministic end to end: a second device
  // built from the same options replays the identical run. (Re-running the
  // *same* device differs legitimately — its lane caches stay warm.)
  tenancy::DeviceManager dm2(idx, {}, opt);
  const auto out2 = service::run_service(dm2, queries, cfg);
  EXPECT_EQ(out2.faults, out.faults);
  EXPECT_DOUBLE_EQ(out2.response_ms.mean(), out.response_ms.mean());
}
