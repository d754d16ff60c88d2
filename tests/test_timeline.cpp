// sim::Timeline semantics (DESIGN.md §10): stream serialization, resource
// serialization, cross-stream event waits, dual copy engines overlapping
// each other and compute, and the picosecond-exact identity
// serial_total == critical_path + saved that QueryMetrics::overlap rests on.
#include "sim/timeline.h"

#include <gtest/gtest.h>

#include <vector>

#include "util/rng.h"

using namespace griffin;
using sim::Duration;
using sim::Resource;
using sim::Stage;
using sim::Timeline;

namespace {
Duration us(std::int64_t v) { return Duration::from_us(double(v)); }
}  // namespace

TEST(Timeline, SameStreamOpsSerializeInIssueOrder) {
  Timeline tl;
  const auto s = tl.stream();
  const auto e1 =
      tl.record(s, Resource::kGpuCompute, Stage::kIntersect, us(10));
  const auto e2 = tl.record(s, Resource::kGpuCompute, Stage::kIntersect, us(5));
  EXPECT_EQ(e1.at.ps(), us(10).ps());
  EXPECT_EQ(e2.at.ps(), us(15).ps());
  // Second op issued when the stream tail (not the wait) allowed it.
  EXPECT_EQ(tl.ops()[1].issue.ps(), us(10).ps());
  EXPECT_EQ(tl.critical_path().ps(), us(15).ps());
  EXPECT_EQ(tl.serial_total().ps(), us(15).ps());
}

TEST(Timeline, DifferentResourcesOverlap) {
  Timeline tl;
  const auto copy = tl.stream();
  const auto compute = tl.stream();
  tl.record(copy, Resource::kCopyH2D, Stage::kTransfer, us(20));
  tl.record(compute, Resource::kGpuCompute, Stage::kIntersect, us(12));
  // No dependency between them: full overlap, latency = the longer one.
  EXPECT_EQ(tl.critical_path().ps(), us(20).ps());
  EXPECT_EQ(tl.serial_total().ps(), us(32).ps());
  EXPECT_EQ(tl.busy(Resource::kCopyH2D).ps(), us(20).ps());
  EXPECT_EQ(tl.busy(Resource::kGpuCompute).ps(), us(12).ps());
}

TEST(Timeline, SameResourceSerializesAcrossStreams) {
  Timeline tl;
  const auto s1 = tl.stream();
  const auto s2 = tl.stream();
  tl.record(s1, Resource::kCopyH2D, Stage::kTransfer, us(20));
  tl.record(s2, Resource::kCopyH2D, Stage::kTransfer, us(20));
  // One DMA engine per direction: the second copy queues behind the first
  // even though the streams are independent.
  EXPECT_EQ(tl.ops()[1].issue.ps(), 0);
  EXPECT_EQ(tl.ops()[1].start.ps(), us(20).ps());
  EXPECT_EQ(tl.critical_path().ps(), us(40).ps());
}

TEST(Timeline, EventWaitExpressesCrossStreamDependency) {
  Timeline tl;
  const auto copy = tl.stream();
  const auto compute = tl.stream();
  const auto delivered =
      tl.record(copy, Resource::kCopyH2D, Stage::kTransfer, us(20));
  const auto done = tl.record(compute, Resource::kGpuCompute,
                              Stage::kIntersect, us(10), delivered);
  // The kernel reads what the copy delivered: it cannot start earlier.
  EXPECT_EQ(tl.ops()[1].issue.ps(), us(20).ps());
  EXPECT_EQ(done.at.ps(), us(30).ps());
  EXPECT_EQ(tl.critical_path().ps(), us(30).ps());
}

TEST(Timeline, DualCopyEnginesOverlapDirections) {
  Timeline tl;
  const auto up = tl.stream();
  const auto down = tl.stream();
  const auto gpu = tl.stream();
  tl.record(up, Resource::kCopyH2D, Stage::kTransfer, us(30));
  tl.record(down, Resource::kCopyD2H, Stage::kTransfer, us(30));
  tl.record(gpu, Resource::kGpuCompute, Stage::kIntersect, us(30));
  // H2D, D2H, and compute are three distinct units: everything overlaps.
  EXPECT_EQ(tl.critical_path().ps(), us(30).ps());
  EXPECT_EQ(tl.serial_total().ps(), us(90).ps());
}

TEST(Timeline, PipelinedChunksHideCopyUnderCompute) {
  // The double-buffering shape decode_full_list builds: chunk i's kernel
  // waits on chunk i's copy; copies serialize on the H2D engine; kernels
  // serialize on compute. With equal 10us chunks, steady state is one
  // resource busy while the other works on the neighbor chunk.
  Timeline tl;
  const auto copy = tl.stream();
  const auto compute = tl.stream();
  Timeline::Event prev{};
  for (int i = 0; i < 4; ++i) {
    const auto delivered =
        tl.record(copy, Resource::kCopyH2D, Stage::kTransfer, us(10));
    prev = tl.record(compute, Resource::kGpuCompute, Stage::kIntersect, us(10),
                     Timeline::join(delivered, prev));
  }
  // 4 copies + 4 decodes serially = 80us; pipelined = copy0 then 4 decodes
  // back to back = 50us.
  EXPECT_EQ(tl.serial_total().ps(), us(80).ps());
  EXPECT_EQ(tl.critical_path().ps(), us(50).ps());
}

TEST(Timeline, CriticalPathPlusSavedEqualsSerialExactly) {
  // Irregular picosecond durations: the identity is exact integer
  // arithmetic, not a float approximation.
  Timeline tl;
  const auto a = tl.stream();
  const auto b = tl.stream();
  const Duration d1 = Duration::from_ps(1234567);
  const Duration d2 = Duration::from_ps(7654321);
  const Duration d3 = Duration::from_ps(999983);
  const auto e1 = tl.record(a, Resource::kCopyH2D, Stage::kTransfer, d1);
  tl.record(b, Resource::kGpuCompute, Stage::kIntersect, d2, e1);
  tl.record(a, Resource::kCopyH2D, Stage::kTransfer, d3);
  const Duration saved = tl.serial_total() - tl.critical_path();
  EXPECT_EQ((tl.critical_path() + saved).ps(), (d1 + d2 + d3).ps());
  EXPECT_EQ(tl.critical_path().ps(), (d1 + d2).ps());
  EXPECT_EQ(saved.ps(), d3.ps());
}

TEST(TimelineScopes, ScopeStatsPartitionGlobalTotals) {
  // Two "queries" (scopes), each with its own streams, interleaved: the
  // per-scope serial/busy stats must partition the global totals exactly.
  Timeline tl;
  const auto q1 = tl.active_scope();  // scope 0: pre-existing
  const auto q2 = tl.scope();
  const auto s1 = tl.stream();
  const auto s2 = tl.stream(us(5));  // admitted later

  tl.set_scope(q1);
  tl.record(s1, Resource::kCopyH2D, Stage::kTransfer, us(10));
  tl.set_scope(q2);
  tl.record(s2, Resource::kCopyH2D, Stage::kTransfer, us(8));
  tl.set_scope(q1);
  tl.record(s1, Resource::kGpuCompute, Stage::kIntersect, us(6));

  const auto& a = tl.scope_stats(q1);
  const auto& b = tl.scope_stats(q2);
  EXPECT_EQ((a.serial + b.serial).ps(), tl.serial_total().ps());
  for (std::size_t r = 0; r < sim::kNumResources; ++r) {
    EXPECT_EQ((a.busy[r] + b.busy[r]).ps(),
              tl.busy(static_cast<Resource>(r)).ps());
  }
  EXPECT_EQ(a.ops + b.ops, tl.num_ops());
  // Scope 2's copy queued behind scope 1's on the single H2D engine:
  // issue at 10 (stream opened at 5, engine busy until 10).
  EXPECT_EQ(tl.ops()[1].start.ps(), us(10).ps());
  EXPECT_EQ(b.finish.ps(), us(18).ps());
  EXPECT_EQ(sim::max(a.finish, b.finish).ps(), tl.critical_path().ps());
}

TEST(TimelineScopes, StreamOpenAtDelaysFirstIssue) {
  Timeline tl;
  const auto s = tl.stream(us(42));
  const auto e = tl.record(s, Resource::kGpuCompute, Stage::kIntersect, us(3));
  EXPECT_EQ(tl.ops()[0].issue.ps(), us(42).ps());
  EXPECT_EQ(e.at.ps(), us(45).ps());
}

TEST(TimelineScopes, InterleavedMultiStreamPropertyHolds) {
  // Property test: for seeded random interleaves of ops from several
  // scopes (each with a CPU/copy/compute stream triple, opened at random
  // admission times), the core invariants hold regardless of order:
  //   * ops on one resource never overlap, and respect record order;
  //   * every op issues no earlier than its stream tail and its wait;
  //   * serial_total == critical_path + saved exactly (integer ps);
  //   * scope serial/busy/ops partition the global totals exactly.
  util::Xoshiro256 rng(2026);
  for (int trial = 0; trial < 20; ++trial) {
    Timeline tl;
    constexpr int kScopes = 4;
    struct ScopeStreams {
      Timeline::ScopeId scope;
      Timeline::StreamId streams[3];
      Timeline::Event last{};  // chain within the scope
    };
    std::vector<ScopeStreams> qs;
    for (int i = 0; i < kScopes; ++i) {
      ScopeStreams ss;
      ss.scope = i == 0 ? tl.active_scope() : tl.scope();
      const Duration open = Duration::from_us(double(rng() % 50));
      for (auto& s : ss.streams) s = tl.stream(open);
      qs.push_back(ss);
    }

    const int kOps = 60;
    for (int i = 0; i < kOps; ++i) {
      auto& ss = qs[rng() % kScopes];
      tl.set_scope(ss.scope);
      const auto r = static_cast<Resource>(rng() % sim::kNumResources);
      const auto stream = ss.streams[rng() % 3];
      const Duration d = Duration::from_ps(1 + std::int64_t(rng() % 9'999'983));
      // Half the ops chain on the scope's previous op (cross-stream waits).
      const bool chained = (rng() % 2) == 0;
      const auto e = tl.record(stream, r, Stage::kIntersect, d,
                               chained ? ss.last : Timeline::Event{});
      ss.last = e;
    }

    // Per-resource serialization in record order.
    Duration prev_end[sim::kNumResources] = {};
    for (const auto& op : tl.ops()) {
      const auto r = static_cast<std::size_t>(op.resource);
      EXPECT_LE(op.issue.ps(), op.start.ps());
      EXPECT_LE(op.start.ps(), op.end.ps());
      EXPECT_GE(op.start.ps(), prev_end[r].ps()) << "resource overlap";
      prev_end[r] = op.end;
    }

    // The exact identity the overlap accounting rests on. (`saved` can be
    // negative here: streams opened at a late admission time leave the
    // device idle before the first op, pushing the horizon past the serial
    // sum.)
    const Duration saved = tl.serial_total() - tl.critical_path();
    EXPECT_EQ((tl.critical_path() + saved).ps(), tl.serial_total().ps());

    // Scope partition of serial, busy, ops, and the horizon.
    Duration serial_sum;
    std::uint64_t ops_sum = 0;
    Duration busy_sum[sim::kNumResources] = {};
    Duration finish_max;
    for (const auto& ss : qs) {
      const auto& st = tl.scope_stats(ss.scope);
      serial_sum += st.serial;
      ops_sum += st.ops;
      for (std::size_t r = 0; r < sim::kNumResources; ++r) {
        busy_sum[r] += st.busy[r];
      }
      finish_max = sim::max(finish_max, st.finish);
    }
    EXPECT_EQ(serial_sum.ps(), tl.serial_total().ps());
    EXPECT_EQ(ops_sum, tl.num_ops());
    for (std::size_t r = 0; r < sim::kNumResources; ++r) {
      EXPECT_EQ(busy_sum[r].ps(), tl.busy(static_cast<Resource>(r)).ps());
      EXPECT_LE(tl.busy_fraction(static_cast<Resource>(r)), 1.0);
    }
    EXPECT_EQ(finish_max.ps(), tl.critical_path().ps());
  }
}

TEST(TimelineScopes, StageSumsPartitionScopesAndOps) {
  // The one-ledger identity (DESIGN.md §10): with stages mixed across
  // interleaved scopes, each scope's per-stage sums add up to its serial
  // sum, and summed over scopes they equal a direct per-stage sum over the
  // recorded ops.
  util::Xoshiro256 rng(77);
  Timeline tl;
  const std::vector<Timeline::ScopeId> scopes = {tl.active_scope(),
                                                 tl.scope(), tl.scope()};
  std::vector<Timeline::StreamId> streams;
  for (std::size_t i = 0; i < scopes.size(); ++i) {
    streams.push_back(tl.stream());
  }
  for (int i = 0; i < 200; ++i) {
    const std::size_t q = rng() % scopes.size();
    tl.set_scope(scopes[q]);
    tl.record(streams[q], static_cast<Resource>(rng() % sim::kNumResources),
              static_cast<Stage>(rng() % sim::kNumStages),
              Duration::from_ps(1 + std::int64_t(rng() % 999'983)));
  }

  Duration direct[sim::kNumStages] = {};
  for (const auto& op : tl.ops()) {
    direct[static_cast<std::size_t>(op.stage)] += op.end - op.start;
  }
  Duration over_scopes[sim::kNumStages] = {};
  for (const auto sc : scopes) {
    const auto& st = tl.scope_stats(sc);
    Duration stages;
    for (std::size_t g = 0; g < sim::kNumStages; ++g) {
      stages += st.stage[g];
      over_scopes[g] += st.stage[g];
    }
    EXPECT_EQ(stages.ps(), st.serial.ps()) << "scope " << sc;
  }
  for (std::size_t g = 0; g < sim::kNumStages; ++g) {
    EXPECT_GT(direct[g].ps(), 0) << "stage " << g << " never drawn";
    EXPECT_EQ(over_scopes[g].ps(), direct[g].ps()) << "stage " << g;
  }
}

TEST(Timeline, ResetDropsEverything) {
  Timeline tl;
  const auto s = tl.stream();
  tl.record(s, Resource::kCpu, Stage::kDecode, us(5));
  tl.reset();
  EXPECT_EQ(tl.num_ops(), 0u);
  EXPECT_EQ(tl.critical_path().ps(), 0);
  EXPECT_EQ(tl.serial_total().ps(), 0);
  EXPECT_EQ(tl.busy(Resource::kCpu).ps(), 0);
  const auto s2 = tl.stream();
  EXPECT_EQ(s2, 0u);  // stream ids restart
  const auto e = tl.record(s2, Resource::kCpu, Stage::kDecode, us(3));
  EXPECT_EQ(e.at.ps(), us(3).ps());
}
