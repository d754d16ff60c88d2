// The physical-plan layer (DESIGN.md §8). A query is executed as a sequence
// of typed steps — decode, intersect, transfer, rank — emitted one at a time
// by the Planner (core/planner.h) and run by the StepExecutor
// (core/executor.h). The CPU-only, GPU-only and hybrid engines are the same
// planner/executor pair under different scheduler policies (kAlwaysCpu /
// kAlwaysGpu / the paper's intra-query rule), so scheduling experiments,
// cache tiers and metrics are wired up exactly once.
//
// Every executed step appends a StepRecord (core/query.h) to
// QueryResult::trace: the placement, the StepShape the scheduler saw, and
// the per-stage duration deltas the step charged. Traces are the
// introspection surface — the scheduling ablation and the crossover bench
// read them instead of poking at engine internals, and TraceSummary
// aggregates them through the shard node, the cluster broker and the
// service simulation.
#pragma once

#include <cstdint>
#include <variant>

#include "core/query.h"

namespace griffin::core {

/// Which way a TransferStep moves the intermediate result over PCIe.
enum class TransferDirection : std::uint8_t { kHostToDevice, kDeviceToHost };

/// Decode one full posting list as the query's intermediate result
/// (single-term queries only; multi-term queries decode inside intersects).
struct DecodeStep {
  index::TermId term = 0;
  Placement where = Placement::kCpu;
};

/// Intersect the intermediate result (or, for the first pair, the shortest
/// list) with posting list `term` on processor `where`. `shape` is exactly
/// the StepShape the scheduler decided on — recorded so a trace reader can
/// replay the decision (Scheduler::decide(shape) == where).
struct IntersectStep {
  index::TermId term = 0;        ///< the longer list
  index::TermId probe_term = 0;  ///< the shorter list (first_pair only)
  bool first_pair = false;
  Placement where = Placement::kCpu;
  /// where == kSplit only (DESIGN.md §15): the GPU's share of the probe
  /// side. The executor partitions the sorted probes at index
  /// round((1-alpha)*n) — the low docID range runs the CPU's SvS stepper,
  /// the high range the GPU's binary-search kernels, concurrently; the
  /// concatenated partials are bit-identical to the unsplit result.
  double alpha = 0.0;
  StepShape shape;
};

/// Move the intermediate result across the PCIe link. `migration` marks
/// mid-query processor hand-offs (counted in QueryMetrics::migrations); the
/// final device->host drain before ranking is not a migration.
struct TransferStep {
  TransferDirection direction = TransferDirection::kDeviceToHost;
  bool migration = false;
};

/// BM25-score the intermediate result and select the top k (always CPU,
/// paper Figure 7).
struct RankStep {};

/// Start the H2D upload of a later intersect's longer list on the copy
/// engine, without waiting for it: on the asynchronous timeline
/// (DESIGN.md §10) the transfer overlaps the preceding step's kernels. The
/// planner queues one whenever it places an intersect on the GPU and the
/// following term's list is neither device-resident nor oversized; the
/// executor drops unconsumed prefetches when the plan migrates to the CPU.
struct PrefetchStep {
  index::TermId term = 0;
};

/// Decode a later intersect's longer list on the host, into the decoded
/// cache, while the GPU runs the current step (inter-step pipelining,
/// DESIGN.md §15): the planner queues one when the current intersect keeps
/// the device busy, the *next* term is predicted to be intersected on the
/// CPU, and the decode is short enough to hide under the device work. The
/// host core serializes it before later CPU ops (one core), which is
/// exactly the idle window it fills. Never changes results.
struct HostDecodeStep {
  index::TermId term = 0;
};

using PlanStep = std::variant<DecodeStep, IntersectStep, TransferStep,
                              RankStep, PrefetchStep, HostDecodeStep>;

}  // namespace griffin::core
