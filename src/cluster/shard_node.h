// One shard of the cluster: a document-partitioned slice of the index
// (index/shard.h) served by its own HybridEngine. Replicas of a shard model
// identical machines holding the same data: they share the engine
// (execution is deterministic, so service time is a pure function of the
// query and the shard data) but queue independently — the per-replica FCFS
// queues live in the broker's timed run (cluster/broker.cpp), which keeps
// ShardNode stateless across runs.
#pragma once

#include <cstdint>
#include <vector>

#include "core/hybrid_engine.h"
#include "index/shard.h"

namespace griffin::cluster {

class ShardNode {
 public:
  ShardNode(index::IndexShard shard, sim::HardwareSpec hw = {},
            core::HybridOptions opt = {});

  // The engine stores a pointer to shard_.index; keep both addresses fixed.
  ShardNode(const ShardNode&) = delete;
  ShardNode& operator=(const ShardNode&) = delete;

  /// Executes a query given in *global* TermIds against this shard. A term
  /// with no postings here proves the shard's conjunctive result empty, so
  /// the engine is skipped and only a dictionary-lookup cost is charged.
  core::QueryResult execute(const core::Query& q);

  std::uint32_t id() const { return shard_.id; }
  const index::IndexShard& shard() const { return shard_; }

  /// Simulated cost of discovering a query term is absent from this shard's
  /// dictionary (the short-circuit path of execute()); comes from
  /// HardwareSpec::absent_term_probe_us.
  sim::Duration absent_term_cost() const { return absent_cost_; }

 private:
  index::IndexShard shard_;
  core::HybridEngine engine_;
  sim::Duration absent_cost_;
  std::vector<index::TermId> scratch_terms_;
};

}  // namespace griffin::cluster
