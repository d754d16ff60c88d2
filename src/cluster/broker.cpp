#include "cluster/broker.h"

#include <algorithm>
#include <cmath>

#include "service/queueing.h"

namespace griffin::cluster {

namespace {

/// A result-cache hit answers at the broker in this time.
constexpr sim::Duration kCacheHitLatency = sim::Duration::from_us(5);
/// Timeout paid to discover a dead replica before failing over.
constexpr sim::Duration kCrashDetect = sim::Duration::from_us(500);
/// Base retry backoff after a detected replica crash; attempt i waits
/// kRetryBackoff * 2^i (exponential).
constexpr sim::Duration kRetryBackoff = sim::Duration::from_us(100);

/// Validates and normalizes the config the broker actually runs with: the
/// fault seed absorbs the cluster seed so two runs differing only in `seed`
/// see different fault placements (with every site disarmed it is never
/// read).
ClusterConfig normalize(ClusterConfig cfg) {
  checked_window(cfg.hedge.window);
  cfg.faults.seed ^= cfg.seed * 0x9e3779b97f4a7c15ULL;
  return cfg;
}

}  // namespace

ClusterBroker::ClusterBroker(const index::InvertedIndex& full,
                             ClusterConfig cfg, sim::HardwareSpec hw,
                             core::HybridOptions opt)
    : cfg_(normalize(std::move(cfg))), injector_(cfg_.faults) {
  const auto doc_shard =
      assign_docs(cfg_.partition, full.docs().num_docs(), cfg_.num_shards);
  auto shards = index::extract_shards(full, doc_shard, cfg_.num_shards);
  nodes_.reserve(shards.size());
  for (auto& s : shards) {
    // Engine-level fault sites (gpu, pcie) run inside the shard's engine,
    // scoped by shard id so a scripted trigger can point at one shard.
    core::HybridOptions shard_opt = opt;
    shard_opt.faults = cfg_.faults;
    shard_opt.fault_scope = s.id;
    nodes_.push_back(
        std::make_unique<ShardNode>(std::move(s), hw, shard_opt));
  }
}

std::vector<core::ScoredDoc> merge_topk(
    std::span<const std::vector<core::ScoredDoc>> parts, std::uint32_t k) {
  std::vector<core::ScoredDoc> all;
  std::size_t total = 0;
  for (const auto& p : parts) total += p.size();
  all.reserve(total);
  for (const auto& p : parts) all.insert(all.end(), p.begin(), p.end());

  const std::size_t kk = std::min<std::size_t>(k, all.size());
  std::partial_sort(all.begin(), all.begin() + kk, all.end(),
                    [](const core::ScoredDoc& a, const core::ScoredDoc& b) {
                      if (a.score != b.score) return a.score > b.score;
                      return a.doc < b.doc;
                    });
  all.resize(kk);
  return all;
}

core::QueryResult ClusterBroker::execute(const core::Query& q) {
  std::vector<std::vector<core::ScoredDoc>> parts;
  parts.reserve(nodes_.size());
  core::QueryResult out;
  sim::Duration slowest;
  for (auto& node : nodes_) {
    core::QueryResult part = node->execute(q);
    slowest = sim::max(slowest, part.metrics.total);
    out.metrics.result_count += part.metrics.result_count;
    out.metrics.gpu_kernels += part.metrics.gpu_kernels;
    out.metrics.migrations += part.metrics.migrations;
    out.metrics.cache += part.metrics.cache;
    out.metrics.overlap += part.metrics.overlap;
    out.metrics.faults += part.metrics.faults;
    // The merged result's trace is the concatenation of the shard plans in
    // shard order: every step the cluster executed for this query.
    out.trace.insert(out.trace.end(), part.trace.begin(), part.trace.end());
    parts.push_back(std::move(part.topk));
  }
  out.topk = merge_topk(parts, q.k);
  out.metrics.total =
      slowest + kNetRtt + kMergePerShard * double(nodes_.size());
  return out;
}

ClusterResult ClusterBroker::run(const std::vector<core::Query>& queries) {
  ClusterResult res;
  service::PoissonArrivals arrivals(cfg_.arrival_qps, cfg_.seed);
  ResultCache cache(cfg_.cache_capacity, cfg_.cache_budget_bytes);
  HedgeController hedge(cfg_.hedge);
  // Per-primary-replica occupancy trackers for the bottleneck-occupancy
  // trigger (DESIGN.md §12): fed from every shard execution's per-resource
  // busy durations, consulted before the percentile delay would even start.
  std::vector<ReplicaOccupancy> occupancy(
      nodes_.size(),
      ReplicaOccupancy(cfg_.hedge.window, cfg_.hedge.min_samples));
  std::vector<service::QueueDepthTracker> depth(nodes_.size());
  // Per-run replica queues (replica 0 = primary): runs are independent and
  // a broker can replay any number of streams back to back. Breakers are
  // likewise per run — a fresh stream starts with every breaker closed.
  const std::uint32_t replicas = std::max(cfg_.replicas_per_shard, 1u);
  std::vector<std::vector<service::FcfsServer>> servers(
      nodes_.size(), std::vector<service::FcfsServer>(replicas));
  std::vector<std::vector<CircuitBreaker>> breakers(
      nodes_.size(),
      std::vector<CircuitBreaker>(replicas, CircuitBreaker(cfg_.breaker)));

  const sim::Duration half_rtt = kNetRtt * 0.5;
  const bool can_hedge = replicas >= 2;
  const bool deadline_on = cfg_.shard_deadline.ps() > 0;

  std::vector<std::vector<core::ScoredDoc>> parts(nodes_.size());

  for (std::size_t qi = 0; qi < queries.size(); ++qi) {
    const auto& q = queries[qi];
    const sim::Duration t_arrival = arrivals.next();

    const CacheKey key = make_cache_key(q);
    if (cache.enabled()) {
      if (const auto* hit = cache.lookup(key); hit != nullptr) {
        const sim::Duration done = t_arrival + kCacheHitLatency;
        res.response_ms.add((done - t_arrival).ms());
        res.horizon = sim::max(res.horizon, done);
        ++res.cache_hits_served;
        if (cfg_.record_outcomes) {
          res.outcomes.push_back({qi, true, false, 1.0, *hit});
        }
        continue;
      }
    }

    // Scatter: the query reaches every shard half an RTT after arrival and
    // queues behind a replica's backlog. Under faults each shard runs an
    // attempt loop — crash detection, exponential backoff, failover to the
    // next replica, per-replica circuit breakers — bounded by max_attempts
    // and (when set) the per-shard deadline. Shards that never answer are
    // dropped from the gather: a partial result with coverage < 1.
    sim::Duration critical;  // slowest shard response, broker-side clock
    std::uint32_t answered_count = 0;
    for (std::uint32_t s = 0; s < nodes_.size(); ++s) {
      ShardNode& node = *nodes_[s];
      const sim::Duration t_shard = t_arrival + half_rtt;
      const sim::Duration deadline_at = t_shard + cfg_.shard_deadline;

      // Execution is deterministic, so every replica computes the same
      // answer in the same service time: one engine run serves all
      // attempts, and retries never change the bits a shard returns.
      core::QueryResult part = node.execute(q);
      parts[s] = std::move(part.topk);
      res.engine_cache += part.metrics.cache;
      res.trace.add(part.trace);
      res.engine_overlap += part.metrics.overlap;
      res.faults += part.metrics.faults;
      const sim::Duration svc = part.metrics.total;
      if (can_hedge &&
          cfg_.hedge.trigger == HedgeTrigger::kBottleneckOccupancy) {
        ReplicaOccupancy::Sample sample;
        for (std::size_t rr = 0; rr < sim::kNumResources; ++rr) {
          sample.busy[rr] =
              part.metrics.overlap.busy(static_cast<sim::Resource>(rr));
        }
        sample.span = svc;
        occupancy[s].record(sample);
      }

      sim::Duration t_now = t_shard;
      bool answered = false;
      sim::Duration responded;
      for (std::uint32_t attempt = 0; attempt < cfg_.max_attempts;
           ++attempt) {
        if (deadline_on && t_now >= deadline_at) break;
        const std::uint32_t r = attempt % replicas;
        CircuitBreaker& breaker = breakers[s][r];
        if (!breaker.allow(t_now)) {
          // Open breaker: skip the replica instantly (no kCrashDetect).
          ++res.faults.breaker_short_circuits;
          continue;
        }
        if (injector_.replica_down(s, r, t_now)) {
          ++res.faults.replica_failures;
          if (breaker.record_failure(t_now)) ++res.faults.breaker_opens;
          t_now += kCrashDetect;  // timeout discovering the crash
          const sim::Duration backoff =
              kRetryBackoff * std::ldexp(1.0, static_cast<int>(attempt));
          t_now += backoff;
          res.faults.backoff_time += backoff;
          continue;
        }

        // Live replica: submit behind its FCFS backlog. The slow site (the
        // straggler model) afflicts only the primary — the hedge/failover
        // replica is a different machine running at normal speed.
        sim::Duration svc_r = svc;
        if (r == 0 && injector_.slow(qi, s)) {
          svc_r = svc * cfg_.faults.slow_factor;
          ++res.faults.slow_replicas;
        }
        const service::Completion c = servers[s][r].submit(t_now, svc_r);
        if (r == 0) depth[s].observe(t_now, c.done);
        responded = c.done;

        // Hedge. Latency-percentile trigger: the broker's timer fires
        // delay after the primary submit; if the primary still owes a
        // reply, a live replica gets a copy. Bottleneck-occupancy trigger:
        // the primary's windowed bottleneck-resource busy fraction is at
        // threshold, so the copy is issued at submit time — the cause
        // (saturation) is visible before the symptom (lag) develops.
        if (can_hedge && r == 0 && cfg_.hedge.enabled) {
          bool fire = false;
          sim::Duration t_hedge = t_now;
          if (cfg_.hedge.trigger == HedgeTrigger::kBottleneckOccupancy) {
            const auto b = occupancy[s].bottleneck();
            fire = b.has_value() &&
                   *b >= cfg_.hedge.occupancy_threshold &&
                   c.done > t_now;
          } else if (const auto delay = hedge.delay();
                     delay && c.done > t_now + *delay) {
            fire = true;
            t_hedge = t_now + *delay;
          }
          if (fire && breakers[s][1].allow(t_hedge) &&
              !injector_.replica_down(s, 1, t_hedge)) {
            const service::Completion hedged =
                servers[s][1].submit(t_hedge, svc);
            ++res.hedge.issued;
            if (hedged.done < c.done) ++res.hedge.won;
            responded = sim::min(responded, hedged.done);
          }
        }

        breaker.record_success();
        if (attempt > 0) ++res.faults.failovers;
        answered = true;
        break;
      }

      bool deadline_missed = false;
      if (answered && deadline_on && responded > deadline_at) {
        // The reply exists but lands after the broker stopped waiting (the
        // work still occupied the replica). Dropped like a silent shard.
        answered = false;
        deadline_missed = true;
      }

      if (answered) {
        hedge.record(responded - t_shard);
        critical = sim::max(critical, responded - t_shard);
        ++answered_count;
      } else {
        parts[s].clear();
        ++res.faults.shards_dropped;
        // The give-up instant bounds this shard's contribution to the
        // critical path: the deadline when that is what expired, else the
        // clock when the attempt budget ran out.
        sim::Duration gave_up = t_now;
        if (deadline_on) {
          if (deadline_missed || t_now >= deadline_at) {
            ++res.faults.deadline_misses;
            gave_up = deadline_at;
          }
        }
        critical = sim::max(critical, gave_up - t_shard);
      }
    }

    // Gather: the broker merges whatever answered by the time the slowest
    // kept shard (or the give-up instant) reported back.
    const double coverage =
        nodes_.empty() ? 1.0
                       : double(answered_count) / double(nodes_.size());
    const bool degraded = answered_count < nodes_.size();
    if (degraded) ++res.faults.degraded_queries;
    res.coverage_sum += coverage;
    res.min_coverage = std::min(res.min_coverage, coverage);
    ++res.gathered_queries;

    const sim::Duration done =
        t_arrival + half_rtt + critical + half_rtt +
        kMergePerShard * double(answered_count);
    res.response_ms.add((done - t_arrival).ms());
    res.shard_critical_ms.add(critical.ms());
    res.horizon = sim::max(res.horizon, done);

    // Degraded results are never cached: a later identical query deserves
    // the full answer once the shards recover.
    const bool cacheable = cache.enabled() && !degraded;
    if (cacheable || cfg_.record_outcomes) {
      auto merged = merge_topk(parts, q.k);
      if (cacheable) {
        cache.insert(key, cfg_.record_outcomes
                              ? merged
                              : std::move(merged));
      }
      if (cfg_.record_outcomes) {
        res.outcomes.push_back(
            {qi, false, degraded, coverage, std::move(merged)});
      }
    }
  }

  for (std::uint32_t s = 0; s < nodes_.size(); ++s) {
    res.shard_utilization.push_back(servers[s][0].utilization(res.horizon));
    res.max_queue_depth =
        std::max(res.max_queue_depth, depth[s].max_depth());
  }
  res.cache = cache.stats();
  res.result_cache_bytes = cache.bytes();
  return res;
}

}  // namespace griffin::cluster
