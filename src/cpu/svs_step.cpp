#include "cpu/svs_step.h"

#include <cassert>

#include "cpu/decode.h"
#include "cpu/intersect.h"

namespace griffin::cpu {

std::span<const codec::DocId> SvsStepper::decode_via_cache(
    index::TermId t, std::vector<codec::DocId>& scratch,
    sim::CpuCostAccumulator& acc, core::QueryMetrics& m) {
  const auto& list = idx_->list(t).docids;
  if (!cache_->enabled()) {
    scratch.clear();
    decode_all(list, scratch, acc);
    return scratch;
  }
  if (const auto* hit = cache_->lookup(t)) {
    ++m.cache.host_hits;  // decode + materialization charges skipped
    return *hit;
  }
  ++m.cache.host_misses;
  scratch.clear();
  decode_all(list, scratch, acc);  // the fill pays exactly the uncached cost
  const std::uint64_t bytes = DecodedCache::entry_bytes(scratch.size());
  if (cache_->fits(bytes)) {
    std::uint64_t evicted = 0;
    const auto* stored = cache_->insert(t, std::move(scratch), &evicted);
    m.cache.host_evictions += evicted;
    return *stored;
  }
  return scratch;
}

const std::vector<codec::DocId>* SvsStepper::cached_only(
    index::TermId t, core::QueryMetrics& m) {
  if (!cache_->enabled()) return nullptr;
  const auto* hit = cache_->lookup(t);
  if (hit != nullptr) {
    ++m.cache.host_hits;
  } else {
    ++m.cache.host_misses;
  }
  return hit;
}

sim::Duration SvsStepper::first_pair(index::TermId a, index::TermId b,
                                     std::vector<codec::DocId>& out,
                                     core::QueryMetrics& m) {
  const auto& l0 = idx_->list(a).docids;
  const auto& l1 = idx_->list(b).docids;
  sim::CpuCostAccumulator acc(spec_);
  const double ratio =
      static_cast<double>(l1.size()) / static_cast<double>(l0.size());
  if (ratio >= skip_ratio_) {
    // Probe side decodes fully either way — route it through the cache
    // (possible insert) before the target lookup takes any span.
    const auto probes = decode_via_cache(a, probe_scratch_, acc, m);
    if (const auto* target = cached_only(b, m)) {
      skip_intersect(probes, std::span<const codec::DocId>(*target), out, acc);
    } else {
      skip_intersect(probes, l1, out, acc);
    }
  } else {
    const auto* d0 = cached_only(a, m);
    const auto* d1 = cached_only(b, m);
    if (d0 != nullptr && d1 != nullptr) {
      merge_intersect(std::span<const codec::DocId>(*d0),
                      std::span<const codec::DocId>(*d1), out, acc);
    } else if (d0 != nullptr) {
      merge_intersect(std::span<const codec::DocId>(*d0), l1, out, acc);
    } else if (d1 != nullptr) {
      merge_intersect(std::span<const codec::DocId>(*d1), l0, out, acc);
    } else {
      merge_intersect(l0, l1, out, acc);
    }
  }
  m.simd += acc.simd();
  return acc.time();
}

sim::Duration SvsStepper::next_step(std::vector<codec::DocId>& current,
                                    index::TermId t, core::QueryMetrics& m) {
  // The planner drains the plan at an empty intermediate, so partial_step's
  // early return for an empty range never fires here.
  assert(!current.empty());
  const sim::Duration d = partial_step(current, t, out_scratch_, m);
  current.swap(out_scratch_);
  return d;
}

sim::Duration SvsStepper::materialize_probes(index::TermId t,
                                             std::vector<codec::DocId>& out,
                                             core::QueryMetrics& m) {
  sim::CpuCostAccumulator acc(spec_);
  const auto probes = decode_via_cache(t, probe_scratch_, acc, m);
  out.assign(probes.begin(), probes.end());
  m.simd += acc.simd();
  return acc.time();
}

sim::Duration SvsStepper::partial_step(std::span<const codec::DocId> probes,
                                       index::TermId t,
                                       std::vector<codec::DocId>& out,
                                       core::QueryMetrics& m) {
  out.clear();
  if (probes.empty()) return {};
  const auto& lt = idx_->list(t).docids;
  sim::CpuCostAccumulator acc(spec_);
  const double ratio = static_cast<double>(lt.size()) /
                       static_cast<double>(probes.size());
  if (ratio >= skip_ratio_) {
    if (const auto* target = cached_only(t, m)) {
      skip_intersect(probes, std::span<const codec::DocId>(*target), out, acc);
    } else {
      skip_intersect(probes, lt, out, acc);
    }
  } else {
    if (const auto* target = cached_only(t, m)) {
      merge_intersect(probes, std::span<const codec::DocId>(*target), out,
                      acc);
    } else {
      merge_intersect(probes, lt, out, acc);
    }
  }
  m.simd += acc.simd();
  return acc.time();
}

sim::Duration SvsStepper::decode_ahead(index::TermId t,
                                       core::QueryMetrics& m) {
  if (host_decoded(t)) return {};  // already paid — nothing to work ahead on
  sim::CpuCostAccumulator acc(spec_);
  decode_via_cache(t, probe_scratch_, acc, m);
  m.simd += acc.simd();
  return acc.time();
}

sim::Duration SvsStepper::decode_single(index::TermId t,
                                        std::vector<codec::DocId>& out,
                                        core::QueryMetrics& m) {
  sim::CpuCostAccumulator acc(spec_);
  const auto docs = decode_via_cache(t, out, acc, m);
  if (docs.data() != out.data()) {
    // Cache-served: a real engine would score straight from the cached
    // buffer, so this host copy is an artifact of the by-value API and
    // charges nothing.
    out.assign(docs.begin(), docs.end());
  }
  m.simd += acc.simd();
  return acc.time();
}

}  // namespace griffin::cpu
