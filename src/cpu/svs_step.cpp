#include "cpu/svs_step.h"

#include <cassert>
#include <variant>

#include "cpu/decode.h"

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
  if (cache_->fits(t, scratch)) {
    std::uint64_t evicted = 0;
    const auto* stored = cache_->insert(t, std::move(scratch), &evicted);
    m.cache.host_evictions += evicted;
    return *stored;
  }
  return scratch;
}

PostingView SvsStepper::view(index::TermId t, core::QueryMetrics& m) {
  if (cache_->enabled()) {
    if (const auto* hit = cache_->lookup(t)) {
      ++m.cache.host_hits;
      return std::span<const codec::DocId>(*hit);
    }
    ++m.cache.host_misses;
  }
  return std::cref(idx_->list(t).docids);
}

void SvsStepper::intersect(std::span<const codec::DocId> probes,
                           index::TermId t, std::vector<codec::DocId>& out,
                           sim::CpuCostAccumulator& acc,
                           core::QueryMetrics& m) {
  const double ratio = static_cast<double>(idx_->list(t).docids.size()) /
                       static_cast<double>(probes.size());
  const PostingView target = view(t, m);
  if (ratio >= skip_ratio_) {
    std::visit([&](const auto& v) { skip_intersect(probes, v, out, acc); },
               target);
  } else {
    merge_intersect(probes, target, out, acc);
  }
}

sim::Duration SvsStepper::first_pair(index::TermId a, index::TermId b,
                                     std::vector<codec::DocId>& out,
                                     core::QueryMetrics& m) {
  const double ratio =
      static_cast<double>(idx_->list(b).docids.size()) /
      static_cast<double>(idx_->list(a).docids.size());
  sim::CpuCostAccumulator acc(spec_);
  if (ratio >= skip_ratio_) {
    // Probe side decodes fully either way — route it through the cache
    // (possible insert) before the target lookup takes any span.
    intersect(decode_via_cache(a, probe_scratch_, acc, m), b, out, acc, m);
  } else {
    const PostingView va = view(a, m);
    merge_intersect(va, view(b, m), out, acc);
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

sim::Duration SvsStepper::partial_step(std::span<const codec::DocId> probes,
                                       index::TermId t,
                                       std::vector<codec::DocId>& out,
                                       core::QueryMetrics& m) {
  out.clear();
  if (probes.empty()) return {};
  sim::CpuCostAccumulator acc(spec_);
  intersect(probes, t, out, acc, m);
  m.simd += acc.simd();
  return acc.time();
}

sim::Duration SvsStepper::decode_ahead(index::TermId t,
                                       core::QueryMetrics& m) {
  if (host_decoded(t)) return {};  // already paid — nothing to work ahead on
  // The cache keeps the list; this copy is dropped at return, so no
  // stepper buffer stays holding it.
  std::vector<codec::DocId> decoded;
  return decode_single(t, decoded, m);
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
