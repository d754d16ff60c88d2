#include "cpu/svs_step.h"

#include <algorithm>
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
                           index::TermId t, sim::CpuCostAccumulator& acc,
                           core::QueryMetrics& m) {
  docs_.clear();
  at_.clear();
  const double ratio = static_cast<double>(idx_->list(t).docids.size()) /
                       static_cast<double>(probes.size());
  const PostingView target = view(t, m);
  if (ratio >= skip_ratio_) {
    std::visit(
        [&](const auto& v) { skip_intersect(probes, v, docs_, acc, &at_); },
        target);
  } else {
    merge_intersect(probes, target, docs_, acc, &at_);
  }
}

void SvsStepper::gather(const core::Rows& in, std::uint64_t lo,
                        index::TermId t, core::Rows& out,
                        sim::CpuCostAccumulator& acc) const {
  const std::size_t n = docs_.size();
  out.terms = in.terms;
  out.terms.push_back(t);
  const std::size_t cols = core::Rows::columns(out.terms.size());
  out.words.resize(n * (1 + cols));
  std::copy(docs_.begin(), docs_.end(), out.words.begin());
  for (std::size_t c = 0; c + 1 < cols; ++c) {
    std::uint32_t* col = out.words.data() + (1 + c) * n;
    for (std::size_t r = 0; r < n; ++r) {
      col[r] = in.position(c, lo + at_.rows[r]);
    }
  }
  std::copy(at_.pos.begin(), at_.pos.end(), out.words.begin() + cols * n);
  // Each match reads its earlier positions (none for a single list, whose
  // positions are its rows) and writes every column.
  acc.add_bytes(n * (core::Rows::columns(in.terms.size()) + cols) *
                sizeof(std::uint32_t));
}

sim::Duration SvsStepper::first_pair(index::TermId a, index::TermId b,
                                     core::Rows& out, core::QueryMetrics& m) {
  const double ratio =
      static_cast<double>(idx_->list(b).docids.size()) /
      static_cast<double>(idx_->list(a).docids.size());
  sim::CpuCostAccumulator acc(spec_);
  if (ratio >= skip_ratio_) {
    // Probe side decodes fully either way — route it through the cache
    // (possible insert) before the target lookup takes any span.
    intersect(decode_via_cache(a, probe_scratch_, acc, m), b, acc, m);
  } else {
    docs_.clear();
    at_.clear();
    const PostingView va = view(a, m);
    merge_intersect(va, view(b, m), docs_, acc, &at_);
  }
  // List a alone: its positions are its rows.
  core::Rows single;
  single.terms.assign(1, a);
  gather(single, 0, b, out, acc);
  m.simd += acc.simd();
  return acc.time();
}

sim::Duration SvsStepper::next_step(core::Rows& current, index::TermId t,
                                    core::QueryMetrics& m) {
  // The planner drains the plan at an empty intermediate, so partial_step's
  // early return for an empty range never fires here.
  assert(!current.empty());
  const sim::Duration d =
      partial_step(current, 0, current.size(), t, out_scratch_, m);
  std::swap(current, out_scratch_);
  return d;
}

sim::Duration SvsStepper::partial_step(const core::Rows& probes,
                                       std::uint64_t lo, std::uint64_t hi,
                                       index::TermId t, core::Rows& out,
                                       core::QueryMetrics& m) {
  out.words.clear();
  out.terms = probes.terms;
  out.terms.push_back(t);
  if (lo == hi) return {};
  sim::CpuCostAccumulator acc(spec_);
  intersect(probes.docs().subspan(lo, hi - lo), t, acc, m);
  gather(probes, lo, t, out, acc);
  m.simd += acc.simd();
  return acc.time();
}

sim::Duration SvsStepper::decode_ahead(index::TermId t,
                                       core::QueryMetrics& m) {
  if (host_decoded(t)) return {};  // already paid — nothing to work ahead on
  // The cache keeps the list; this copy is dropped at return, so no
  // stepper buffer stays holding it.
  core::Rows decoded;
  return decode_single(t, decoded, m);
}

sim::Duration SvsStepper::decode_single(index::TermId t, core::Rows& out,
                                        core::QueryMetrics& m) {
  sim::CpuCostAccumulator acc(spec_);
  out.terms.assign(1, t);
  const auto docs = decode_via_cache(t, out.words, acc, m);
  if (docs.data() != out.words.data()) {
    // Cache-served: a real engine would score straight from the cached
    // buffer, so this host copy is an artifact of the by-value API and
    // charges nothing.
    out.words.assign(docs.begin(), docs.end());
  }
  m.simd += acc.simd();
  return acc.time();
}

}  // namespace griffin::cpu
