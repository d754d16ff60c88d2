#include "workload/corpus.h"

#include <algorithm>
#include <cassert>
#include <cmath>

namespace griffin::workload {

namespace {
/// Mean document length for the (independent) BM25 length model.
constexpr double kMeanDocLen = 320.0;

/// Merges the sorted runs docs[..mid) and docs[mid..) and drops duplicates:
/// the list a full sort + unique would give, without re-sorting the prefix.
void merge_runs(std::vector<index::DocId>& docs, std::size_t mid) {
  std::inplace_merge(docs.begin(),
                     docs.begin() + static_cast<std::ptrdiff_t>(mid),
                     docs.end());
  docs.erase(std::unique(docs.begin(), docs.end()), docs.end());
}

/// Merges the sorted, duplicate-free `more` into `docs` (same invariant).
void merge_sorted(std::vector<index::DocId>& docs,
                  const std::vector<index::DocId>& more) {
  const std::size_t mid = docs.size();
  docs.insert(docs.end(), more.begin(), more.end());
  merge_runs(docs, mid);
}

/// Tops the sorted, duplicate-free `docs` up to n with uniform draws over
/// [0, universe), one round per shortfall left by collisions.
void top_up(std::vector<index::DocId>& docs, std::uint64_t n,
            index::DocId universe, util::Xoshiro256& rng) {
  while (docs.size() < n) {
    const std::size_t have = docs.size();
    for (std::size_t i = have; i < n; ++i) {
      docs.push_back(static_cast<index::DocId>(rng.bounded(universe)));
    }
    std::sort(docs.begin() + static_cast<std::ptrdiff_t>(have), docs.end());
    merge_runs(docs, have);
  }
}
}  // namespace

std::vector<index::DocId> make_uniform_list(std::uint64_t n,
                                            index::DocId universe,
                                            util::Xoshiro256& rng) {
  assert(n > 0 && n <= universe);
  std::vector<index::DocId> docs;

  if (n * 4 >= universe) {
    // Dense list: Bernoulli scan, then trim/top-up to the exact size.
    docs.reserve(n + n / 8);
    const double p = static_cast<double>(n) / static_cast<double>(universe);
    for (index::DocId d = 0; d < universe; ++d) {
      if (rng.uniform01() < p) docs.push_back(d);
    }
    while (docs.size() > n) {
      docs.erase(docs.begin() +
                 static_cast<std::ptrdiff_t>(rng.bounded(docs.size())));
    }
  } else {
    // Sparse list: sample-sort-dedupe, then top up the shortfall.
    docs.reserve(n + n / 8);
    for (std::uint64_t i = 0; i < n; ++i) {
      docs.push_back(static_cast<index::DocId>(rng.bounded(universe)));
    }
    std::sort(docs.begin(), docs.end());
    docs.erase(std::unique(docs.begin(), docs.end()), docs.end());
  }
  top_up(docs, n, universe, rng);
  return docs;
}

std::vector<index::DocId> make_correlated_list(
    std::uint64_t n, index::DocId universe,
    std::span<const index::DocId> topic_order, double affinity,
    util::Xoshiro256& rng) {
  const std::uint64_t width = topic_order.size();
  std::uint64_t n_topic =
      static_cast<std::uint64_t>(affinity * static_cast<double>(n));
  n_topic = std::min(n_topic, width * 3 / 4);
  const std::uint64_t n_rest = n - n_topic;

  std::vector<index::DocId> docs;
  docs.reserve(n + n / 8);
  if (n_topic > 0) {
    // Sample the prefix window at ~50% density: nested-but-not-identical
    // topical sets across the topic's terms.
    const std::uint64_t window = std::min(width, n_topic * 2);
    const auto picks = make_uniform_list(
        n_topic, static_cast<index::DocId>(window), rng);
    for (const auto i : picks) docs.push_back(topic_order[i]);
    std::sort(docs.begin(), docs.end());
  }
  if (n_rest > 0) {
    merge_sorted(docs, make_uniform_list(n_rest, universe, rng));
  }
  top_up(docs, n, universe, rng);
  return docs;
}

ListPair make_pair_with_ratio(std::uint64_t longer_size, double ratio,
                              index::DocId universe, double containment,
                              util::Xoshiro256& rng) {
  assert(ratio >= 1.0);
  ListPair pair;
  pair.longer = make_uniform_list(longer_size, universe, rng);
  const std::uint64_t shorter_size = std::max<std::uint64_t>(
      1, static_cast<std::uint64_t>(static_cast<double>(longer_size) / ratio));

  // Seed the shorter list with `containment * shorter_size` elements drawn
  // from the longer list (the future matches), fill the rest uniformly.
  std::vector<index::DocId> shorter;
  shorter.reserve(shorter_size + shorter_size / 4);
  const auto n_contained = static_cast<std::uint64_t>(
      containment * static_cast<double>(shorter_size));
  for (std::uint64_t i = 0; i < n_contained; ++i) {
    shorter.push_back(pair.longer[rng.bounded(pair.longer.size())]);
  }
  for (std::uint64_t i = n_contained; i < shorter_size; ++i) {
    shorter.push_back(static_cast<index::DocId>(rng.bounded(universe)));
  }
  std::sort(shorter.begin(), shorter.end());
  shorter.erase(std::unique(shorter.begin(), shorter.end()), shorter.end());
  pair.shorter = std::move(shorter);
  return pair;
}

std::uint64_t list_size_for_rank(const CorpusConfig& cfg, std::uint32_t rank) {
  assert(rank >= 1);
  const double max_size =
      static_cast<double>(cfg.num_docs) / cfg.max_list_divisor;
  const double sz = max_size / std::pow(static_cast<double>(rank), cfg.zipf_s);
  return std::max<std::uint64_t>(
      cfg.min_list_size,
      std::min<std::uint64_t>(static_cast<std::uint64_t>(sz),
                              cfg.num_docs / 2));
}

index::InvertedIndex generate_corpus(const CorpusConfig& cfg) {
  util::Xoshiro256 rng(cfg.seed);
  index::InvertedIndex idx(index::CodecPolicy{cfg.scheme, cfg.adaptive});

  // Document lengths: lognormal-ish around kMeanDocLen. (Generated
  // independently of the posting draws — BM25 only needs the marginal.)
  idx.docs().resize(cfg.num_docs);
  for (index::DocId d = 0; d < cfg.num_docs; ++d) {
    const double u = rng.uniform01();
    const double len = kMeanDocLen * (0.35 + 1.3 * u * u);
    idx.docs().set_length(d, static_cast<std::uint32_t>(len) + 1);
  }

  // Per-topic shuffled doc rankings: the shared "core document" structure
  // that correlates same-topic terms (see make_correlated_list).
  std::vector<std::vector<index::DocId>> topic_orders;
  if (cfg.num_topics > 1 && cfg.topic_affinity > 0.0) {
    topic_orders.resize(cfg.num_topics);
    for (std::uint32_t t = 0; t < cfg.num_topics; ++t) {
      const auto [lo, hi] = cfg.topic_range(t);
      auto& order = topic_orders[t];
      order.resize(hi - lo);
      for (index::DocId d = lo; d < hi; ++d) order[d - lo] = d;
      for (std::size_t i = order.size(); i > 1; --i) {
        std::swap(order[i - 1], order[rng.bounded(i)]);
      }
    }
  }

  std::vector<std::uint32_t> tfs;
  for (std::uint32_t r = 1; r <= cfg.num_terms; ++r) {
    const std::uint64_t n = list_size_for_rank(cfg, r);
    std::vector<index::DocId> docs;
    if (!topic_orders.empty()) {
      const auto& order = topic_orders[cfg.topic_of_rank(r)];
      docs = make_correlated_list(n, cfg.num_docs, order, cfg.topic_affinity,
                                  rng);
    } else {
      docs = make_uniform_list(n, cfg.num_docs, rng);
    }
    // Term frequency: 1 + capped geometric (most postings are tf 1-3).
    tfs.clear();
    tfs.reserve(docs.size());
    for (std::size_t i = 0; i < docs.size(); ++i) {
      std::uint32_t tf = 1;
      while (tf < 50 && rng.uniform01() < 0.38) ++tf;
      tfs.push_back(tf);
    }
    idx.add_list(docs, tfs);
  }
  return idx;
}

}  // namespace griffin::workload
