// Synthetic corpus generation. The paper evaluates on ClueWeb12 (41 M web
// documents) with inverted lists of 1 K to 26 M postings (Figure 10) — not
// redistributable here, so this module synthesizes an index with the same
// relevant structure (DESIGN.md §2): Zipf-ranked list sizes spanning the
// same orders of magnitude, uniformly scattered docIDs (geometric d-gaps,
// the regime in which EF's ~2 + log2(N/n) bits/posting and PForDelta's
// 90th-percentile b are both exercised exactly as on web data), and term
// frequencies for BM25.
#pragma once

#include <cstdint>
#include <vector>

#include "index/inverted_index.h"
#include "util/rng.h"

namespace griffin::workload {

struct CorpusConfig {
  std::uint32_t num_docs = 1u << 21;  ///< 2M docs (scaled-down ClueWeb12)
  std::uint32_t num_terms = 20000;    ///< vocabulary = posting-list count
  /// Largest list = num_docs / max_list_divisor.
  double max_list_divisor = 3.0;
  /// List-size decay across term ranks: size(r) ~ max_size / r^zipf_s.
  double zipf_s = 0.85;
  std::uint32_t min_list_size = 48;
  codec::Scheme scheme = codec::Scheme::kEliasFano;
  /// Route each list through codec::select_scheme instead of compressing
  /// everything with `scheme` (which stays the index's headline scheme).
  bool adaptive = false;
  std::uint64_t seed = 42;

  // Topical co-occurrence. Real query terms correlate (documents about a
  // topic contain that topic's vocabulary), which keeps conjunctive
  // intermediate results large across rounds — the regime the paper's
  // end-to-end latencies live in. Each term belongs to one of num_topics
  // contiguous docID ranges and draws `topic_affinity` of its postings from
  // that range (0 = independent lists).
  std::uint32_t num_topics = 64;
  double topic_affinity = 0.5;

  /// Topic of a term rank (1-based), and the topic's docID range.
  std::uint32_t topic_of_rank(std::uint32_t rank) const {
    return (rank - 1) % num_topics;
  }
  std::pair<index::DocId, index::DocId> topic_range(std::uint32_t topic) const {
    const std::uint64_t width = num_docs / num_topics;
    const auto lo = static_cast<index::DocId>(topic * width);
    const auto hi = static_cast<index::DocId>(
        topic + 1 == num_topics ? num_docs : (topic + 1) * width);
    return {lo, hi};
  }
};

/// Strictly increasing random docID list: n uniform draws over [0, universe).
std::vector<index::DocId> make_uniform_list(std::uint64_t n,
                                            index::DocId universe,
                                            util::Xoshiro256& rng);

/// Strongly correlated topical list: the topical share samples (at ~50%
/// density) a prefix window of `topic_order` — a per-topic shuffled doc
/// ranking shared by every term of the topic. Documents early in the order
/// are "core" topic documents that contain most of the topic's vocabulary,
/// so two same-topic lists overlap by roughly 0.5 * affinity * min(n1, n2):
/// the co-occurrence structure that keeps conjunctive intermediates large
/// (paper §4.2's workload behaves this way).
std::vector<index::DocId> make_correlated_list(
    std::uint64_t n, index::DocId universe,
    std::span<const index::DocId> topic_order, double affinity,
    util::Xoshiro256& rng);

/// A (shorter, longer) pair with |longer| ~= ratio * |shorter| where a
/// `containment` fraction of the shorter list also appears in the longer one
/// (those are the matches an intersection finds).
struct ListPair {
  std::vector<index::DocId> shorter;
  std::vector<index::DocId> longer;
};
ListPair make_pair_with_ratio(std::uint64_t longer_size, double ratio,
                              index::DocId universe, double containment,
                              util::Xoshiro256& rng);

/// Generates the full synthetic index (Zipf list sizes, tf, doc lengths),
/// compressed in blocks of codec::kBlockSize (128) postings.
index::InvertedIndex generate_corpus(const CorpusConfig& cfg);

/// The per-rank list size the config implies (exposed for tests/benches).
std::uint64_t list_size_for_rank(const CorpusConfig& cfg, std::uint32_t rank);

}  // namespace griffin::workload
