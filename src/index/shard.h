// Document-partitioned shard extraction. A cluster serves one logical index
// as N document-partitioned shards: every document lives on exactly one
// shard, and each shard holds, for every term, the sub-list of postings
// whose documents it owns. Conjunctive queries then decompose perfectly —
// a doc matches all terms iff it matches them within its own shard — so a
// broker can scatter a query to all shards and merge per-shard top-k heaps
// into the exact global top-k (src/cluster/broker.h).
//
// Two properties make shard-local scoring *bit-identical* to single-node:
//   1. every shard carries the full collection DocTable (global N, global
//      avg length, global per-doc lengths), and
//   2. every shard's per-term df is overridden with the collection-wide
//      posting count (InvertedIndex::set_df_override), not the shard-local
//      sub-list length.
// Without these, BM25's idf and length normalization would drift per shard
// and the merged top-k would disagree with the unpartitioned engine.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "index/inverted_index.h"

namespace griffin::index {

/// Sentinel for "this shard holds no postings for that global term".
inline constexpr TermId kTermAbsent = static_cast<TermId>(-1);

/// One document-partitioned shard: a self-contained InvertedIndex (dense
/// *local* TermIds, docIDs kept in the *global* docID space) plus the
/// two-way term-id mapping the broker uses to translate queries.
struct IndexShard {
  std::uint32_t id = 0;
  InvertedIndex index{codec::Scheme::kEliasFano};
  std::vector<TermId> local_term;   ///< global TermId -> local (kTermAbsent)
  std::vector<TermId> global_term;  ///< local TermId -> global

  bool has_term(TermId global) const {
    return global < local_term.size() && local_term[global] != kTermAbsent;
  }

  /// Rewrites a global term set into this shard's local TermIds. Returns
  /// false when any term has no postings here — the conjunctive result on
  /// this shard is then provably empty and the engine call can be skipped.
  bool translate_terms(std::span<const TermId> global,
                       std::vector<TermId>& local) const;
};

/// Splits `full` into shards following `doc_shard` (docID -> shard id; one
/// entry per document, values < num_shards). Copies the full DocTable into
/// every shard and installs global-df overrides so per-shard BM25 equals
/// global BM25 exactly.
///
/// Codec contract: each sub-list enters its shard through add_list under
/// `full`'s CodecPolicy. A fixed-scheme index's shards keep the scheme; an
/// adaptive index's shard lists carry select_scheme of their own sub-list,
/// which may differ from the source's. Forcing the source scheme could fail:
/// sub-list gaps merge source gaps, and Simple16 cannot encode one ≥ 2^28.
std::vector<IndexShard> extract_shards(const InvertedIndex& full,
                                       std::span<const std::uint32_t> doc_shard,
                                       std::uint32_t num_shards);

}  // namespace griffin::index
