// The inverted index substrate: per-term compressed posting lists (docIDs in
// a BlockCompressedList, term frequencies alongside), a document table with
// the statistics BM25 needs, and index-wide stats for the compression
// experiments. Built either from documents (IndexBuilder) or directly from
// synthesized posting lists (the workload generator's path).
#pragma once

#include <cstdint>
#include <span>
#include <stdexcept>
#include <vector>

#include "codec/block_codec.h"
#include "codec/codec.h"

namespace griffin::index {

using codec::DocId;
using codec::Scheme;
using TermId = std::uint32_t;

/// How the index picks each list's compression scheme. The default is a
/// single fixed scheme for every list (the pre-zoo behavior); with
/// `adaptive` set, each list is routed through codec::select_scheme and
/// `fixed` only names the index's headline scheme (reported by scheme(),
/// used for lists the selector is never consulted about — there are none
/// today, but deserialization keeps it meaningful).
struct CodecPolicy {
  Scheme fixed = Scheme::kEliasFano;
  bool adaptive = false;
};

/// Per-document metadata. Lengths feed BM25's length normalization.
class DocTable {
 public:
  void resize(std::size_t n) { lengths_.resize(n, 0); }
  void set_length(DocId d, std::uint32_t len) { lengths_[d] = len; }
  std::uint32_t length(DocId d) const { return lengths_[d]; }
  std::size_t num_docs() const { return lengths_.size(); }

  double avg_length() const {
    if (lengths_.empty()) return 0.0;
    std::uint64_t total = 0;
    for (std::uint32_t l : lengths_) total += l;
    return static_cast<double>(total) / static_cast<double>(lengths_.size());
  }

 private:
  std::vector<std::uint32_t> lengths_;
};

/// One term's postings: compressed docIDs plus a parallel term-frequency
/// array (tf clamped to 255; web-scale BM25 saturates far below that).
struct PostingList {
  codec::BlockCompressedList docids;
  std::vector<std::uint8_t> freqs;

  std::uint64_t size() const { return docids.size(); }

  /// Term frequency of the posting at position `pos` in the list.
  std::uint32_t tf_at(std::uint64_t pos) const { return freqs[pos]; }
};

class InvertedIndex {
 public:
  explicit InvertedIndex(Scheme scheme) : policy_{scheme, false} {}
  explicit InvertedIndex(CodecPolicy policy) : policy_(policy) {}

  /// The index's headline scheme (the fixed scheme; under an adaptive
  /// policy individual lists may differ — ask list(t).docids.scheme()).
  Scheme scheme() const { return policy_.fixed; }
  const CodecPolicy& policy() const { return policy_; }
  bool adaptive() const { return policy_.adaptive; }

  /// Adds a posting list for the next TermId; returns that id. `docids` must
  /// be strictly increasing; freqs parallel (empty = all-1). Under an
  /// adaptive policy the list's scheme comes from codec::select_scheme.
  TermId add_list(std::span<const DocId> docids,
                  std::span<const std::uint32_t> freqs = {});

  /// Adds a posting list compressed with an explicit scheme, bypassing the
  /// policy (forced-scheme parity tests). Shard extraction does not use it:
  /// a shard's sub-list goes through add_list (index/shard.h).
  TermId add_list_as(Scheme scheme, std::span<const DocId> docids,
                     std::span<const std::uint32_t> freqs = {});

  /// Adds an already-compressed list (deserialization path; index/io.h).
  TermId add_list_raw(PostingList&& pl) {
    lists_.push_back(std::move(pl));
    return static_cast<TermId>(lists_.size() - 1);
  }

  std::size_t num_terms() const { return lists_.size(); }
  const PostingList& list(TermId t) const {
    if (t >= lists_.size()) throw std::out_of_range("unknown term");
    return lists_[t];
  }

  /// Document frequency used for scoring. By default a term's df is its
  /// posting-list length; a document-partitioned shard overrides it with the
  /// *collection-wide* df so shard-local BM25 reproduces the global scores
  /// exactly (index/shard.h sets this during extraction).
  std::uint64_t df(TermId t) const {
    if (t < df_override_.size()) return df_override_[t];
    return list(t).size();
  }
  /// Installs per-term collection-wide dfs (parallel to TermIds). Empty
  /// clears the override.
  void set_df_override(std::vector<std::uint64_t> df) {
    df_override_ = std::move(df);
  }
  bool has_df_override() const { return !df_override_.empty(); }

  DocTable& docs() { return docs_; }
  const DocTable& docs() const { return docs_; }

  /// Uncompressed postings count across all lists.
  std::uint64_t total_postings() const;
  /// Compressed docID bytes across all lists (Table 1's numerator... the
  /// denominator: raw is 4 bytes per posting).
  std::uint64_t compressed_docid_bytes() const;
  double compression_ratio() const {
    const std::uint64_t c = compressed_docid_bytes();
    return c == 0 ? 0.0
                  : static_cast<double>(total_postings() * 4) /
                        static_cast<double>(c);
  }

 private:
  CodecPolicy policy_;
  std::vector<PostingList> lists_;
  std::vector<std::uint64_t> df_override_;
  DocTable docs_;
};

/// Accumulates (term, doc, tf) postings document-by-document, then freezes
/// them into an InvertedIndex. Documents must be added in increasing DocId
/// order (the natural order of a crawl pass).
class IndexBuilder {
 public:
  explicit IndexBuilder(Scheme scheme) : policy_{scheme, false} {}
  explicit IndexBuilder(CodecPolicy policy) : policy_(policy) {}

  /// Registers a document given its bag of words as (term, tf) pairs.
  /// Length (token count) is the sum of tfs.
  void add_document(DocId doc,
                    std::span<const std::pair<TermId, std::uint32_t>> terms);

  /// Number of distinct terms seen so far.
  std::size_t num_terms() const { return postings_.size(); }

  InvertedIndex build();

 private:
  struct Accum {
    std::vector<DocId> docs;
    std::vector<std::uint32_t> tfs;
  };
  CodecPolicy policy_;
  std::vector<Accum> postings_;  // by TermId
  std::vector<std::uint32_t> doc_lengths_;
  DocId max_doc_ = 0;
  bool any_doc_ = false;
};

}  // namespace griffin::index
