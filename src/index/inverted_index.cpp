#include "index/inverted_index.h"

#include <algorithm>
#include <cassert>

namespace griffin::index {

TermId InvertedIndex::add_list(std::span<const DocId> docids,
                               std::span<const std::uint32_t> freqs) {
  const Scheme s =
      policy_.adaptive ? codec::select_scheme(docids) : policy_.fixed;
  return add_list_as(s, docids, freqs);
}

TermId InvertedIndex::add_list_as(Scheme scheme, std::span<const DocId> docids,
                                  std::span<const std::uint32_t> freqs) {
  if (docids.empty()) throw std::invalid_argument("empty posting list");
  if (!freqs.empty() && freqs.size() != docids.size()) {
    throw std::invalid_argument("freqs size mismatch");
  }
  PostingList pl;
  pl.docids = codec::BlockCompressedList::build(docids, scheme);
  pl.freqs.resize(docids.size(), 1);
  for (std::size_t i = 0; i < freqs.size(); ++i) {
    pl.freqs[i] = static_cast<std::uint8_t>(std::min<std::uint32_t>(freqs[i], 255));
  }
  lists_.push_back(std::move(pl));
  return static_cast<TermId>(lists_.size() - 1);
}

std::uint64_t InvertedIndex::total_postings() const {
  std::uint64_t n = 0;
  for (const auto& l : lists_) n += l.size();
  return n;
}

std::uint64_t InvertedIndex::compressed_docid_bytes() const {
  std::uint64_t n = 0;
  for (const auto& l : lists_) n += l.docids.compressed_bytes();
  return n;
}

void IndexBuilder::add_document(
    DocId doc, std::span<const std::pair<TermId, std::uint32_t>> terms) {
  if (any_doc_ && doc <= max_doc_) {
    throw std::invalid_argument("documents must arrive in increasing order");
  }
  any_doc_ = true;
  max_doc_ = doc;
  if (doc_lengths_.size() <= doc) doc_lengths_.resize(doc + 1, 0);

  std::uint32_t len = 0;
  for (const auto& [term, tf] : terms) {
    assert(tf > 0);
    len += tf;
    if (postings_.size() <= term) postings_.resize(term + 1);
    postings_[term].docs.push_back(doc);
    postings_[term].tfs.push_back(tf);
  }
  doc_lengths_[doc] = len;
}

InvertedIndex IndexBuilder::build() {
  InvertedIndex idx(policy_);
  idx.docs().resize(doc_lengths_.size());
  for (DocId d = 0; d < doc_lengths_.size(); ++d) {
    idx.docs().set_length(d, doc_lengths_[d]);
  }
  for (auto& acc : postings_) {
    if (acc.docs.empty()) {
      // Preserve TermId alignment for callers that assigned ids densely:
      // an index cannot hold empty lists, so synthesize a one-posting list
      // for doc 0 with tf 0 is not meaningful either — instead reject.
      throw std::logic_error("term with no postings (non-dense TermIds?)");
    }
    idx.add_list(acc.docs, acc.tfs);
  }
  return idx;
}

}  // namespace griffin::index
