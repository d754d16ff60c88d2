#include "index/shard.h"

#include <stdexcept>

namespace griffin::index {

bool IndexShard::translate_terms(std::span<const TermId> global,
                                 std::vector<TermId>& local) const {
  local.clear();
  local.reserve(global.size());
  for (const TermId t : global) {
    if (!has_term(t)) return false;
    local.push_back(local_term[t]);
  }
  return true;
}

std::vector<IndexShard> extract_shards(const InvertedIndex& full,
                                       std::span<const std::uint32_t> doc_shard,
                                       std::uint32_t num_shards) {
  if (num_shards == 0) throw std::invalid_argument("num_shards must be > 0");
  if (doc_shard.size() < full.docs().num_docs()) {
    throw std::invalid_argument("doc_shard must cover every document");
  }

  std::vector<IndexShard> shards(num_shards);
  for (std::uint32_t s = 0; s < num_shards; ++s) {
    shards[s].id = s;
    shards[s].index = InvertedIndex(full.policy());
    // Full DocTable copy: global N / avg length / per-doc lengths, and the
    // global docID space stays addressable from every shard.
    shards[s].index.docs() = full.docs();
    shards[s].local_term.assign(full.num_terms(), kTermAbsent);
  }

  // Per-shard global-df overrides, grown as local lists are added.
  std::vector<std::vector<std::uint64_t>> df(num_shards);

  std::vector<DocId> docids;
  std::vector<std::vector<DocId>> part_docs(num_shards);
  std::vector<std::vector<std::uint32_t>> part_tfs(num_shards);
  for (TermId t = 0; t < full.num_terms(); ++t) {
    const PostingList& pl = full.list(t);
    pl.docids.decode_all(docids);
    for (auto& v : part_docs) v.clear();
    for (auto& v : part_tfs) v.clear();
    for (std::uint64_t i = 0; i < docids.size(); ++i) {
      const DocId d = docids[i];
      const std::uint32_t s = doc_shard[d];
      if (s >= num_shards) throw std::out_of_range("doc_shard entry too big");
      part_docs[s].push_back(d);
      part_tfs[s].push_back(pl.tf_at(i));
    }
    for (std::uint32_t s = 0; s < num_shards; ++s) {
      if (part_docs[s].empty()) continue;  // term absent on this shard
      const TermId local = shards[s].index.add_list(part_docs[s], part_tfs[s]);
      shards[s].local_term[t] = local;
      shards[s].global_term.push_back(t);
      df[s].push_back(pl.size());
    }
  }

  for (std::uint32_t s = 0; s < num_shards; ++s) {
    shards[s].index.set_df_override(std::move(df[s]));
  }
  return shards;
}

}  // namespace griffin::index
