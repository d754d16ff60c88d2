// The intermediate result of a conjunctive query as one buffer (DESIGN.md
// §5, rank model): n docIDs, then one n-word column per term intersected
// so far, holding each row's position in that term's posting list. Every
// intersect, on either processor, emits the positions of its matches in
// the list it just intersected and gathers the earlier columns by each
// survivor's row, so ranking reads each result's tf where the intersect
// found it. A single decoded list carries no column: its positions are its
// rows. The buffer crosses PCIe whole, as one DMA; Rows::bytes prices that
// for both the ledger and the scheduler's estimates.
#pragma once

#include <cassert>
#include <cstdint>
#include <span>
#include <type_traits>
#include <vector>

#include "index/inverted_index.h"

namespace griffin::core {

// DocIDs and positions share the buffer's words.
static_assert(std::is_same_v<index::DocId, std::uint32_t>);

struct Rows {
  /// n docIDs, then columns(terms.size()) columns of n positions each.
  std::vector<std::uint32_t> words;
  /// The terms intersected so far, in column order (the order they were
  /// intersected in).
  std::vector<index::TermId> terms;

  /// Position columns an intermediate of `terms` terms carries: none for a
  /// single list, one per term after the first intersect.
  static constexpr std::uint32_t columns(std::size_t terms) {
    return terms < 2 ? 0 : static_cast<std::uint32_t>(terms);
  }
  /// Words per row.
  static constexpr std::uint32_t width(std::size_t terms) {
    return 1 + columns(terms);
  }
  /// Bytes of `n` rows of an intermediate of `terms` terms: what one DMA of
  /// it moves. The PCIe ledger and the scheduler's intermediate-transfer
  /// terms both price the intermediate through this.
  static constexpr std::uint64_t bytes(std::uint64_t n, std::size_t terms) {
    return n * width(terms) * sizeof(std::uint32_t);
  }

  std::uint64_t size() const { return words.size() / width(terms.size()); }
  bool empty() const { return words.empty(); }
  std::span<const index::DocId> docs() const { return {words.data(), size()}; }

  /// Row `row`'s position in the posting list of terms[col].
  std::uint32_t position(std::size_t col, std::uint64_t row) const {
    if (terms.size() < 2) return static_cast<std::uint32_t>(row);
    return words[(1 + col) * size() + row];
  }

  /// Rows [lo, hi), every column kept.
  Rows slice(std::uint64_t lo, std::uint64_t hi) const {
    assert(lo <= hi && hi <= size());
    Rows r;
    r.terms = terms;
    const std::uint64_t n = size();
    r.words.reserve((hi - lo) * width(terms.size()));
    for (std::uint32_t w = 0; w < width(terms.size()); ++w) {
      r.words.insert(r.words.end(), words.begin() + w * n + lo,
                     words.begin() + w * n + hi);
    }
    return r;
  }

  /// Appends `tail`'s rows, which must carry the same terms unless there
  /// are none.
  void append(const Rows& tail) {
    if (tail.empty()) return;
    assert(tail.terms == terms);
    if (empty()) {
      words = tail.words;
      return;
    }
    const std::uint64_t n = size();
    const std::uint64_t m = tail.size();
    std::vector<std::uint32_t> merged;
    merged.reserve(words.size() + tail.words.size());
    for (std::uint32_t w = 0; w < width(terms.size()); ++w) {
      merged.insert(merged.end(), words.begin() + w * n,
                    words.begin() + (w + 1) * n);
      merged.insert(merged.end(), tail.words.begin() + w * m,
                    tail.words.begin() + (w + 1) * m);
    }
    words = std::move(merged);
  }

  void clear() {
    words.clear();
    terms.clear();
  }
};

}  // namespace griffin::core
