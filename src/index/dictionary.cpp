#include "index/dictionary.h"

#include <cctype>

namespace griffin::index {

namespace {
/// Splits on whitespace; lowercases ASCII.
template <typename Fn>
void for_each_token(std::string_view text, Fn&& fn) {
  std::size_t i = 0;
  while (i < text.size()) {
    while (i < text.size() &&
           std::isspace(static_cast<unsigned char>(text[i]))) {
      ++i;
    }
    std::size_t j = i;
    while (j < text.size() &&
           !std::isspace(static_cast<unsigned char>(text[j]))) {
      ++j;
    }
    if (j > i) {
      std::string tok(text.substr(i, j - i));
      for (char& c : tok) c = static_cast<char>(std::tolower(
          static_cast<unsigned char>(c)));
      fn(tok);
    }
    i = j;
  }
}
}  // namespace

TermId Dictionary::add(std::string_view term) {
  if (const auto it = ids_.find(term); it != ids_.end()) return it->second;
  // Intern: stable string storage; string_view keys point into terms_.
  // Reserve avoids string moves invalidating views for small-string cases:
  // std::string contents move with the vector, so store via unique strings
  // whose heap buffers are stable... small strings live inline, so rebuild
  // the key from the stored string after push_back.
  terms_.emplace_back(term);
  const auto id = static_cast<TermId>(terms_.size() - 1);
  // NOTE: vector growth relocates the inline buffers of small strings; keep
  // the map keyed by views into a stable arena instead.
  arena_rekey();
  return id;
}

void Dictionary::arena_rekey() {
  // Rebuild the view map only when the vector reallocated (amortized O(1)).
  if (terms_.capacity() != keyed_capacity_) {
    ids_.clear();
    for (std::size_t i = 0; i < terms_.size(); ++i) {
      ids_.emplace(std::string_view(terms_[i]), static_cast<TermId>(i));
    }
    keyed_capacity_ = terms_.capacity();
  } else {
    const auto id = static_cast<TermId>(terms_.size() - 1);
    ids_.emplace(std::string_view(terms_.back()), id);
  }
}

std::optional<TermId> Dictionary::find(std::string_view term) const {
  if (const auto it = ids_.find(term); it != ids_.end()) return it->second;
  return std::nullopt;
}

std::vector<TermId> Dictionary::tokenize_interning(std::string_view text) {
  std::vector<TermId> out;
  for_each_token(text,
                 [&](const std::string& tok) { out.push_back(add(tok)); });
  return out;
}

std::vector<TermId> Dictionary::tokenize(std::string_view text) const {
  std::vector<TermId> out;
  for_each_token(text, [&](const std::string& tok) {
    if (const auto id = find(tok)) out.push_back(*id);
  });
  return out;
}

}  // namespace griffin::index
