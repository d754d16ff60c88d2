// Field lists for the counter structs: each names its members once, in
// `static constexpr auto fields()`, as (bench JSON key, member pointer)
// pairs. A member may itself be a listed struct (QueryMetrics holds four).
// `+=`, `-` and the bench JSON are generated from that list, and the build
// fails when a walked list misses a member.
#pragma once

#include <cstddef>
#include <tuple>

namespace griffin::util {

template <class C, class T>
struct Field {
  using type = T;
  const char* key;  ///< the member's key in the bench JSON
  T C::*member;
};

template <class C, class T>
constexpr Field<C, T> field(const char* key, T C::*member) {
  return {key, member};
}

/// A struct that lists its members in fields().
template <class C>
concept Listed = requires { C::fields(); };

/// The bytes of C that C::fields() lists.
template <class C>
constexpr std::size_t listed_bytes() {
  return std::apply(
      [](auto... fs) { return (sizeof(typename decltype(fs)::type) + ...); },
      C::fields());
}

/// Calls f(field) for every entry of C::fields(), in list order. Every walk
/// of a list goes through here, so every list is checked against its struct.
template <class C, class F>
constexpr void for_each_field(F&& f) {
  static_assert(listed_bytes<C>() == sizeof(C),
                "a member of C is missing from C::fields()");
  std::apply([&](const auto&... fs) { (f(fs), ...); }, C::fields());
}

/// a += b field by field: the body of each listed struct's operator+=. A
/// listed member adds through its own operator+=.
template <class C>
constexpr C& add_fields(C& a, const C& b) {
  for_each_field<C>([&](const auto& f) { a.*f.member += b.*f.member; });
  return a;
}

/// a -= b field by field (SimdCounters' per-step deltas).
template <class C>
constexpr C& subtract_fields(C& a, const C& b) {
  for_each_field<C>([&](const auto& f) { a.*f.member -= b.*f.member; });
  return a;
}

}  // namespace griffin::util
