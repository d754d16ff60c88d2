// Simulated time. All engines in this repository account latency in the same
// simulated clock so that CPU-vs-GPU comparisons are deterministic and
// host-independent (see DESIGN.md §2: the paper's K20 testbed is modeled, not
// measured). Durations are integer picoseconds: fine-grained enough for
// single ALU ops, wide enough for hours of simulated service time.
#pragma once

#include <cmath>
#include <compare>
#include <cstdint>

namespace griffin::sim {

class Duration {
 public:
  constexpr Duration() : ps_(0) {}

  static constexpr Duration from_ps(std::int64_t ps) { return Duration(ps); }
  static constexpr Duration from_ns(double ns) {
    return Duration(static_cast<std::int64_t>(ns * 1e3 + 0.5));
  }
  static constexpr Duration from_us(double us) {
    return Duration(static_cast<std::int64_t>(us * 1e6 + 0.5));
  }
  static constexpr Duration from_ms(double ms) {
    return Duration(static_cast<std::int64_t>(ms * 1e9 + 0.5));
  }
  static constexpr Duration from_seconds(double s) {
    return Duration(static_cast<std::int64_t>(s * 1e12 + 0.5));
  }
  /// Cycles at a given clock frequency.
  static Duration from_cycles(double cycles, double clock_ghz) {
    return from_ns(cycles / clock_ghz);
  }

  constexpr std::int64_t ps() const { return ps_; }
  constexpr double ns() const { return static_cast<double>(ps_) * 1e-3; }
  constexpr double us() const { return static_cast<double>(ps_) * 1e-6; }
  constexpr double ms() const { return static_cast<double>(ps_) * 1e-9; }
  constexpr double seconds() const { return static_cast<double>(ps_) * 1e-12; }

  constexpr Duration operator+(Duration o) const {
    return Duration(ps_ + o.ps_);
  }
  constexpr Duration operator-(Duration o) const {
    return Duration(ps_ - o.ps_);
  }
  constexpr Duration& operator+=(Duration o) { ps_ += o.ps_; return *this; }
  constexpr Duration& operator-=(Duration o) { ps_ -= o.ps_; return *this; }
  constexpr Duration operator*(double k) const {
    return Duration(static_cast<std::int64_t>(static_cast<double>(ps_) * k));
  }
  constexpr double operator/(Duration o) const {
    return static_cast<double>(ps_) / static_cast<double>(o.ps_);
  }
  constexpr auto operator<=>(const Duration&) const = default;

 private:
  constexpr explicit Duration(std::int64_t ps) : ps_(ps) {}
  std::int64_t ps_;
};

constexpr Duration max(Duration a, Duration b) { return a < b ? b : a; }
constexpr Duration min(Duration a, Duration b) { return a < b ? a : b; }

}  // namespace griffin::sim
