#include "util/zipf.h"

#include <cassert>
#include <cmath>

namespace griffin::util {

// Implementation of Hörmann & Derflinger's rejection-inversion sampling for
// the Zipf distribution ("Rejection-inversion to generate variates from
// monotone discrete distributions", ACM TOMACS 1996). The same scheme is used
// by Apache Commons' RejectionInversionZipfSampler.

namespace {
// Computes (exp(x) - 1) / x with a series fallback near zero for stability.
double expm1_over_x(double x) {
  if (std::abs(x) > 1e-8) return std::expm1(x) / x;
  return 1.0 + x * 0.5 * (1.0 + x / 3.0 * (1.0 + x * 0.25));
}
// Computes log1p(x) / x with a series fallback near zero.
double log1p_over_x(double x) {
  if (std::abs(x) > 1e-8) return std::log1p(x) / x;
  return 1.0 - x * (0.5 - x * (1.0 / 3.0 - x * 0.25));
}
}  // namespace

ZipfSampler::ZipfSampler(std::uint64_t n, double s) : n_(n), s_(s) {
  assert(n >= 1);
  assert(s > 0.0);
  h_integral_x1_ = h_integral(1.5) - 1.0;
  h_integral_num_elements_ = h_integral(static_cast<double>(n) + 0.5);
  threshold_ = 2.0 - h_integral_inverse(h_integral(2.5) - h(2.0));
}

double ZipfSampler::h(double x) const { return std::exp(-s_ * std::log(x)); }

double ZipfSampler::h_integral(double x) const {
  const double log_x = std::log(x);
  return expm1_over_x((1.0 - s_) * log_x) * log_x;
}

double ZipfSampler::h_integral_inverse(double x) const {
  double t = x * (1.0 - s_);
  if (t < -1.0) t = -1.0;  // guard against rounding below the domain
  return std::exp(log1p_over_x(t) * x);
}

std::uint64_t ZipfSampler::operator()(Xoshiro256& rng) const {
  if (n_ == 1) return 1;
  for (;;) {
    const double u =
        h_integral_num_elements_ +
        rng.uniform01() * (h_integral_x1_ - h_integral_num_elements_);
    const double x = h_integral_inverse(u);
    double k = std::floor(x + 0.5);
    if (k < 1.0) {
      k = 1.0;
    } else if (k > static_cast<double>(n_)) {
      k = static_cast<double>(n_);
    }
    // Acceptance test (with the two shortcut acceptances from the paper).
    if (k - x <= threshold_ ||
        u >= h_integral(k + 0.5) - h(k)) {
      return static_cast<std::uint64_t>(k);
    }
  }
}

}  // namespace griffin::util
