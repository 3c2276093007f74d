#include "solvers/adagrad.hpp"

#include <cmath>
#include <stdexcept>

#include "util/contracts.hpp"

namespace extdict::solvers {

Adagrad::Adagrad(Index dim, Real base_rate, Real epsilon)
    : accum_(static_cast<std::size_t>(dim), Real{0}),
      base_rate_(base_rate),
      epsilon_(epsilon) {
  if (dim <= 0 || base_rate <= 0) {
    throw std::invalid_argument("Adagrad: bad dimension or rate");
  }
}

void Adagrad::accumulate(std::span<const Real> gradient) {
  EXTDICT_REQUIRE_SHAPE(gradient.size() == accum_.size(),
                        "Adagrad::accumulate: size mismatch");
  for (std::size_t i = 0; i < accum_.size(); ++i) {
    accum_[i] += gradient[i] * gradient[i];
  }
}

Real Adagrad::rate(Index i) const noexcept {
  return base_rate_ / std::sqrt(accum_[static_cast<std::size_t>(i)] + epsilon_);
}

void Adagrad::step(std::span<const Real> gradient, std::span<Real> x) {
  EXTDICT_REQUIRE_SHAPE(
      gradient.size() == accum_.size() && x.size() == accum_.size(),
      "Adagrad::step: size mismatch");
  accumulate(gradient);
  for (std::size_t i = 0; i < x.size(); ++i) {
    x[i] -= rate(static_cast<Index>(i)) * gradient[i];
  }
}

void Adagrad::reset() {
  std::fill(accum_.begin(), accum_.end(), Real{0});
}

Real soft_threshold(Real v, Real t) noexcept {
  if (v > t) return v - t;
  if (v < -t) return v + t;
  return Real{0};
}

}  // namespace extdict::solvers
