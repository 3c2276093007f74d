#pragma once

#include <cstdint>
#include <vector>

#include "core/gram_operator.hpp"
#include "dist/cluster.hpp"
#include "la/csc_matrix.hpp"
#include "la/matrix.hpp"

namespace extdict::solvers {

using core::GramOperator;
using la::Index;
using la::Matrix;
using la::Real;

/// Power method with deflation for the top-k eigenpairs of the Gram matrix
/// G = AᵀA (the paper's PCA workhorse, §VIII-A): iterate x <- Gx/||Gx||
/// until the Rayleigh quotient stabilises, record (λ, v), deflate, repeat.
/// Note λ_i = σ_i², the squared singular values of A.
struct PowerConfig {
  int num_eigenpairs = 10;  ///< the paper reports the first 10 eigenvalues
  int max_iterations = 500; ///< per eigenpair
  Real tolerance = 1e-7;    ///< relative eigenvalue change stopping rule
  std::uint64_t seed = 29;
};

struct PowerResult {
  std::vector<Real> eigenvalues;   ///< of G, non-increasing
  Matrix eigenvectors;             ///< N x k, orthonormal
  std::vector<int> iterations;     ///< per eigenpair
  [[nodiscard]] int total_iterations() const noexcept {
    int total = 0;
    for (int it : iterations) total += it;
    return total;
  }
};

[[nodiscard]] PowerResult power_method(const GramOperator& op,
                                       const PowerConfig& config);

/// Fully distributed Power method on the transformed data (the paper's PCA
/// application end to end): every Gram product follows Algorithm 2's
/// communication pattern, deflation runs on distributed eigenvector slices
/// with scalar all-reductions, and the run's exact cost counters are
/// returned alongside the spectrum.
struct DistPowerResult {
  std::vector<Real> eigenvalues;
  std::vector<int> iterations;
  dist::RunStats stats;
  /// FLOPs of the Alg. 2 Gram updates alone, summed over ranks and
  /// iterations (same meaning as core::DistGramResult::update_flops).
  std::uint64_t update_flops = 0;

  [[nodiscard]] int total_iterations() const noexcept {
    int total = 0;
    for (int it : iterations) total += it;
    return total;
  }
};

[[nodiscard]] DistPowerResult power_method_distributed(
    const dist::Cluster& cluster, const Matrix& d, const la::CscMatrix& c,
    const PowerConfig& config);

/// Normalised cumulative error of the first k eigenvalues against a
/// reference spectrum: sum_i |λ_i - ref_i| / sum_i ref_i — the Fig. 12
/// learning-error metric.
[[nodiscard]] Real eigenvalue_error(const std::vector<Real>& found,
                                    const std::vector<Real>& reference);

}  // namespace extdict::solvers
