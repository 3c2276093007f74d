#pragma once

#include "la/matrix.hpp"
#include "la/random.hpp"
#include "la/types.hpp"

// Reference SVD oracle for the tests (singular spectra that data and
// power-method results are checked against). No library code path
// computes an SVD, so it lives in the test-support target, not in src/la.

namespace extdict::la {

/// Result of a (possibly truncated) singular value decomposition
/// A ≈ U * diag(S) * V^T with singular values in non-increasing order.
struct SvdResult {
  Matrix u;  // rows x k
  Vector s;  // k
  Matrix v;  // cols x k
};

/// One-sided Jacobi SVD (full decomposition). Accurate but O(M N^2) with a
/// hefty constant; intended for validation, small problems, and computing
/// reference eigen-spectra for the PCA error figures.
[[nodiscard]] SvdResult jacobi_svd(const Matrix& a, Real tol = 1e-12,
                                   int max_sweeps = 60);

/// Randomized truncated SVD (Halko/Martinsson/Tropp): rank-k approximation
/// via Gaussian sketching and `power_iters` subspace iterations. This is the
/// classic dimensionality-reduction baseline the paper calls "infeasible at
/// scale" for full rank but which we include for reference spectra and the
/// RCSS error bound checks.
[[nodiscard]] SvdResult randomized_svd(const Matrix& a, Index k, Rng& rng,
                                       int power_iters = 2, Index oversample = 8);

/// Spectral norm estimate via power iteration on A^T A.
[[nodiscard]] Real spectral_norm(const Matrix& a, Rng& rng, int iters = 50);

/// Best rank-k approximation error ||A - A_k||_F derived from a full Jacobi
/// SVD (used to validate the CSS sampling bound discussion in §V.C).
[[nodiscard]] Real rank_k_error(const Matrix& a, Index k);

}  // namespace extdict::la
