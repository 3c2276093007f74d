#pragma once

#include <span>

#include "la/matrix.hpp"
#include "la/types.hpp"

namespace extdict::la {

// ---------------------------------------------------------------------------
// BLAS level 1
// ---------------------------------------------------------------------------

/// y += alpha * x
void axpy(Real alpha, std::span<const Real> x, std::span<Real> y) noexcept;

/// x *= alpha
void scal(Real alpha, std::span<Real> x) noexcept;

/// Inner product <x, y>: the 1×1 tile of the inner-product kernel behind
/// gemv_t, gemm and gram, so it is bitwise equal to their entries.
[[nodiscard]] Real dot(std::span<const Real> x, std::span<const Real> y) noexcept;

/// Euclidean norm ||x||_2 (overflow-safe scaled accumulation).
[[nodiscard]] Real nrm2(std::span<const Real> x) noexcept;

/// Index of max |x_i|; returns -1 for an empty span.
[[nodiscard]] Index iamax(std::span<const Real> x) noexcept;

// ---------------------------------------------------------------------------
// BLAS level 2
// ---------------------------------------------------------------------------

/// y = alpha * A * x + beta * y   (A is rows x cols, x sized cols, y rows).
/// An axpy stream over the columns of A (already vectorized and
/// bandwidth-bound), not the inner-product kernel.
void gemv(Real alpha, const Matrix& a, std::span<const Real> x, Real beta,
          std::span<Real> y);

/// y = alpha * A^T * x + beta * y  (x sized rows, y sized cols).
/// Column-major makes the transposed product the cache-friendly one: each
/// output element is a contiguous column inner product, y[j] bitwise
/// dot(A(:,j), x), computed four columns per kernel tile and parallelised
/// over tiles with OpenMP above 256 columns.
void gemv_t(Real alpha, const Matrix& a, std::span<const Real> x, Real beta,
            std::span<Real> y);

// ---------------------------------------------------------------------------
// BLAS level 3
// ---------------------------------------------------------------------------

enum class Trans { kNo, kYes };

/// C = alpha * op(A) * op(B) + beta * C with op in {identity, transpose}.
/// Register-tiled inner products of K-contiguous columns, parallelised
/// over tiles with OpenMP: A^T * B runs directly (each entry bitwise
/// dot(A(:,i), B(:,j))); the other cases first transpose the operand that
/// is not K-contiguous. With beta == 0, C's prior contents are ignored.
void gemm(Real alpha, const Matrix& a, Trans ta, const Matrix& b, Trans tb,
          Real beta, Matrix& c);

/// Convenience: returns op(A) * op(B).
[[nodiscard]] Matrix matmul(const Matrix& a, const Matrix& b,
                            Trans ta = Trans::kNo, Trans tb = Trans::kNo);

/// Gram matrix A^T A (exploits symmetry: computes the upper-triangle tiles
/// and mirrors them); entry (i, j) is bitwise dot(A(:,i), A(:,j)).
[[nodiscard]] Matrix gram(const Matrix& a);

/// FLOP counters for the kernels above (multiply+add pairs counted as 2
/// FLOPs, matching the paper's accounting).
[[nodiscard]] constexpr std::uint64_t gemv_flops(Index rows, Index cols) noexcept {
  return 2ull * static_cast<std::uint64_t>(rows) * static_cast<std::uint64_t>(cols);
}
[[nodiscard]] constexpr std::uint64_t gemm_flops(Index m, Index n, Index k) noexcept {
  return 2ull * static_cast<std::uint64_t>(m) * static_cast<std::uint64_t>(n) *
         static_cast<std::uint64_t>(k);
}

}  // namespace extdict::la
