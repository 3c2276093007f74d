#include "support/svd.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <stdexcept>
#include <string>

#include "la/blas.hpp"
#include "la/qr.hpp"
#include "util/contracts.hpp"

namespace extdict::la {

SvdResult jacobi_svd(const Matrix& a, Real tol, int max_sweeps) {
  // One-sided Jacobi: orthogonalise the columns of W = A * V by plane
  // rotations; singular values are the final column norms.
  EXTDICT_CHECK_FINITE(
      std::span<const Real>(a.data(), static_cast<std::size_t>(a.size())),
      "jacobi_svd: input matrix");
  const Index m = a.rows();
  const Index n = a.cols();
  Matrix w = a;
  Matrix v(n, n);
  for (Index i = 0; i < n; ++i) v(i, i) = 1;

  for (int sweep = 0; sweep < max_sweeps; ++sweep) {
    bool converged = true;
    for (Index p = 0; p < n - 1; ++p) {
      for (Index q = p + 1; q < n; ++q) {
        const Real app = dot(w.col(p), w.col(p));
        const Real aqq = dot(w.col(q), w.col(q));
        const Real apq = dot(w.col(p), w.col(q));
        if (std::abs(apq) <= tol * std::sqrt(app * aqq) || apq == Real{0}) {
          continue;
        }
        converged = false;
        const Real tau = (aqq - app) / (2 * apq);
        const Real t = (tau >= 0 ? Real{1} : Real{-1}) /
                       (std::abs(tau) + std::sqrt(1 + tau * tau));
        const Real c = 1 / std::sqrt(1 + t * t);
        const Real s = c * t;
        for (Index i = 0; i < m; ++i) {
          const Real wp = w(i, p), wq = w(i, q);
          w(i, p) = c * wp - s * wq;
          w(i, q) = s * wp + c * wq;
        }
        for (Index i = 0; i < n; ++i) {
          const Real vp = v(i, p), vq = v(i, q);
          v(i, p) = c * vp - s * vq;
          v(i, q) = s * vp + c * vq;
        }
      }
    }
    if (converged) break;
  }

  // Extract singular values (column norms of W) and sort descending.
  Vector sigma(static_cast<std::size_t>(n));
  for (Index j = 0; j < n; ++j) sigma[static_cast<std::size_t>(j)] = nrm2(w.col(j));
  std::vector<Index> order(static_cast<std::size_t>(n));
  std::iota(order.begin(), order.end(), Index{0});
  std::sort(order.begin(), order.end(), [&](Index x, Index y) {
    return sigma[static_cast<std::size_t>(x)] > sigma[static_cast<std::size_t>(y)];
  });

  SvdResult out;
  out.u = Matrix(m, n);
  out.v = Matrix(n, n);
  out.s.resize(static_cast<std::size_t>(n));
  for (Index j = 0; j < n; ++j) {
    const Index src = order[static_cast<std::size_t>(j)];
    const Real sg = sigma[static_cast<std::size_t>(src)];
    out.s[static_cast<std::size_t>(j)] = sg;
    for (Index i = 0; i < m; ++i) {
      out.u(i, j) = sg > Real{0} ? w(i, src) / sg : Real{0};
    }
    for (Index i = 0; i < n; ++i) out.v(i, j) = v(i, src);
  }
  return out;
}

namespace {

// Thin QR-based orthonormalisation of the columns of `y` (in place result).
Matrix orthonormalize(const Matrix& y) {
  HouseholderQr qr(y);
  // Build Q explicitly by applying reflectors to the identity columns.
  // Cheaper trick for thin Q: solve against canonical basis is wasteful;
  // instead use modified Gram-Schmidt here — y has few columns.
  Matrix q = y;
  for (Index j = 0; j < q.cols(); ++j) {
    auto cj = q.col(j);
    for (Index k = 0; k < j; ++k) {
      const Real r = dot(q.col(k), cj);
      axpy(-r, q.col(k), cj);
    }
    // Second pass for numerical robustness (MGS twice ≈ Householder).
    for (Index k = 0; k < j; ++k) {
      const Real r = dot(q.col(k), cj);
      axpy(-r, q.col(k), cj);
    }
    const Real norm = nrm2(cj);
    if (norm > Real{0}) scal(1 / norm, cj);
  }
  return q;
}

}  // namespace

SvdResult randomized_svd(const Matrix& a, Index k, Rng& rng, int power_iters,
                         Index oversample) {
  const Index m = a.rows();
  const Index n = a.cols();
  const Index p = std::min(n, k + oversample);
  EXTDICT_REQUIRE_SHAPE(k > 0 && k <= std::min(m, n),
                        "randomized_svd: rank k=" + std::to_string(k) +
                            " outside [1, min(" + std::to_string(m) + ", " +
                            std::to_string(n) + ")]");

  // Sketch Y = A * Omega, then subspace iterations Y <- A (A^T Y).
  Matrix omega = rng.gaussian_matrix(n, p);
  Matrix y = matmul(a, omega);
  for (int it = 0; it < power_iters; ++it) {
    Matrix q = orthonormalize(y);
    Matrix z = matmul(a, q, Trans::kYes, Trans::kNo);  // n x p
    Matrix qz = orthonormalize(z);
    y = matmul(a, qz);  // m x p
  }
  Matrix q = orthonormalize(y);

  // Small projected problem B = Q^T A (p x n); SVD of B via Jacobi on B^T.
  Matrix b = matmul(q, a, Trans::kYes, Trans::kNo);
  SvdResult small = jacobi_svd(b.transposed());
  // b^T = U_s S V_s^T with U_s (n x p), V_s (p x p). Then
  // A ≈ Q b = Q V_s S U_s^T, so U = Q * V_s, V = U_s.
  Matrix u_full = matmul(q, small.v);

  SvdResult out;
  out.u = Matrix(m, k);
  out.v = Matrix(n, k);
  out.s.assign(static_cast<std::size_t>(k), Real{0});
  for (Index j = 0; j < k; ++j) {
    out.s[static_cast<std::size_t>(j)] = small.s[static_cast<std::size_t>(j)];
    for (Index i = 0; i < m; ++i) out.u(i, j) = u_full(i, j);
    for (Index i = 0; i < n; ++i) out.v(i, j) = small.u(i, j);
  }
  return out;
}

Real spectral_norm(const Matrix& a, Rng& rng, int iters) {
  Vector x(static_cast<std::size_t>(a.cols()));
  rng.fill_gaussian(x);
  Vector ax(static_cast<std::size_t>(a.rows()));
  Real lambda = 0;
  for (int it = 0; it < iters; ++it) {
    gemv(1, a, x, 0, ax);
    gemv_t(1, a, ax, 0, x);
    lambda = nrm2(x);
    if (lambda == Real{0}) return 0;
    scal(1 / lambda, x);
  }
  return std::sqrt(lambda);
}

Real rank_k_error(const Matrix& a, Index k) {
  SvdResult svd = jacobi_svd(a);
  Real ssq = 0;
  for (std::size_t i = static_cast<std::size_t>(k); i < svd.s.size(); ++i) {
    ssq += svd.s[i] * svd.s[i];
  }
  return std::sqrt(ssq);
}

}  // namespace extdict::la
