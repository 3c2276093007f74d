#include "solvers/lanczos.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include "core/exd.hpp"
#include "la/blas.hpp"
#include "la/random.hpp"
#include "solvers/power_method.hpp"
#include "support/svd.hpp"
#include "util/contracts.hpp"

namespace extdict::solvers {
namespace {

using core::DenseGramOperator;
using core::TransformedGramOperator;
using la::Matrix;

TEST(TridiagonalEigen, DiagonalMatrixIsItsOwnSpectrum) {
  std::vector<Real> d = {3, 1, 2};
  std::vector<Real> e = {0, 0, 0};
  tridiagonal_eigen(d, e, nullptr);
  std::sort(d.begin(), d.end());
  EXPECT_NEAR(d[0], 1, 1e-12);
  EXPECT_NEAR(d[1], 2, 1e-12);
  EXPECT_NEAR(d[2], 3, 1e-12);
}

TEST(TridiagonalEigen, Known2x2) {
  // [[2, 1], [1, 2]] has eigenvalues 1 and 3.
  std::vector<Real> d = {2, 2};
  std::vector<Real> e = {1, 0};
  Matrix z(2, 2);
  z(0, 0) = z(1, 1) = 1;
  tridiagonal_eigen(d, e, &z);
  std::vector<Real> sorted = d;
  std::sort(sorted.begin(), sorted.end());
  EXPECT_NEAR(sorted[0], 1.0, 1e-12);
  EXPECT_NEAR(sorted[1], 3.0, 1e-12);
  // Eigenvectors are (1, ∓1)/sqrt(2): |z| entries all 1/sqrt(2).
  for (la::Index j = 0; j < 2; ++j) {
    for (la::Index i = 0; i < 2; ++i) {
      EXPECT_NEAR(std::abs(z(i, j)), 1 / std::sqrt(2.0), 1e-10);
    }
  }
}

TEST(TridiagonalEigen, EigenvectorShapeContractThrows) {
  std::vector<Real> d = {2, 2};
  std::vector<Real> e = {1, 0};
  Matrix z(2, 3);  // one column per eigenpair is required
  EXPECT_THROW(tridiagonal_eigen(d, e, &z), util::ContractViolation);
}

TEST(TridiagonalEigen, MatchesJacobiOnRandomTridiagonal) {
  la::Rng rng(1);
  const la::Index n = 12;
  std::vector<Real> d(static_cast<std::size_t>(n)), e(static_cast<std::size_t>(n), 0);
  Matrix full(n, n);
  for (la::Index i = 0; i < n; ++i) {
    d[static_cast<std::size_t>(i)] = rng.gaussian();
    full(i, i) = d[static_cast<std::size_t>(i)];
  }
  for (la::Index i = 0; i + 1 < n; ++i) {
    e[static_cast<std::size_t>(i)] = rng.gaussian();
    full(i, i + 1) = full(i + 1, i) = e[static_cast<std::size_t>(i)];
  }
  tridiagonal_eigen(d, e, nullptr);
  std::sort(d.begin(), d.end(), std::greater<>());
  // Reference: singular values of the symmetric matrix are |eigenvalues|;
  // compare absolute spectra sorted descending.
  const la::SvdResult svd = la::jacobi_svd(full);
  std::vector<Real> abs_d(d.size());
  for (std::size_t i = 0; i < d.size(); ++i) abs_d[i] = std::abs(d[i]);
  std::sort(abs_d.begin(), abs_d.end(), std::greater<>());
  for (std::size_t i = 0; i < abs_d.size(); ++i) {
    EXPECT_NEAR(abs_d[i], svd.s[i], 1e-9);
  }
}

TEST(Lanczos, MatchesFullSpectrumOnSmallGram) {
  la::Rng rng(2);
  const Matrix a = rng.gaussian_matrix(30, 18);
  DenseGramOperator op(a);
  LanczosConfig config;
  config.num_eigenpairs = 5;
  const LanczosResult r = lanczos(op, config);
  const la::SvdResult svd = la::jacobi_svd(a);
  ASSERT_EQ(r.eigenvalues.size(), 5u);
  for (std::size_t i = 0; i < 5; ++i) {
    EXPECT_NEAR(r.eigenvalues[i], svd.s[i] * svd.s[i], 1e-6 * svd.s[0] * svd.s[0]);
  }
}

TEST(Lanczos, RitzVectorsAreEigenvectors) {
  la::Rng rng(3);
  const Matrix a = rng.gaussian_matrix(25, 15);
  DenseGramOperator op(a);
  LanczosConfig config;
  config.num_eigenpairs = 3;
  const LanczosResult r = lanczos(op, config);
  la::Vector gv(15);
  for (la::Index e = 0; e < 3; ++e) {
    auto v = r.eigenvectors.col(e);
    op.apply(v, gv);
    for (std::size_t i = 0; i < 15; ++i) {
      EXPECT_NEAR(gv[i], r.eigenvalues[static_cast<std::size_t>(e)] * v[i],
                  1e-6 * r.eigenvalues[0]);
    }
  }
}

TEST(Lanczos, UsesFewerGramProductsThanPowerMethod) {
  la::Rng rng(4);
  const Matrix a = rng.gaussian_matrix(60, 80);
  DenseGramOperator op(a);

  LanczosConfig lconfig;
  lconfig.num_eigenpairs = 8;
  lconfig.tolerance = 1e-8;
  const LanczosResult lr = lanczos(op, lconfig);

  PowerConfig pconfig;
  pconfig.num_eigenpairs = 8;
  pconfig.tolerance = 1e-8;
  pconfig.max_iterations = 2000;
  const PowerResult pr = power_method(op, pconfig);

  EXPECT_LT(lr.gram_products, pr.total_iterations());
  // And the spectra agree.
  EXPECT_LT(eigenvalue_error(lr.eigenvalues, pr.eigenvalues), 1e-4);
}

TEST(Lanczos, WorksThroughTransformedOperator) {
  la::Rng rng(5);
  const Matrix a = rng.gaussian_matrix(40, 60, true);
  core::ExdConfig exd;
  exd.dictionary_size = 40;
  exd.tolerance = 1e-8;
  const auto t = core::exd_transform(a, exd);
  TransformedGramOperator op(t.dictionary, t.coefficients);
  DenseGramOperator dense(a);
  LanczosConfig config;
  config.num_eigenpairs = 4;
  const LanczosResult rt = lanczos(op, config);
  const LanczosResult rd = lanczos(dense, config);
  for (std::size_t i = 0; i < 4; ++i) {
    EXPECT_NEAR(rt.eigenvalues[i], rd.eigenvalues[i], 1e-5 * rd.eigenvalues[0]);
  }
}

TEST(Lanczos, Validation) {
  la::Rng rng(6);
  const Matrix a = rng.gaussian_matrix(10, 5);
  DenseGramOperator op(a);
  LanczosConfig config;
  config.num_eigenpairs = 0;
  EXPECT_THROW(lanczos(op, config), std::invalid_argument);
}

}  // namespace
}  // namespace extdict::solvers
