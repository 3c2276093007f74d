#include "support/svd.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "la/blas.hpp"
#include "la/random.hpp"

namespace extdict::la {
namespace {

Matrix reconstruct(const SvdResult& svd) {
  Matrix us = svd.u;
  for (Index j = 0; j < us.cols(); ++j) {
    scal(svd.s[static_cast<std::size_t>(j)], us.col(j));
  }
  return matmul(us, svd.v, Trans::kNo, Trans::kYes);
}

TEST(JacobiSvd, ReconstructsSmallMatrix) {
  Rng rng(1);
  Matrix a = rng.gaussian_matrix(6, 4);
  SvdResult svd = jacobi_svd(a);
  EXPECT_LT(max_abs_diff(a, reconstruct(svd)), 1e-9);
}

TEST(JacobiSvd, SingularValuesSortedNonIncreasing) {
  Rng rng(2);
  Matrix a = rng.gaussian_matrix(8, 8);
  SvdResult svd = jacobi_svd(a);
  for (std::size_t i = 1; i < svd.s.size(); ++i) {
    EXPECT_GE(svd.s[i - 1], svd.s[i]);
  }
}

TEST(JacobiSvd, SingularVectorsOrthonormal) {
  Rng rng(3);
  Matrix a = rng.gaussian_matrix(10, 5);
  SvdResult svd = jacobi_svd(a);
  Matrix utu = matmul(svd.u, svd.u, Trans::kYes, Trans::kNo);
  Matrix vtv = matmul(svd.v, svd.v, Trans::kYes, Trans::kNo);
  for (Index i = 0; i < 5; ++i) {
    for (Index j = 0; j < 5; ++j) {
      const Real expected = i == j ? 1.0 : 0.0;
      EXPECT_NEAR(utu(i, j), expected, 1e-9);
      EXPECT_NEAR(vtv(i, j), expected, 1e-9);
    }
  }
}

TEST(JacobiSvd, KnownDiagonalCase) {
  Matrix a = Matrix::from_rows({{3, 0}, {0, -4}});
  SvdResult svd = jacobi_svd(a);
  EXPECT_NEAR(svd.s[0], 4.0, 1e-12);
  EXPECT_NEAR(svd.s[1], 3.0, 1e-12);
}

TEST(JacobiSvd, FrobeniusIdentity) {
  // ||A||_F² = Σ σ_i².
  Rng rng(4);
  Matrix a = rng.gaussian_matrix(7, 7);
  SvdResult svd = jacobi_svd(a);
  Real ssq = 0;
  for (Real s : svd.s) ssq += s * s;
  EXPECT_NEAR(std::sqrt(ssq), a.frobenius_norm(), 1e-9);
}

TEST(RandomizedSvd, RecoversLowRankExactly) {
  // Rank-3 matrix: randomized SVD at k=3 reconstructs it (within fp noise).
  Rng rng(5);
  Matrix b = rng.gaussian_matrix(20, 3);
  Matrix c = rng.gaussian_matrix(3, 15);
  Matrix a = matmul(b, c);
  SvdResult svd = randomized_svd(a, 3, rng);
  EXPECT_LT(max_abs_diff(a, reconstruct(svd)), 1e-8);
}

TEST(RandomizedSvd, TopSingularValuesMatchJacobi) {
  Rng rng(6);
  Matrix a = rng.gaussian_matrix(30, 12);
  SvdResult full = jacobi_svd(a);
  SvdResult trunc = randomized_svd(a, 4, rng, 3);
  for (std::size_t i = 0; i < 4; ++i) {
    EXPECT_NEAR(trunc.s[i], full.s[i], 1e-6 * full.s[0]);
  }
}

TEST(RandomizedSvd, BadRankThrows) {
  Rng rng(7);
  Matrix a = rng.gaussian_matrix(5, 5);
  EXPECT_THROW(randomized_svd(a, 0, rng), std::invalid_argument);
  EXPECT_THROW(randomized_svd(a, 9, rng), std::invalid_argument);
}

TEST(SpectralNorm, MatchesLargestSingularValue) {
  Rng rng(8);
  Matrix a = rng.gaussian_matrix(15, 10);
  SvdResult svd = jacobi_svd(a);
  EXPECT_NEAR(spectral_norm(a, rng), svd.s[0], 1e-4 * svd.s[0]);
}

TEST(RankKError, MatchesTailOfSpectrum) {
  Rng rng(9);
  Matrix a = rng.gaussian_matrix(10, 6);
  SvdResult svd = jacobi_svd(a);
  Real tail = 0;
  for (std::size_t i = 2; i < svd.s.size(); ++i) tail += svd.s[i] * svd.s[i];
  EXPECT_NEAR(rank_k_error(a, 2), std::sqrt(tail), 1e-9);
}

}  // namespace
}  // namespace extdict::la
