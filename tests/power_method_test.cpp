#include "solvers/power_method.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "core/exd.hpp"
#include "data/subspace.hpp"
#include "la/blas.hpp"
#include "la/random.hpp"
#include "support/svd.hpp"

namespace extdict::solvers {
namespace {

using core::DenseGramOperator;
using core::TransformedGramOperator;

TEST(PowerMethod, FindsSpectrumOfRandomMatrix) {
  la::Rng rng(1);
  const Matrix a = rng.gaussian_matrix(20, 15);
  DenseGramOperator op(a);
  PowerConfig config;
  config.num_eigenpairs = 5;
  config.tolerance = 1e-10;
  config.max_iterations = 2000;
  const PowerResult r = power_method(op, config);

  const la::SvdResult svd = la::jacobi_svd(a);
  ASSERT_EQ(r.eigenvalues.size(), 5u);
  for (std::size_t i = 0; i < 5; ++i) {
    // Eigenvalues of AᵀA are squared singular values of A.
    EXPECT_NEAR(r.eigenvalues[i], svd.s[i] * svd.s[i],
                1e-4 * svd.s[0] * svd.s[0])
        << "eig " << i;
  }
}

TEST(PowerMethod, EigenvaluesNonIncreasing) {
  la::Rng rng(2);
  const Matrix a = rng.gaussian_matrix(25, 18);
  DenseGramOperator op(a);
  PowerConfig config;
  config.num_eigenpairs = 6;
  const PowerResult r = power_method(op, config);
  for (std::size_t i = 1; i < r.eigenvalues.size(); ++i) {
    EXPECT_LE(r.eigenvalues[i], r.eigenvalues[i - 1] * (1 + 1e-6));
  }
}

TEST(PowerMethod, EigenvectorsAreEigenvectors) {
  la::Rng rng(3);
  const Matrix a = rng.gaussian_matrix(30, 12);
  DenseGramOperator op(a);
  PowerConfig config;
  config.num_eigenpairs = 3;
  config.tolerance = 1e-12;
  config.max_iterations = 3000;
  const PowerResult r = power_method(op, config);
  la::Vector gv(12);
  for (Index e = 0; e < 3; ++e) {
    auto v = r.eigenvectors.col(e);
    op.apply(v, gv);
    for (std::size_t i = 0; i < 12; ++i) {
      EXPECT_NEAR(gv[i], r.eigenvalues[static_cast<std::size_t>(e)] * v[i],
                  2e-3 * r.eigenvalues[0]);
    }
  }
}

TEST(PowerMethod, DeflationYieldsOrthogonalVectors) {
  la::Rng rng(4);
  const Matrix a = rng.gaussian_matrix(30, 14);
  DenseGramOperator op(a);
  PowerConfig config;
  config.num_eigenpairs = 4;
  config.tolerance = 1e-11;
  config.max_iterations = 3000;
  const PowerResult r = power_method(op, config);
  for (Index i = 0; i < 4; ++i) {
    for (Index j = i + 1; j < 4; ++j) {
      EXPECT_NEAR(la::dot(r.eigenvectors.col(i), r.eigenvectors.col(j)), 0.0,
                  5e-3);
    }
  }
}

TEST(PowerMethod, CapsAtDimension) {
  la::Rng rng(5);
  const Matrix a = rng.gaussian_matrix(10, 3);
  DenseGramOperator op(a);
  PowerConfig config;
  config.num_eigenpairs = 10;
  const PowerResult r = power_method(op, config);
  EXPECT_EQ(r.eigenvalues.size(), 3u);
  EXPECT_GT(r.total_iterations(), 0);
}

TEST(PowerMethod, TransformedSpectrumTracksOriginal) {
  // Fig. 12's premise: the (DC)ᵀDC spectrum is close to the AᵀA spectrum
  // when epsilon is small.
  data::SubspaceModelConfig dc;
  dc.ambient_dim = 30;
  dc.num_columns = 150;
  dc.num_subspaces = 4;
  dc.subspace_dim = 4;
  dc.seed = 151;
  const Matrix a = data::make_union_of_subspaces(dc).a;
  core::ExdConfig exd_config;
  exd_config.dictionary_size = 80;
  exd_config.tolerance = 0.01;
  const core::ExdResult exd = core::exd_transform(a, exd_config);

  DenseGramOperator dense(a);
  TransformedGramOperator transformed(exd.dictionary, exd.coefficients);
  PowerConfig config;
  config.num_eigenpairs = 5;
  config.tolerance = 1e-9;
  config.max_iterations = 2000;
  const PowerResult ref = power_method(dense, config);
  const PowerResult got = power_method(transformed, config);
  EXPECT_LT(eigenvalue_error(got.eigenvalues, ref.eigenvalues), 0.02);
}

TEST(EigenvalueError, Definition) {
  const std::vector<Real> ref = {4.0, 2.0, 1.0};
  const std::vector<Real> found = {4.2, 1.9, 1.0};
  EXPECT_NEAR(eigenvalue_error(found, ref), 0.3 / 7.0, 1e-12);
  EXPECT_EQ(eigenvalue_error(ref, ref), 0.0);
  EXPECT_THROW((void)eigenvalue_error({}, {}), std::invalid_argument);
}

}  // namespace
}  // namespace extdict::solvers
