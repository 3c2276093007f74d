#include "solvers/cg.hpp"

#include <gtest/gtest.h>

#include "core/exd.hpp"
#include "la/blas.hpp"
#include "la/cholesky.hpp"
#include "la/random.hpp"
#include "util/contracts.hpp"

namespace extdict::solvers {
namespace {

using core::DenseGramOperator;
using core::TransformedGramOperator;
using la::Matrix;

TEST(ConjugateGradient, SolvesShiftedGramSystem) {
  la::Rng rng(1);
  const Matrix a = rng.gaussian_matrix(30, 20, true);
  DenseGramOperator op(a);
  la::Vector b(20);
  rng.fill_gaussian(b);

  CgConfig config;
  config.shift = 0.5;
  const CgResult r = conjugate_gradient(op, b, config);
  ASSERT_TRUE(r.converged);

  // Check against the Cholesky solution of (G + 0.5 I) x = b.
  Matrix g = la::gram(a);
  for (la::Index i = 0; i < 20; ++i) g(i, i) += 0.5;
  const la::Vector expected = la::Cholesky(g).solve(b);
  for (std::size_t i = 0; i < 20; ++i) EXPECT_NEAR(r.x[i], expected[i], 1e-7);
}

TEST(ConjugateGradient, ExactInNStepsOnSmallSpd) {
  // CG terminates in at most n iterations in exact arithmetic; a
  // well-conditioned 10-dim problem should converge in <= ~12 iterations.
  la::Rng rng(2);
  const Matrix a = rng.gaussian_matrix(25, 10, true);
  DenseGramOperator op(a);
  la::Vector b(10);
  rng.fill_gaussian(b);
  CgConfig config;
  config.shift = 1.0;
  const CgResult r = conjugate_gradient(op, b, config);
  EXPECT_TRUE(r.converged);
  EXPECT_LE(r.iterations, 14);
}

TEST(ConjugateGradient, ZeroRhsIsTrivial) {
  la::Rng rng(3);
  const Matrix a = rng.gaussian_matrix(10, 5, true);
  DenseGramOperator op(a);
  la::Vector zero(5, 0.0);
  const CgResult r = conjugate_gradient(op, zero, {});
  EXPECT_TRUE(r.converged);
  EXPECT_EQ(r.iterations, 0);
  for (Real v : r.x) EXPECT_EQ(v, 0.0);
}

TEST(ConjugateGradient, Validation) {
  la::Rng rng(4);
  const Matrix a = rng.gaussian_matrix(10, 5, true);
  DenseGramOperator op(a);
  la::Vector wrong(6);
  EXPECT_THROW(conjugate_gradient(op, wrong, {}), std::invalid_argument);
  EXPECT_THROW(conjugate_gradient(op, wrong, {}), util::ContractViolation);
  la::Vector b(5, 1.0);
  CgConfig bad;
  bad.shift = -1;
  EXPECT_THROW(conjugate_gradient(op, b, bad), std::invalid_argument);
}

TEST(ConjugateGradient, WorksThroughTransformedOperator) {
  la::Rng rng(5);
  const Matrix a = rng.gaussian_matrix(40, 50, true);
  core::ExdConfig exd;
  exd.dictionary_size = 40;
  exd.tolerance = 1e-9;
  const auto t = core::exd_transform(a, exd);
  DenseGramOperator dense(a);
  TransformedGramOperator transformed(t.dictionary, t.coefficients);

  la::Vector b(50);
  rng.fill_gaussian(b);
  CgConfig config;
  config.shift = 0.2;
  const CgResult rd = conjugate_gradient(dense, b, config);
  const CgResult rt = conjugate_gradient(transformed, b, config);
  ASSERT_TRUE(rd.converged);
  ASSERT_TRUE(rt.converged);
  for (std::size_t i = 0; i < 50; ++i) EXPECT_NEAR(rd.x[i], rt.x[i], 1e-5);
}

}  // namespace
}  // namespace extdict::solvers
