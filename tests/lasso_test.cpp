#include "solvers/lasso.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "core/exd.hpp"
#include "data/subspace.hpp"
#include "la/blas.hpp"
#include "la/random.hpp"
#include "solvers/adagrad.hpp"
#include "util/contracts.hpp"

namespace extdict::solvers {
namespace {

using core::DenseGramOperator;
using core::TransformedGramOperator;

TEST(SoftThreshold, PiecewiseDefinition) {
  EXPECT_EQ(soft_threshold(3.0, 1.0), 2.0);
  EXPECT_EQ(soft_threshold(-3.0, 1.0), -2.0);
  EXPECT_EQ(soft_threshold(0.5, 1.0), 0.0);
  EXPECT_EQ(soft_threshold(-0.5, 1.0), 0.0);
}

TEST(Adagrad, RatesShrinkWithAccumulatedGradient) {
  Adagrad ada(2, 0.5);
  la::Vector g = {10.0, 0.1};
  ada.accumulate(g);
  EXPECT_LT(ada.rate(0), ada.rate(1));
  const Real r0 = ada.rate(0);
  ada.accumulate(g);
  EXPECT_LT(ada.rate(0), r0);
  ada.reset();
  EXPECT_GT(ada.rate(0), r0);
}

TEST(Adagrad, StepMovesAgainstGradient) {
  Adagrad ada(2, 0.1);
  la::Vector g = {1.0, -1.0};
  la::Vector x = {0.0, 0.0};
  ada.step(g, x);
  EXPECT_LT(x[0], 0.0);
  EXPECT_GT(x[1], 0.0);
}

TEST(Adagrad, Validation) {
  EXPECT_THROW(Adagrad(0, 0.1), std::invalid_argument);
  EXPECT_THROW(Adagrad(2, 0.0), std::invalid_argument);
  Adagrad ada(2, 0.1);
  la::Vector bad = {1.0};
  EXPECT_THROW(ada.accumulate(bad), std::invalid_argument);
  // The size checks are shape contracts.
  la::Vector gradient = {1.0, 2.0};
  la::Vector x = {0.0, 0.0, 0.0};
  EXPECT_THROW(ada.accumulate(bad), util::ContractViolation);
  EXPECT_THROW(ada.step(bad, std::span<Real>(x).first(2)),
               util::ContractViolation);
  EXPECT_THROW(ada.step(gradient, x), util::ContractViolation);
}

struct LassoProblem {
  la::Matrix a;
  la::Vector y;       // observation = A x_true + noise
  la::Vector x_true;  // sparse ground truth
};

LassoProblem make_problem(la::Index m = 40, la::Index n = 120,
                          la::Index sparsity = 4, std::uint64_t seed = 131) {
  la::Rng rng(seed);
  LassoProblem p;
  p.a = rng.gaussian_matrix(m, n, true);
  p.x_true.assign(static_cast<std::size_t>(n), 0.0);
  for (const la::Index j : rng.sample_without_replacement(n, sparsity)) {
    p.x_true[static_cast<std::size_t>(j)] = rng.gaussian(0, 1) + 2;
  }
  p.y.assign(static_cast<std::size_t>(m), 0.0);
  la::gemv(1, p.a, p.x_true, 0, p.y);
  for (auto& v : p.y) v += rng.gaussian(0, 0.01);
  return p;
}

TEST(Lasso, ObjectiveDecreasesMonotonically) {
  const LassoProblem p = make_problem();
  DenseGramOperator op(p.a);
  LassoConfig config;
  config.lambda = 0.01;
  config.max_iterations = 150;
  config.objective_every = 5;
  const LassoResult r = lasso_solve(op, p.y, config);
  ASSERT_GE(r.objective_trace.size(), 3u);
  for (std::size_t i = 1; i < r.objective_trace.size(); ++i) {
    EXPECT_LE(r.objective_trace[i].second,
              r.objective_trace[i - 1].second * 1.001);
  }
}

TEST(Lasso, RecoversSparseSupport) {
  const LassoProblem p = make_problem();
  DenseGramOperator op(p.a);
  LassoConfig config;
  config.lambda = 0.05;
  config.max_iterations = 2000;
  config.tolerance = 1e-9;
  // Fixed-step ISTA converges linearly; the Adagrad variant's 1/sqrt(t)
  // rates are covered by the monotonicity test above.
  config.use_adagrad = false;
  const LassoResult r = lasso_solve(op, p.y, config);
  EXPECT_TRUE(r.converged);
  // Every large true coefficient is recovered with the right sign.
  for (std::size_t i = 0; i < p.x_true.size(); ++i) {
    if (std::abs(p.x_true[i]) > 1.0) {
      EXPECT_GT(r.x[i] * p.x_true[i], 0.0) << "coef " << i;
      EXPECT_NEAR(r.x[i], p.x_true[i], 0.35);
    }
  }
}

TEST(Lasso, LargerLambdaGivesSparserSolution) {
  const LassoProblem p = make_problem(40, 120, 6, 132);
  DenseGramOperator op(p.a);
  LassoConfig weak, strong;
  weak.lambda = 1e-4;
  strong.lambda = 0.05;
  weak.max_iterations = strong.max_iterations = 400;
  const LassoResult rw = lasso_solve(op, p.y, weak);
  const LassoResult rs = lasso_solve(op, p.y, strong);
  auto nnz = [](const la::Vector& x) {
    int k = 0;
    for (Real v : x) k += (v != 0.0);
    return k;
  };
  EXPECT_LE(nnz(rs.x), nnz(rw.x));
}

TEST(Lasso, TransformedOperatorSolvesSameProblem) {
  // LASSO through (DC)ᵀDC with a tight transform error lands on nearly the
  // same solution as through AᵀA — this is the correctness contract behind
  // the paper's runtime wins.
  data::SubspaceModelConfig dc;
  dc.ambient_dim = 40;
  dc.num_columns = 150;
  dc.num_subspaces = 5;
  dc.subspace_dim = 4;
  dc.seed = 133;
  const la::Matrix a = data::make_union_of_subspaces(dc).a;
  la::Rng rng(5);
  la::Vector x_true(150, 0.0);
  for (const la::Index j : rng.sample_without_replacement(150, 5)) {
    x_true[static_cast<std::size_t>(j)] = 2.0;
  }
  la::Vector y(40, 0.0);
  la::gemv(1, a, x_true, 0, y);

  core::ExdConfig exd_config;
  exd_config.dictionary_size = 100;
  exd_config.tolerance = 1e-5;
  const core::ExdResult exd = core::exd_transform(a, exd_config);

  DenseGramOperator dense(a);
  TransformedGramOperator transformed(exd.dictionary, exd.coefficients);
  LassoConfig config;
  config.lambda = 0.003;
  config.max_iterations = 600;
  config.tolerance = 1e-8;
  const LassoResult rd = lasso_solve(dense, y, config);
  const LassoResult rt = lasso_solve(transformed, y, config);
  Real diff = 0;
  for (std::size_t i = 0; i < rd.x.size(); ++i) diff += std::abs(rd.x[i] - rt.x[i]);
  EXPECT_LT(diff / 150, 0.02);
}

TEST(Lasso, SizeMismatchThrows) {
  const LassoProblem p = make_problem(20, 50, 3, 134);
  DenseGramOperator op(p.a);
  la::Vector bad(21);
  EXPECT_THROW(lasso_solve(op, bad, {}), std::invalid_argument);
  const la::Vector x(50, 0.0);
  EXPECT_THROW((void)elastic_net_objective(op, bad, x, 0.1, 0.1),
               util::ContractViolation);
  EXPECT_THROW((void)lasso_objective(op, bad, x, 0.1), util::ContractViolation);
}

TEST(Lasso, DistributedSizeMismatchThrows) {
  const LassoProblem p = make_problem(20, 50, 3, 134);
  const la::CscMatrix bad_c(p.a.cols() + 1, 10);  // C rows != D cols
  const dist::Cluster cluster(dist::Topology{1, 2});
  EXPECT_THROW((void)lasso_solve_distributed(cluster, p.a, bad_c, p.y, {}),
               std::invalid_argument);
}

class DistLassoTest : public ::testing::TestWithParam<dist::Topology> {};

// The distributed solver against the serial one on a 30 x 100 problem
// transformed at `atoms` = L: L <= M runs the partitioned-D Gram step,
// L > M the replicated-D one.
void expect_matches_serial(la::Index atoms, const dist::Topology& topology) {
  data::SubspaceModelConfig dc;
  dc.ambient_dim = 30;
  dc.num_columns = 100;
  dc.num_subspaces = 4;
  dc.subspace_dim = 3;
  dc.seed = 135;
  const la::Matrix a = data::make_union_of_subspaces(dc).a;
  la::Rng rng(6);
  la::Vector y(30);
  rng.fill_gaussian(y);

  core::ExdConfig exd_config;
  exd_config.dictionary_size = atoms;
  exd_config.tolerance = 0.05;
  const core::ExdResult exd = core::exd_transform(a, exd_config);

  LassoConfig config;
  config.lambda = 0.01;
  config.max_iterations = 60;
  config.tolerance = 1e-9;
  config.objective_every = 0;

  TransformedGramOperator op(exd.dictionary, exd.coefficients);
  const LassoResult serial = lasso_solve(op, y, config);
  const dist::Cluster cluster(topology);
  const DistLassoResult distributed =
      lasso_solve_distributed(cluster, exd.dictionary, exd.coefficients, y, config);

  EXPECT_EQ(distributed.iterations, serial.iterations);
  for (std::size_t i = 0; i < serial.x.size(); ++i) {
    EXPECT_NEAR(distributed.x[i], serial.x[i], 1e-7) << topology.name();
  }
  EXPECT_NEAR(distributed.final_objective, serial.final_objective, 1e-7);
  EXPECT_GT(distributed.stats.total_flops(), 0u);
}

TEST_P(DistLassoTest, MatchesSerialSolver) {
  expect_matches_serial(25, GetParam());  // L <= M
}

TEST_P(DistLassoTest, MatchesSerialSolverWhenLExceedsM) {
  expect_matches_serial(45, GetParam());  // L > M
}

INSTANTIATE_TEST_SUITE_P(Topologies, DistLassoTest,
                         ::testing::Values(dist::Topology{1, 1},
                                           dist::Topology{1, 4},
                                           dist::Topology{2, 3}));

}  // namespace
}  // namespace extdict::solvers
