#include "core/dist_gram.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "core/exd.hpp"
#include "core/gram_operator.hpp"
#include "data/subspace.hpp"
#include "la/blas.hpp"
#include "la/random.hpp"
#include "solvers/lasso.hpp"
#include "solvers/power_method.hpp"

namespace extdict::core {
namespace {

struct Problem {
  Matrix a;
  ExdResult exd;
};

Problem make_problem(Index l, Real eps = 0.05) {
  data::SubspaceModelConfig config;
  config.ambient_dim = 36;
  config.num_columns = 180;
  config.num_subspaces = 5;
  config.subspace_dim = 4;
  config.seed = 81;
  Problem p;
  p.a = data::make_union_of_subspaces(config).a;
  ExdConfig exd;
  exd.dictionary_size = l;
  exd.tolerance = eps;
  exd.seed = 7;
  p.exd = exd_transform(p.a, exd);
  return p;
}

// The serial reference of the iterated normalised update that
// dist_gram_apply implements.
la::Vector serial_reference(const GramOperator& op, la::Vector x, int iterations) {
  la::Vector y(x.size());
  for (int it = 0; it < iterations; ++it) {
    op.apply(x, y);
    const Real norm = la::nrm2(y);
    for (std::size_t i = 0; i < x.size(); ++i) x[i] = norm > 0 ? y[i] / norm : 0;
  }
  return x;
}

TEST(ColumnPartition, BalancedWithinOneColumn) {
  const ColumnPartition part{103, 8};
  Index total = 0;
  for (Index r = 0; r < 8; ++r) {
    const Index c = part.count(r);
    EXPECT_GE(c, 103 / 8);
    EXPECT_LE(c, 103 / 8 + 1);
    total += c;
    if (r > 0) {
      EXPECT_EQ(part.begin(r), part.end(r - 1));  // contiguous
    }
  }
  EXPECT_EQ(total, 103);
}

class DistGramRankTest : public ::testing::TestWithParam<dist::Topology> {};

TEST_P(DistGramRankTest, MatchesSerialOperatorAcrossRankCounts) {
  const Problem p = make_problem(40);  // Case 1: L <= M
  const dist::Cluster cluster(GetParam());
  la::Rng rng(5);
  la::Vector x0(180);
  rng.fill_gaussian(x0);

  const DistGramResult dist = dist_gram_apply(cluster, p.exd.dictionary,
                                              p.exd.coefficients, x0, 3);
  TransformedGramOperator op(p.exd.dictionary, p.exd.coefficients);
  const la::Vector expected = serial_reference(op, x0, 3);
  ASSERT_EQ(dist.y.size(), expected.size());
  for (std::size_t i = 0; i < expected.size(); ++i) {
    EXPECT_NEAR(dist.y[i], expected[i], 1e-9) << GetParam().name();
  }
}

INSTANTIATE_TEST_SUITE_P(Topologies, DistGramRankTest,
                         ::testing::Values(dist::Topology{1, 1},
                                           dist::Topology{1, 3},
                                           dist::Topology{2, 2},
                                           dist::Topology{2, 4}));

TEST(DistGram, Case2MatchesSerialToo) {
  const Problem p = make_problem(60);  // L=60 > M=36: Case 2
  const dist::Cluster cluster(dist::Topology{2, 2});
  la::Rng rng(6);
  la::Vector x0(180);
  rng.fill_gaussian(x0);
  const DistGramResult dist = dist_gram_apply(cluster, p.exd.dictionary,
                                              p.exd.coefficients, x0, 2);
  TransformedGramOperator op(p.exd.dictionary, p.exd.coefficients);
  const la::Vector expected = serial_reference(op, x0, 2);
  for (std::size_t i = 0; i < expected.size(); ++i) {
    EXPECT_NEAR(dist.y[i], expected[i], 1e-9);
  }
}

TEST(DistGram, ForcedCasesAgreeWithEachOther) {
  const Problem p = make_problem(36);  // L == M: both cases legal
  const dist::Cluster cluster(dist::Topology{1, 4});
  la::Rng rng(7);
  la::Vector x0(180);
  rng.fill_gaussian(x0);
  const auto case1 = dist_gram_apply(cluster, p.exd.dictionary,
                                     p.exd.coefficients, x0, 2, GramStrategy::kRootDictionary);
  const auto case2 = dist_gram_apply(cluster, p.exd.dictionary,
                                     p.exd.coefficients, x0, 2, GramStrategy::kReplicatedDictionary);
  for (std::size_t i = 0; i < case1.y.size(); ++i) {
    EXPECT_NEAR(case1.y[i], case2.y[i], 1e-9);
  }
}

TEST(DistGram, CommunicationScalesWithMinML) {
  // Per iteration on P ranks, the reduce+broadcast volume is O(min(M,L));
  // Case 1 moves L-vectors, Case 2 moves M-vectors.
  const Problem p = make_problem(20);  // L=20 < M=36
  const dist::Cluster cluster(dist::Topology{1, 4});
  la::Vector x0(180, 1.0);

  const auto r1 = dist_gram_apply(cluster, p.exd.dictionary, p.exd.coefficients,
                                  x0, 1, GramStrategy::kRootDictionary);
  // Tree reduce + tree broadcast move exactly 2*(P-1)*L words, plus the
  // scalar normalisation and final gather traffic.
  const std::uint64_t collective_words = 2u * 3 * 20;
  EXPECT_GE(r1.stats.total_words(), collective_words);
  EXPECT_LE(r1.stats.total_words(), collective_words + 4 * 180 + 64);
}

TEST(DistGram, Case1OnlyRootChargesDictionaryMemory) {
  const Problem p = make_problem(30);
  const dist::Cluster cluster(dist::Topology{1, 4});
  la::Vector x0(180, 1.0);
  const auto r = dist_gram_apply(cluster, p.exd.dictionary, p.exd.coefficients,
                                 x0, 1, GramStrategy::kRootDictionary);
  const std::uint64_t dict_words = 36u * 30;
  EXPECT_GE(r.stats.per_rank[0].peak_memory_words, dict_words);
  for (std::size_t rank = 1; rank < 4; ++rank) {
    EXPECT_LT(r.stats.per_rank[rank].peak_memory_words, dict_words);
  }
}

TEST(DistGram, Case2EveryRankChargesDictionaryMemory) {
  const Problem p = make_problem(60);
  const dist::Cluster cluster(dist::Topology{1, 4});
  la::Vector x0(180, 1.0);
  const auto r = dist_gram_apply(cluster, p.exd.dictionary, p.exd.coefficients,
                                 x0, 1, GramStrategy::kReplicatedDictionary);
  const std::uint64_t dict_words = 36u * 60;
  for (const auto& c : r.stats.per_rank) {
    EXPECT_GE(c.peak_memory_words, dict_words);
  }
}

TEST(DistGram, FlopsBalancedAcrossRanks) {
  const Problem p = make_problem(40);
  const dist::Cluster cluster(dist::Topology{1, 4});
  la::Vector x0(180, 1.0);
  const auto r = dist_gram_apply(cluster, p.exd.dictionary, p.exd.coefficients,
                                 x0, 2, GramStrategy::kRootDictionary);
  // Non-root ranks do only the sparse work; their FLOPs should be within a
  // factor ~3 of each other (columns are load balanced, nnz varies).
  std::uint64_t lo = UINT64_MAX, hi = 0;
  for (std::size_t rank = 1; rank < 4; ++rank) {
    lo = std::min(lo, r.stats.per_rank[rank].flops);
    hi = std::max(hi, r.stats.per_rank[rank].flops);
  }
  EXPECT_LT(hi, 3 * lo + 1000);
}

TEST(DistGramOriginal, MatchesDenseSerial) {
  const Problem p = make_problem(40);
  const dist::Cluster cluster(dist::Topology{2, 2});
  la::Rng rng(8);
  la::Vector x0(180);
  rng.fill_gaussian(x0);
  const auto dist = dist_gram_apply_original(cluster, p.a, x0, 3);
  DenseGramOperator op(p.a);
  const la::Vector expected = serial_reference(op, x0, 3);
  for (std::size_t i = 0; i < expected.size(); ++i) {
    EXPECT_NEAR(dist.y[i], expected[i], 1e-9);
  }
}

TEST(DistGramOriginal, FlopsMatchTwoMNPerIteration) {
  const Problem p = make_problem(40);
  const dist::Cluster cluster(dist::Topology{1, 2});
  la::Vector x0(180, 1.0);
  const auto r = dist_gram_apply_original(cluster, p.a, x0, 1);
  // 4*M*N multiply-adds total (2MN in, 2MN out), plus normalisation.
  const std::uint64_t expected = 4u * 36 * 180;
  EXPECT_GE(r.stats.total_flops(), expected);
  EXPECT_LE(r.stats.total_flops(), expected + 8 * 180 + 64);
}

TEST(DistGram, InputValidation) {
  const Problem p = make_problem(30);
  const dist::Cluster cluster(dist::Topology{1, 2});
  la::Vector wrong(11);
  EXPECT_THROW(dist_gram_apply(cluster, p.exd.dictionary, p.exd.coefficients,
                               wrong, 1),
               std::invalid_argument);
}

class PartitionedStrategyTest : public ::testing::TestWithParam<dist::Topology> {};

TEST_P(PartitionedStrategyTest, MatchesSerialOperator) {
  const Problem p = make_problem(30);
  const dist::Cluster cluster(GetParam());
  la::Rng rng(9);
  la::Vector x0(180);
  rng.fill_gaussian(x0);
  const auto dist = dist_gram_apply(cluster, p.exd.dictionary,
                                    p.exd.coefficients, x0, 3,
                                    GramStrategy::kPartitionedDictionary);
  TransformedGramOperator op(p.exd.dictionary, p.exd.coefficients);
  const la::Vector expected = serial_reference(op, x0, 3);
  for (std::size_t i = 0; i < expected.size(); ++i) {
    EXPECT_NEAR(dist.y[i], expected[i], 1e-9) << GetParam().name();
  }
}

INSTANTIATE_TEST_SUITE_P(Topologies, PartitionedStrategyTest,
                         ::testing::Values(dist::Topology{1, 1},
                                           dist::Topology{1, 3},
                                           dist::Topology{2, 4}));

TEST(DistGram, PartitionedSplitsDictionaryMemoryAndFlops) {
  const Problem p = make_problem(30);
  const dist::Cluster cluster(dist::Topology{1, 4});
  la::Vector x0(180, 1.0);
  const auto r = dist_gram_apply(cluster, p.exd.dictionary, p.exd.coefficients,
                                 x0, 1, GramStrategy::kPartitionedDictionary);
  const std::uint64_t dict_words = 36u * 30;
  // Each rank holds its quarter of D (plus its C/x slices).
  for (const auto& c : r.stats.per_rank) {
    EXPECT_GE(c.peak_memory_words, dict_words / 4);
  }
  // Versus the replicated layout, the dictionary share of the footprint
  // shrinks by ~P on every rank.
  const auto repl = dist_gram_apply(cluster, p.exd.dictionary,
                                    p.exd.coefficients, x0, 1,
                                    GramStrategy::kReplicatedDictionary);
  for (std::size_t rank = 0; rank < 4; ++rank) {
    EXPECT_LE(r.stats.per_rank[rank].peak_memory_words + dict_words * 3 / 4,
              repl.stats.per_rank[rank].peak_memory_words + dict_words / 8);
  }
  // Dense work is spread: every rank records the 4*(M/P)*L dictionary flops.
  for (const auto& c : r.stats.per_rank) {
    EXPECT_GE(c.flops, 4u * 9 * 30);
  }
}

TEST(DistGram, AutoPrefersPartitionedOverRootOnManyRanks) {
  // The whole point of the partitioned strategy: the slowest rank's FLOPs
  // drop by ~P for the dense part compared to the root-dictionary layout.
  const Problem p = make_problem(36);
  const dist::Cluster cluster(dist::Topology{1, 4});
  la::Vector x0(180, 1.0);
  const auto root = dist_gram_apply(cluster, p.exd.dictionary,
                                    p.exd.coefficients, x0, 1,
                                    GramStrategy::kRootDictionary);
  const auto part = dist_gram_apply(cluster, p.exd.dictionary,
                                    p.exd.coefficients, x0, 1,
                                    GramStrategy::kPartitionedDictionary);
  EXPECT_LT(part.stats.max_rank_flops(), root.stats.max_rank_flops());
}

TEST(DistGram, SolversMeterTheSameStepAsDistGramApply) {
  // LASSO, PCA and dist_gram_apply run one DistGramStep under kAuto, so
  // their per-iteration update FLOPs agree exactly, on either side of the
  // L = M dispatch boundary (partitioned-D below, replicated-D above).
  const dist::Cluster cluster(dist::Topology{1, 4});
  for (const Index l : {Index{30}, Index{60}}) {  // M = 36
    const Problem p = make_problem(l);
    const Matrix& d = p.exd.dictionary;
    const CscMatrix& c = p.exd.coefficients;

    solvers::LassoConfig lasso;
    lasso.lambda = 1e-3;
    lasso.max_iterations = 7;
    lasso.tolerance = 0;  // fixed iteration count
    lasso.objective_every = 0;
    const la::Vector y(p.a.col(0).begin(), p.a.col(0).end());
    const auto lasso_run = solvers::lasso_solve_distributed(cluster, d, c, y, lasso);

    solvers::PowerConfig pca;
    pca.num_eigenpairs = 2;
    pca.max_iterations = 5;
    pca.tolerance = 0;
    const auto pca_run = solvers::power_method_distributed(cluster, d, c, pca);

    const la::Vector x0(180, 1.0);
    const std::uint64_t per_iteration =
        dist_gram_apply(cluster, d, c, x0, 3).update_flops_per_iteration();

    ASSERT_EQ(lasso_run.iterations, 7) << "L=" << l;
    ASSERT_EQ(pca_run.total_iterations(), 10) << "L=" << l;
    EXPECT_GT(per_iteration, 0u);
    EXPECT_EQ(lasso_run.update_flops, 7 * per_iteration) << "L=" << l;
    EXPECT_EQ(pca_run.update_flops, 10 * per_iteration) << "L=" << l;
  }
}

}  // namespace
}  // namespace extdict::core
