#include "core/dist_exd.hpp"

#include <gtest/gtest.h>

#include <algorithm>

#include "core/dist_gram.hpp"
#include "data/subspace.hpp"
#include "la/blas.hpp"
#include "sparsecoding/batch_omp.hpp"

namespace extdict::core {
namespace {

Matrix test_data(std::uint64_t seed = 601) {
  data::SubspaceModelConfig config;
  config.ambient_dim = 40;
  config.num_columns = 200;
  config.num_subspaces = 5;
  config.subspace_dim = 4;
  config.seed = seed;
  return data::make_union_of_subspaces(config).a;
}

class DistExdTest : public ::testing::TestWithParam<dist::Topology> {};

TEST_P(DistExdTest, BitIdenticalToSerialTransform) {
  const Matrix a = test_data();
  ExdConfig config;
  config.dictionary_size = 60;
  config.tolerance = 0.05;
  config.seed = 11;

  const ExdResult serial = exd_transform(a, config);
  const dist::Cluster cluster(GetParam());
  const DistExdResult dist = exd_transform_distributed(cluster, a, config);

  EXPECT_EQ(dist.exd.atom_indices, serial.atom_indices);
  EXPECT_EQ(dist.exd.coefficients.nnz(), serial.coefficients.nnz());
  EXPECT_EQ(la::max_abs_diff(dist.exd.dictionary, serial.dictionary), 0.0);
  EXPECT_EQ(la::max_abs_diff(dist.exd.coefficients.to_dense(),
                             serial.coefficients.to_dense()),
            0.0);
  EXPECT_DOUBLE_EQ(dist.exd.transformation_error, serial.transformation_error);
}

INSTANTIATE_TEST_SUITE_P(Topologies, DistExdTest,
                         ::testing::Values(dist::Topology{1, 1},
                                           dist::Topology{1, 3},
                                           dist::Topology{2, 2},
                                           dist::Topology{2, 4}));

TEST(DistExd, BroadcastVolumeCoversDictionary) {
  // Step 1 broadcasts the index set (L words at half weight -> L/...) and
  // the M x L dictionary through the tree: (P-1) * M * L words dominate.
  const Matrix a = test_data(602);
  ExdConfig config;
  config.dictionary_size = 30;
  config.tolerance = 0.1;
  const dist::Cluster cluster(dist::Topology{1, 4});
  const DistExdResult r = exd_transform_distributed(cluster, a, config);
  const std::uint64_t dict_words = 3u * 40 * 30;  // (P-1) * M * L
  EXPECT_GE(r.stats.total_words(), dict_words);
}

TEST(DistExd, CodingWorkIsDistributed) {
  const Matrix a = test_data(603);
  ExdConfig config;
  config.dictionary_size = 50;
  config.tolerance = 0.05;
  const dist::Cluster cluster(dist::Topology{1, 4});
  const DistExdResult r = exd_transform_distributed(cluster, a, config);
  // Every rank performed coding work (Gram precompute + its block).
  for (const auto& c : r.stats.per_rank) {
    EXPECT_GT(c.flops, 0u);
  }
  // The per-column coding share (total minus the replicated Gram
  // precompute) is balanced within ~3x across ranks.
  const std::uint64_t gram_flops = 2u * 40 * 50 * 50;
  std::uint64_t lo = UINT64_MAX, hi = 0;
  for (const auto& c : r.stats.per_rank) {
    const std::uint64_t coding = c.flops - gram_flops;
    lo = std::min(lo, coding);
    hi = std::max(hi, coding);
  }
  EXPECT_LT(hi, 3 * lo + 10000);
}

TEST(DistExd, RankFlopsAreTheMeteredEncodeCost) {
  // Each rank charges its Gram precompute plus the metered `code.flops` of
  // every column it codes. The closed form `encode_flops(nnz)` is only the
  // clean-run value: a zero column stops after <x, x> (2M FLOPs, where the
  // model says 2M + 2ML), so every rank gets one.
  Matrix a = test_data(605);
  const Index p = 4;
  const ColumnPartition part{a.cols(), p};
  for (Index r = 0; r < p; ++r) {
    const auto column = a.col(part.begin(r) + 3);
    std::fill(column.begin(), column.end(), la::Real{0});
  }
  ExdConfig config;
  config.dictionary_size = 50;
  config.tolerance = 0.05;
  const dist::Cluster cluster(dist::Topology{1, p});
  const DistExdResult r = exd_transform_distributed(cluster, a, config);

  sparsecoding::OmpConfig omp;
  omp.tolerance = config.tolerance;
  omp.max_atoms = config.max_atoms;
  const sparsecoding::BatchOmp coder(r.exd.dictionary, omp);
  const std::uint64_t gram_flops = 2u * 40 * 50 * 50;
  ASSERT_EQ(r.stats.per_rank.size(), static_cast<std::size_t>(p));
  for (Index rank = 0; rank < p; ++rank) {
    std::uint64_t coding = 0;
    for (Index j = part.begin(rank); j < part.end(rank); ++j) {
      coding += coder.encode(a.col(j)).flops;
    }
    EXPECT_EQ(r.stats.per_rank[static_cast<std::size_t>(rank)].flops,
              gram_flops + coding)
        << "rank " << rank;
  }
}

TEST(DistExd, Validation) {
  const Matrix a = test_data(604);
  const dist::Cluster cluster(dist::Topology{1, 2});
  ExdConfig config;
  config.dictionary_size = 0;
  EXPECT_THROW(exd_transform_distributed(cluster, a, config),
               std::invalid_argument);
  config.dictionary_size = a.cols() + 1;
  EXPECT_THROW(exd_transform_distributed(cluster, a, config),
               std::invalid_argument);
}

}  // namespace
}  // namespace extdict::core
