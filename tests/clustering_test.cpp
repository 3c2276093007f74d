#include "core/subspace_clustering.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <set>

#include "core/exd.hpp"
#include "data/subspace.hpp"

namespace extdict::core {
namespace {

data::SubspaceData disjoint_subspaces(Index ns = 4, std::uint64_t seed = 401) {
  data::SubspaceModelConfig config;
  config.ambient_dim = 60;
  config.num_columns = 240;
  config.num_subspaces = ns;
  config.subspace_dim = 4;
  config.noise_stddev = 0;  // clean separation
  config.seed = seed;
  return data::make_union_of_subspaces(config);
}

TEST(RandIndex, AgreementMetricBasics) {
  const std::vector<Index> a = {0, 0, 1, 1};
  EXPECT_EQ(rand_index(a, a), 1.0);
  const std::vector<Index> relabeled = {7, 7, 3, 3};
  EXPECT_EQ(rand_index(a, relabeled), 1.0);  // only the partition matters
  const std::vector<Index> split = {0, 1, 2, 3};
  // Pairs: a has 2 same-pairs of 6; split has none -> 4/6 agreement.
  EXPECT_NEAR(rand_index(a, split), 4.0 / 6.0, 1e-12);
  const std::vector<Index> wrong_size = {0};
  EXPECT_THROW((void)rand_index(a, wrong_size), std::invalid_argument);
}

TEST(Clustering, RecoversDisjointSubspaces) {
  const auto data = disjoint_subspaces();
  ExdConfig config;
  config.dictionary_size = 120;  // ample sampling of all 4 subspaces
  config.tolerance = 1e-6;
  config.seed = 5;
  const ExdResult exd = exd_transform(data.a, config);
  const ClusteringResult r = cluster_by_codes(exd);
  // Atom columns that code as pure self-loops and are used by nobody else
  // stay singletons, so a handful of extra clusters beyond the 4 true ones
  // is expected; pairwise agreement must still be near-perfect and the 4
  // dominant clusters must cover almost all columns.
  EXPECT_GE(r.num_clusters, 4);
  EXPECT_GE(rand_index(r.labels, data.membership), 0.97);
  std::vector<Index> sizes(static_cast<std::size_t>(r.num_clusters), 0);
  for (const Index label : r.labels) ++sizes[static_cast<std::size_t>(label)];
  std::sort(sizes.begin(), sizes.end(), std::greater<>());
  Index covered = 0;
  for (Index i = 0; i < std::min<Index>(4, r.num_clusters); ++i) {
    covered += sizes[static_cast<std::size_t>(i)];
  }
  EXPECT_GE(covered, 240 * 9 / 10);
}

TEST(Clustering, LabelsAreCompactAndComplete) {
  const auto data = disjoint_subspaces(3, 402);
  ExdConfig config;
  config.dictionary_size = 90;
  config.tolerance = 1e-6;
  const ExdResult exd = exd_transform(data.a, config);
  const ClusteringResult r = cluster_by_codes(exd);
  ASSERT_EQ(r.labels.size(), 240u);
  std::set<Index> used(r.labels.begin(), r.labels.end());
  EXPECT_EQ(static_cast<Index>(used.size()), r.num_clusters);
  EXPECT_EQ(*used.begin(), 0);
  EXPECT_EQ(*used.rbegin(), r.num_clusters - 1);
}

TEST(Clustering, ThresholdPrunesNoiseLeakage) {
  // With noise, tiny cross-subspace coefficients appear; a permissive
  // threshold merges everything, the default keeps subspaces apart.
  data::SubspaceModelConfig config;
  config.ambient_dim = 60;
  config.num_columns = 240;
  config.num_subspaces = 4;
  config.subspace_dim = 4;
  // Noise floor (stddev * sqrt(M) ~ 0.015) safely below the coding
  // tolerance, so leakage stays incidental rather than structural.
  config.noise_stddev = 0.002;
  config.seed = 403;
  const auto data = data::make_union_of_subspaces(config);

  ExdConfig exd_config;
  exd_config.dictionary_size = 120;
  exd_config.tolerance = 0.05;
  const ExdResult exd = exd_transform(data.a, exd_config);

  ClusteringConfig strict;
  strict.relative_weight_threshold = 0.1;
  const ClusteringResult rs = cluster_by_codes(exd, strict);
  ClusteringConfig permissive;
  permissive.relative_weight_threshold = 0.0;
  const ClusteringResult rp = cluster_by_codes(exd, permissive);
  EXPECT_GE(rs.num_clusters, rp.num_clusters);
  EXPECT_GE(rand_index(rs.labels, data.membership), 0.9);
}

TEST(Clustering, RequiresAtomProvenance) {
  const auto data = disjoint_subspaces(2, 404);
  ExdConfig config;
  config.dictionary_size = 60;
  config.tolerance = 1e-6;
  ExdResult exd = exd_transform(data.a, config);
  exd.atom_indices.clear();  // e.g. a transform built from a foreign dictionary
  EXPECT_THROW(cluster_by_codes(exd), std::invalid_argument);
}

}  // namespace
}  // namespace extdict::core
