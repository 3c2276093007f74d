#include "core/alpha_profile.hpp"

#include <gtest/gtest.h>

#include "data/subspace.hpp"

namespace extdict::core {
namespace {

Matrix test_data(Index n = 400, std::uint64_t seed = 51) {
  data::SubspaceModelConfig config;
  config.ambient_dim = 40;
  config.num_columns = n;
  config.num_subspaces = 6;
  config.subspace_dim = 4;
  config.seed = seed;
  return data::make_union_of_subspaces(config).a;
}

TEST(AlphaProfile, GridPointsComeBackInOrder) {
  const Matrix a = test_data();
  AlphaProfileConfig config;
  config.l_grid = {40, 80, 160};
  config.tolerance = 0.1;
  const AlphaProfile profile = estimate_alpha_profile(a, config);
  ASSERT_EQ(profile.points.size(), 3u);
  EXPECT_EQ(profile.points[0].l, 40);
  EXPECT_EQ(profile.points[2].l, 160);
  EXPECT_EQ(profile.columns_used, 400);
}

TEST(AlphaProfile, FeasibilityReflectsLmin) {
  // With Ns*K = 24 intrinsic dimensions, a tiny L cannot meet a tight
  // tolerance but a large L can; min_feasible_l sits between.
  const Matrix a = test_data();
  AlphaProfileConfig config;
  config.l_grid = {6, 12, 80, 200};
  config.tolerance = 0.05;
  const AlphaProfile profile = estimate_alpha_profile(a, config);
  EXPECT_FALSE(profile.points[0].feasible);
  EXPECT_TRUE(profile.points[3].feasible);
  const Index lmin = profile.min_feasible_l();
  EXPECT_GT(lmin, 6);
  EXPECT_LE(lmin, 200);
}

TEST(AlphaProfile, AlphaDecreasesPastLmin) {
  const Matrix a = test_data();
  AlphaProfileConfig config;
  config.l_grid = {60, 120, 240};
  config.tolerance = 0.1;
  const AlphaProfile profile = estimate_alpha_profile(a, config);
  for (const auto& p : profile.points) ASSERT_TRUE(p.feasible);
  EXPECT_LE(profile.points[2].alpha_mean, profile.points[0].alpha_mean * 1.1);
}

TEST(AlphaProfile, VarianceBarsSmallAcrossDraws) {
  // Fig. 4: dispersion across dictionary re-draws is small (<4% in the
  // paper's example; we allow a looser 25% at this tiny scale).
  const Matrix a = test_data();
  AlphaProfileConfig config;
  config.l_grid = {120};
  config.tolerance = 0.1;
  config.trials = 5;
  const AlphaProfile profile = estimate_alpha_profile(a, config);
  const auto& p = profile.points[0];
  EXPECT_LT(p.alpha_stddev, 0.25 * p.alpha_mean);
}

TEST(AlphaProfile, AtThrowsForUnknownL) {
  const Matrix a = test_data(150);
  AlphaProfileConfig config;
  config.l_grid = {50};
  const AlphaProfile profile = estimate_alpha_profile(a, config);
  EXPECT_NO_THROW((void)profile.at(50));
  EXPECT_THROW((void)profile.at(51), std::out_of_range);
}

TEST(AlphaProfile, BadConfigThrows) {
  const Matrix a = test_data(100);
  AlphaProfileConfig config;
  EXPECT_THROW(estimate_alpha_profile(a, config), std::invalid_argument);
  config.l_grid = {10};
  config.trials = 0;
  EXPECT_THROW(estimate_alpha_profile(a, config), std::invalid_argument);
}

TEST(AlphaProfile, GridPointsBeyondSubsetAreSkipped) {
  const Matrix a = test_data(100);
  AlphaProfileConfig config;
  config.l_grid = {40, 5000};
  const AlphaProfile profile = estimate_alpha_profile(a, config);
  EXPECT_EQ(profile.points.size(), 1u);
}

TEST(AlphaProfileSubsets, ConvergesToFullDataProfile) {
  // §VII: E[alpha(L, A_s)] == E[alpha(L, A)] for union-of-subspace data; the
  // subset estimate at 25-50% of the data must be close to the full-data
  // value (the paper reports <= 14% at 10% of the data).
  const Matrix a = test_data(600, 77);
  AlphaProfileConfig config;
  config.l_grid = {80, 150};
  config.tolerance = 0.1;
  config.trials = 2;
  const AlphaProfile full = estimate_alpha_profile(a, config);
  const AlphaProfile sub = estimate_alpha_profile_subsets(
      a, config, {150, 300, 600}, /*convergence_threshold=*/0.10);
  EXPECT_LE(sub.columns_used, 600);
  for (const auto& p : sub.points) {
    if (!p.feasible) continue;
    const auto& q = full.at(p.l);
    EXPECT_NEAR(p.alpha_mean, q.alpha_mean, 0.35 * q.alpha_mean)
        << "L=" << p.l << " subset=" << sub.columns_used;
  }
}

TEST(AlphaProfileSubsets, StopsEarlyWhenStable) {
  const Matrix a = test_data(600, 78);
  AlphaProfileConfig config;
  config.l_grid = {100};
  config.tolerance = 0.1;
  // A generous threshold must stop at the second subset.
  const AlphaProfile profile =
      estimate_alpha_profile_subsets(a, config, {100, 200, 600}, 0.9);
  EXPECT_EQ(profile.columns_used, 200);
}

TEST(AlphaProfileSubsets, InputValidation) {
  const Matrix a = test_data(100);
  AlphaProfileConfig config;
  config.l_grid = {20};
  EXPECT_THROW(estimate_alpha_profile_subsets(a, config, {}), std::invalid_argument);
  EXPECT_THROW(estimate_alpha_profile_subsets(a, config, {50, 20}),
               std::invalid_argument);
}

}  // namespace
}  // namespace extdict::core
