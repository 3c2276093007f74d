#include "dist/platform.hpp"

#include <gtest/gtest.h>

namespace extdict::dist {
namespace {

TEST(PlatformSpec, PresetsCoverPaperConfigs) {
  const auto specs = paper_platforms();
  ASSERT_EQ(specs.size(), 4u);
  EXPECT_EQ(specs[0].name, "idataplex-1x1");
  EXPECT_EQ(specs[3].topology.total(), 64);
}

TEST(PlatformSpec, RbfRatiosArePositiveAndInterconnectBound) {
  PlatformSpec single = PlatformSpec::idataplex({1, 4});
  PlatformSpec multi = PlatformSpec::idataplex({8, 8});
  EXPECT_GT(single.r_time_bf(), 0.0);
  // Crossing nodes is more expensive per word than shared memory.
  EXPECT_GT(multi.r_time_bf(), single.r_time_bf());
  EXPECT_GT(multi.r_energy_bf(), single.r_energy_bf());
}

TEST(PlatformSpec, ModeledTimeTakesSlowestRank) {
  PlatformSpec spec = PlatformSpec::idataplex({1, 2});
  RunStats stats;
  stats.per_rank.resize(2);
  stats.per_rank[0].flops = 1000;
  stats.per_rank[1].flops = 4000;
  const double t = spec.modeled_seconds(stats);
  EXPECT_NEAR(t, 4000 / spec.flops_per_second, 1e-12);
}

TEST(PlatformSpec, ModeledTimeChargesCommunication) {
  PlatformSpec spec = PlatformSpec::idataplex({2, 1});
  RunStats compute_only, with_comm;
  compute_only.per_rank.resize(2);
  with_comm.per_rank.resize(2);
  compute_only.per_rank[0].flops = 1000;
  with_comm.per_rank[0].flops = 1000;
  with_comm.per_rank[0].words_sent_inter = 100000;
  with_comm.per_rank[0].messages_sent = 1;
  EXPECT_GT(spec.modeled_seconds(with_comm), spec.modeled_seconds(compute_only));
}

TEST(PlatformSpec, ModeledEnergyChargesWireOnce) {
  // The same transfer accounted on both endpoints must not double the
  // energy: total = words * joules_per_word.
  PlatformSpec spec = PlatformSpec::idataplex({2, 1});
  RunStats stats;
  stats.per_rank.resize(2);
  stats.per_rank[0].words_sent_inter = 1000;
  stats.per_rank[1].words_recv_inter = 1000;
  EXPECT_NEAR(spec.modeled_joules(stats), 1000 * spec.joules_per_inter_word,
              1e-12);
}

}  // namespace
}  // namespace extdict::dist
