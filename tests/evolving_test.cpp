#include "core/evolving.hpp"

#include <gtest/gtest.h>

#include <limits>

#include "core/exd.hpp"
#include "data/subspace.hpp"
#include "la/blas.hpp"
#include "util/contracts.hpp"

namespace extdict::core {
namespace {

data::SubspaceData make_base(std::uint64_t seed = 91) {
  data::SubspaceModelConfig config;
  config.ambient_dim = 40;
  config.num_columns = 200;
  config.num_subspaces = 4;
  config.subspace_dim = 4;
  config.seed = seed;
  return data::make_union_of_subspaces(config);
}

// New columns drawn from the SAME subspaces (expressible by the old D).
Matrix same_structure_columns(const data::SubspaceData& base, Index count,
                              std::uint64_t seed) {
  la::Rng rng(seed);
  Matrix out(base.a.rows(), count);
  la::Vector coeff(static_cast<std::size_t>(base.bases[0].cols()));
  for (Index j = 0; j < count; ++j) {
    const auto& basis = base.bases[static_cast<std::size_t>(
        rng.uniform_index(0, static_cast<Index>(base.bases.size()) - 1))];
    rng.fill_gaussian(coeff);
    auto col = out.col(j);
    std::fill(col.begin(), col.end(), Real{0});
    la::gemv(1, basis, coeff, 0, col);
  }
  out.normalize_columns();
  return out;
}

// Columns from entirely fresh subspaces (NOT expressible by the old D).
Matrix new_structure_columns(Index rows, Index count, std::uint64_t seed) {
  data::SubspaceModelConfig config;
  config.ambient_dim = rows;
  config.num_columns = count;
  config.num_subspaces = 2;
  config.subspace_dim = 4;
  config.seed = seed + 1000;
  return data::make_union_of_subspaces(config).a;
}

ExdResult base_transform(const Matrix& a) {
  ExdConfig config;
  config.dictionary_size = 80;
  config.tolerance = 0.05;
  config.seed = 2;
  return exd_transform(a, config);
}

TEST(Evolve, SameStructureColumnsReuseDictionary) {
  const auto base = make_base();
  ExdResult exd = base_transform(base.a);
  const Index old_l = exd.dictionary.cols();

  const Matrix a_new = same_structure_columns(base, 40, 5);
  ExdConfig config;
  config.tolerance = 0.05;
  config.dictionary_size = 10;
  const EvolveReport report = evolve(exd, a_new, config);

  EXPECT_EQ(report.new_columns, 40);
  EXPECT_FALSE(report.dictionary_extended);
  EXPECT_EQ(report.failed_columns, 0);
  // Nothing failed → nothing was re-encoded, and every column expressed.
  EXPECT_EQ(report.expressed_columns, 40);
  EXPECT_EQ(report.reencoded_columns, 0);
  EXPECT_EQ(report.unresolved_columns, 0);
  EXPECT_LE(report.max_post_extension_residual, 0.05 * 1.001);
  EXPECT_EQ(exd.dictionary.cols(), old_l);
  EXPECT_EQ(exd.coefficients.cols(), 240);
}

TEST(Evolve, ReportCountsReencodedColumnsNotSuccesses) {
  // Regression: reencoded_columns used to carry the INVERTED count — the
  // pass-1 successes that were never touched by pass 2. It now counts
  // exactly the failing columns that pass 2 re-coded, expressed + failed
  // partitions the batch, and the post-extension sweep reports the
  // achieved quality instead of silently absorbing still-bad columns.
  const auto base = make_base(97);
  ExdResult exd = base_transform(base.a);
  const Matrix a_new = new_structure_columns(40, 50, 97);
  ExdConfig config;
  config.tolerance = 0.05;
  config.dictionary_size = 25;
  const EvolveReport report = evolve(exd, a_new, config);

  EXPECT_EQ(report.new_columns, 50);
  EXPECT_TRUE(report.dictionary_extended);
  EXPECT_GT(report.failed_columns, 0);
  EXPECT_EQ(report.expressed_columns + report.failed_columns,
            report.new_columns);
  EXPECT_EQ(report.reencoded_columns, report.failed_columns);
  EXPECT_LE(report.unresolved_columns, report.failed_columns);
  EXPECT_GT(report.max_post_extension_residual, 0.0);
  if (report.unresolved_columns == 0) {
    // Everything resolved → the worst relative residual meets ε.
    EXPECT_LE(report.max_post_extension_residual, 0.05 * 1.001);
  }
}

TEST(Evolve, UpdatedTransformStillMeetsErrorBound) {
  const auto base = make_base(92);
  ExdResult exd = base_transform(base.a);
  const Matrix a_new = same_structure_columns(base, 30, 6);
  Matrix full = base.a;
  full.append_columns(a_new);

  ExdConfig config;
  config.tolerance = 0.05;
  config.dictionary_size = 10;
  (void)evolve(exd, a_new, config);
  const Real err = transformation_error(full, exd.dictionary, exd.coefficients);
  EXPECT_LE(err, 0.05 * 1.05);
}

TEST(Evolve, NewStructureExtendsDictionaryWithZeroPadding) {
  const auto base = make_base(93);
  ExdResult exd = base_transform(base.a);
  const Index old_l = exd.dictionary.cols();
  const auto old_nnz = exd.coefficients.nnz();

  const Matrix a_new = new_structure_columns(40, 50, 93);
  ExdConfig config;
  config.tolerance = 0.05;
  config.dictionary_size = 25;
  const EvolveReport report = evolve(exd, a_new, config);

  EXPECT_TRUE(report.dictionary_extended);
  EXPECT_GT(report.failed_columns, 0);
  EXPECT_GT(report.new_atoms, 0);
  EXPECT_EQ(exd.dictionary.cols(), old_l + report.new_atoms);
  EXPECT_EQ(exd.coefficients.rows(), old_l + report.new_atoms);
  EXPECT_EQ(exd.coefficients.cols(), 250);

  // Fig. 3 zero-padding: old columns did not gain entries in the new rows.
  for (Index j = 0; j < 5; ++j) {
    for (const Index row : exd.coefficients.col_rows(j)) {
      EXPECT_LT(row, old_l);
    }
  }
  EXPECT_GE(exd.coefficients.nnz(), old_nnz);
}

TEST(Evolve, ExtendedTransformExpressesBothOldAndNewData) {
  const auto base = make_base(94);
  ExdResult exd = base_transform(base.a);
  const Matrix a_new = new_structure_columns(40, 40, 94);
  Matrix full = base.a;
  full.append_columns(a_new);

  ExdConfig config;
  config.tolerance = 0.05;
  config.dictionary_size = 30;
  (void)evolve(exd, a_new, config);
  const Real err = transformation_error(full, exd.dictionary, exd.coefficients);
  EXPECT_LE(err, 0.05 * 1.10);
}

TEST(Evolve, EmptyBatchIsANoop) {
  const auto base = make_base(95);
  ExdResult exd = base_transform(base.a);
  const Index old_cols = exd.coefficients.cols();
  Matrix empty(40, 0);
  const EvolveReport report = evolve(exd, empty, {});
  EXPECT_EQ(report.new_columns, 0);
  EXPECT_EQ(exd.coefficients.cols(), old_cols);
}

TEST(Evolve, RowMismatchThrows) {
  const auto base = make_base(96);
  ExdResult exd = base_transform(base.a);
  Matrix bad(41, 3);
  EXPECT_THROW(evolve(exd, bad, {}), std::invalid_argument);
}

TEST(Evolve, NonFiniteColumnThrowsWhenChecked) {
  if (!util::checks_enabled()) {
    GTEST_SKIP() << "finiteness contracts compiled out (EXTDICT_CHECKS=OFF)";
  }
  const auto base = make_base(97);
  ExdResult exd = base_transform(base.a);
  const Index old_cols = exd.coefficients.cols();
  Matrix a_new = same_structure_columns(base, 40, 98);
  a_new(3, 17) = std::numeric_limits<Real>::quiet_NaN();
  EXPECT_THROW(evolve(exd, a_new, {}), util::ContractViolation);
  EXPECT_EQ(exd.coefficients.cols(), old_cols);  // rejected before any update
}

}  // namespace
}  // namespace extdict::core
