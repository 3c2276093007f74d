#include <gtest/gtest.h>

#include <cmath>
#include <set>

#include "data/cells.hpp"
#include "data/datasets.hpp"
#include "data/hyperspectral.hpp"
#include "data/lightfield.hpp"
#include "data/subspace.hpp"
#include "la/blas.hpp"
#include "la/qr.hpp"
#include "support/svd.hpp"

namespace extdict::data {
namespace {

TEST(Subspace, ShapeAndNormalization) {
  SubspaceModelConfig config;
  config.ambient_dim = 30;
  config.num_columns = 100;
  config.num_subspaces = 4;
  config.subspace_dim = 3;
  SubspaceData d = make_union_of_subspaces(config);
  EXPECT_EQ(d.a.rows(), 30);
  EXPECT_EQ(d.a.cols(), 100);
  for (la::Index j = 0; j < 100; ++j) {
    EXPECT_NEAR(la::nrm2(d.a.col(j)), 1.0, 1e-10);
  }
  EXPECT_EQ(d.bases.size(), 4u);
  EXPECT_EQ(d.membership.size(), 100u);
}

TEST(Subspace, ColumnsLieOnTheirSubspace) {
  SubspaceModelConfig config;
  config.ambient_dim = 25;
  config.num_columns = 60;
  config.num_subspaces = 3;
  config.subspace_dim = 4;
  config.noise_stddev = 0;
  SubspaceData d = make_union_of_subspaces(config);
  for (la::Index j = 0; j < 60; ++j) {
    const la::Index s = d.membership[static_cast<std::size_t>(j)];
    ASSERT_GE(s, 0);
    // Column minus its projection onto the basis must vanish.
    const Matrix& basis = d.bases[static_cast<std::size_t>(s)];
    la::Vector proj_coeff(static_cast<std::size_t>(basis.cols()));
    la::gemv_t(1, basis, d.a.col(j), 0, proj_coeff);
    la::Vector residual(d.a.col(j).begin(), d.a.col(j).end());
    for (la::Index k = 0; k < basis.cols(); ++k) {
      la::axpy(-proj_coeff[static_cast<std::size_t>(k)], basis.col(k), residual);
    }
    EXPECT_LT(la::nrm2(residual), 1e-10);
  }
}

TEST(Subspace, FullRankDespiteUnionStructure) {
  // The paper's Fig. 2 point: union-of-subspace data is NOT low rank in the
  // classic sense — with enough subspaces the matrix is full rank — yet
  // each column is K-sparse in the right dictionary.
  SubspaceModelConfig config;
  config.ambient_dim = 20;
  config.num_columns = 200;
  config.num_subspaces = 10;
  config.subspace_dim = 4;
  SubspaceData d = make_union_of_subspaces(config);
  EXPECT_EQ(numerical_rank(d.a), 20);
}

TEST(Subspace, OutliersGetMinusOneMembership) {
  SubspaceModelConfig config;
  config.ambient_dim = 15;
  config.num_columns = 100;
  config.outlier_fraction = 0.1;
  SubspaceData d = make_union_of_subspaces(config);
  int outliers = 0;
  for (la::Index m : d.membership) outliers += (m < 0);
  EXPECT_EQ(outliers, 10);
}

TEST(Subspace, SharedDimsCorrelateAdjacentBases) {
  SubspaceModelConfig config;
  config.ambient_dim = 40;
  config.num_subspaces = 3;
  config.subspace_dim = 5;
  config.shared_dims = 2;
  config.num_columns = 30;
  SubspaceData d = make_union_of_subspaces(config);
  // First shared direction of consecutive bases must be essentially equal.
  const Real overlap =
      std::abs(la::dot(d.bases[0].col(0), d.bases[1].col(0)));
  EXPECT_GT(overlap, 0.99);
}

TEST(Subspace, DeterministicBySeed) {
  SubspaceModelConfig config;
  config.seed = 77;
  SubspaceData a = make_union_of_subspaces(config);
  SubspaceData b = make_union_of_subspaces(config);
  EXPECT_EQ(la::max_abs_diff(a.a, b.a), 0.0);
}

TEST(Subspace, RejectsKGreaterThanM) {
  SubspaceModelConfig config;
  config.ambient_dim = 4;
  config.subspace_dim = 5;
  EXPECT_THROW(make_union_of_subspaces(config), std::invalid_argument);
}

TEST(LightField, ShapeAndStructure) {
  LightFieldConfig config;
  config.scene_size = 64;
  config.views = 3;
  config.patch = 6;
  config.num_patches = 50;
  LightFieldData lf = make_light_field(config);
  EXPECT_EQ(lf.a.rows(), 6 * 6 * 3 * 3);
  EXPECT_EQ(lf.a.cols(), 50);
  for (la::Index j = 0; j < 50; ++j) EXPECT_NEAR(la::nrm2(lf.a.col(j)), 1.0, 1e-10);
}

TEST(LightField, ViewsAreStronglyCorrelated) {
  // Adjacent views of the same patch are near-shifted copies; their
  // correlation must be much higher than between random patches.
  LightFieldConfig config;
  config.scene_size = 64;
  config.views = 3;
  config.patch = 6;
  config.num_patches = 20;
  config.noise_stddev = 0;
  LightFieldData lf = make_light_field(config);
  const la::Index block = 36;
  Real view_corr = 0;
  for (la::Index j = 0; j < 20; ++j) {
    auto col = lf.a.col(j);
    std::span<const Real> v0{col.data(), static_cast<std::size_t>(block)};
    std::span<const Real> v1{col.data() + block, static_cast<std::size_t>(block)};
    view_corr += la::dot(v0, v1) / (la::nrm2(v0) * la::nrm2(v1));
  }
  view_corr /= 20;
  EXPECT_GT(view_corr, 0.9);
}

TEST(LightField, EffectiveRankFarBelowAmbient) {
  // Union-of-low-rank: a few dozen singular values capture ~all energy.
  LightFieldConfig config;
  config.scene_size = 64;
  config.views = 3;
  config.patch = 6;
  config.num_patches = 120;
  LightFieldData lf = make_light_field(config);
  la::Rng rng(1);
  const auto svd = la::randomized_svd(lf.a, 40, rng, 2);
  Real captured = 0;
  for (Real s : svd.s) captured += s * s;
  const Real total = lf.a.frobenius_norm() * lf.a.frobenius_norm();
  EXPECT_GT(captured / total, 0.95);
}

TEST(LightField, ViewSubsetRowsSelectCentralWindow) {
  LightFieldConfig config;
  config.views = 5;
  config.patch = 8;
  config.num_patches = 5;
  config.scene_size = 96;
  LightFieldData lf = make_light_field(config);
  const auto rows = lf.view_subset_rows(3);
  EXPECT_EQ(rows.size(), static_cast<std::size_t>(3 * 3 * 64));
  // All indices valid and distinct.
  std::set<la::Index> unique(rows.begin(), rows.end());
  EXPECT_EQ(unique.size(), rows.size());
  EXPECT_GE(*unique.begin(), 0);
  EXPECT_LT(*unique.rbegin(), lf.a.rows());
  // Central window: the (1,1) view block (views=5, offset (5-3)/2 = 1).
  EXPECT_EQ(rows[0], (1 * 5 + 1) * 64);
}

TEST(LightField, SceneTooSmallThrows) {
  LightFieldConfig config;
  config.scene_size = 10;
  EXPECT_THROW(make_light_field(config), std::invalid_argument);
}

TEST(Hyperspectral, MixtureStructureHolds) {
  HyperspectralConfig config;
  config.bands = 50;
  config.num_pixels = 200;
  config.num_endmembers = 6;
  config.mix_size = 2;
  config.noise_stddev = 0;
  HyperspectralData h = make_hyperspectral(config);
  EXPECT_EQ(h.a.rows(), 50);
  EXPECT_EQ(h.a.cols(), 200);
  EXPECT_EQ(h.endmembers.cols(), 6);
  // Every pixel must lie (noiselessly) in the endmember span: project onto
  // the 6-dim span and check the residual.
  la::HouseholderQr qr(h.endmembers);
  for (la::Index j = 0; j < 200; ++j) {
    const la::Vector coeff = qr.solve(h.a.col(j));
    la::Vector rec(50, 0.0);
    la::gemv(1, h.endmembers, coeff, 0, rec);
    for (std::size_t i = 0; i < 50; ++i) rec[i] -= h.a.col(j)[i];
    EXPECT_LT(la::nrm2(rec), 1e-8);
  }
}

TEST(Hyperspectral, MixSizeValidation) {
  HyperspectralConfig config;
  config.num_endmembers = 3;
  config.mix_size = 4;
  EXPECT_THROW(make_hyperspectral(config), std::invalid_argument);
}

TEST(Cells, DenserGeometryThanImagingSets) {
  // The cells set must need more numerical rank (relative to its size) than
  // the hyperspectral set — the "denser geometry" the paper reports.
  CellsConfig cc;
  cc.features = 60;
  cc.num_cells = 300;
  cc.num_phenotypes = 12;
  cc.phenotype_dim = 8;
  cc.shared_dims = 2;
  SubspaceData cells = make_cells(cc);
  EXPECT_EQ(cells.a.rows(), 60);
  EXPECT_EQ(cells.a.cols(), 300);
  EXPECT_EQ(numerical_rank(cells.a), 60);  // dense full-rank geometry
}

TEST(Datasets, RegistryMatchesTable1) {
  const auto& specs = all_datasets();
  ASSERT_EQ(specs.size(), 3u);
  EXPECT_EQ(specs[0].name, "Salina");
  EXPECT_EQ(specs[1].name, "Cancer Cells");
  EXPECT_EQ(specs[2].name, "Light Field");
  EXPECT_EQ(dataset_spec(DatasetId::kSalina).paper_dims, "204 x 54129");
  for (const auto& spec : specs) {
    EXPECT_FALSE(spec.l_grid.empty());
    EXPECT_GT(spec.bench_rows, 0);
    EXPECT_GT(spec.bench_cols, 0);
  }
}

TEST(Datasets, TestScaleGeneratorsProduceNormalizedData) {
  for (const auto id :
       {DatasetId::kSalina, DatasetId::kCancerCells, DatasetId::kLightField}) {
    const Matrix a = make_dataset(id, Scale::kTest);
    EXPECT_GT(a.rows(), 0);
    EXPECT_GT(a.cols(), 0);
    for (la::Index j = 0; j < std::min<la::Index>(a.cols(), 10); ++j) {
      EXPECT_NEAR(la::nrm2(a.col(j)), 1.0, 1e-9);
    }
  }
}

}  // namespace
}  // namespace extdict::data
