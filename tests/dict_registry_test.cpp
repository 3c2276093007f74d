// DictRegistry contracts: bordered Gram extension is exactly a full
// recompute (bitwise, so extension never changes what Batch-OMP sees),
// publication is an atomic epoch flip, pinned epochs survive until their
// last holder drains, and extend_from_samples reuses evolve's pass-2
// selection rule.

#include "serve/dict_registry.hpp"

#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "core/evolving.hpp"
#include "core/gram_extend.hpp"
#include "la/blas.hpp"
#include "la/random.hpp"

namespace extdict::serve {
namespace {

using la::Matrix;
using la::Rng;
using sparsecoding::OmpConfig;

Matrix gaussian(Index m, Index l, unsigned seed) {
  Rng rng(seed);
  return rng.gaussian_matrix(m, l, true);
}

TEST(GramExtend, BorderedEqualsFullRecomputeBitwise) {
  const Matrix dict = gaussian(24, 40, 5);
  const Matrix extra = gaussian(24, 7, 6);
  const Matrix base = la::gram(dict);

  Matrix extended_dict = dict;
  extended_dict.append_columns(extra);
  const Matrix full = la::gram(extended_dict);
  const Matrix bordered = core::extend_gram_bordered(base, dict, extra);

  ASSERT_EQ(bordered.rows(), full.rows());
  ASSERT_EQ(bordered.cols(), full.cols());
  for (Index j = 0; j < full.cols(); ++j) {
    for (Index i = 0; i < full.rows(); ++i) {
      // Same la::dot accumulation order → bitwise, not just 1e-12.
      EXPECT_EQ(bordered(i, j), full(i, j)) << "at (" << i << "," << j << ")";
    }
  }
}

TEST(GramExtend, BorderedEqualsFullRecomputeBitwiseOnTailShapes) {
  // 37 rows (not a multiple of the kernel's 8 lanes), 23 + 5 columns (not
  // multiples of its 4×3 tiles).
  const Matrix dict = gaussian(37, 23, 23);
  const Matrix extra = gaussian(37, 5, 24);
  Matrix extended_dict = dict;
  extended_dict.append_columns(extra);
  const Matrix full = la::gram(extended_dict);
  const Matrix bordered = core::extend_gram_bordered(la::gram(dict), dict, extra);
  for (Index j = 0; j < full.cols(); ++j) {
    for (Index i = 0; i < full.rows(); ++i) {
      EXPECT_EQ(bordered(i, j), full(i, j)) << "at (" << i << "," << j << ")";
    }
  }
}

TEST(GramExtend, RejectsMismatchedShapes) {
  const Matrix dict = gaussian(10, 12, 7);
  const Matrix gram = la::gram(dict);
  EXPECT_THROW(core::extend_gram_bordered(gram, dict, gaussian(11, 2, 8)),
               std::invalid_argument);
  EXPECT_THROW(
      core::extend_gram_bordered(gaussian(12, 11, 9), dict, gaussian(10, 2, 8)),
      std::invalid_argument);
}

TEST(DictRegistry, ExtendPublishesNewEpochAtomically) {
  const OmpConfig omp{.tolerance = 0.0, .max_atoms = 4};
  DictRegistry registry(gaussian(16, 24, 11), omp);
  EXPECT_EQ(registry.current_epoch(), 0u);
  EXPECT_EQ(registry.atom_count(), 24);
  EXPECT_EQ(registry.signal_dim(), 16);

  const std::uint64_t id = registry.extend(gaussian(16, 8, 12));
  EXPECT_EQ(id, 1u);
  EXPECT_EQ(registry.current_epoch(), 1u);
  EXPECT_EQ(registry.atom_count(), 32);
  EXPECT_EQ(registry.signal_dim(), 16);

  const auto epoch = registry.current();
  EXPECT_EQ(epoch->id, 1u);
  EXPECT_EQ(epoch->dictionary.cols(), 32);
  // The epoch's coder serves the extended dictionary with its bordered
  // Gram; shape is the cheap full-consistency probe.
  EXPECT_EQ(epoch->coder.gram().rows(), 32);
  EXPECT_EQ(epoch->coder.atom_count(), 32);
}

TEST(DictRegistry, ExtendedEpochEncodesLikeFreshCoder) {
  const OmpConfig omp{.tolerance = 0.0, .max_atoms = 6};
  const Matrix base = gaussian(20, 30, 13);
  const Matrix extra = gaussian(20, 5, 14);
  DictRegistry registry(base, omp);
  registry.extend(extra);

  Matrix extended = base;
  extended.append_columns(extra);
  const sparsecoding::BatchOmp fresh(extended, omp);

  Rng rng(15);
  la::Vector x(20);
  rng.fill_gaussian(x);
  const auto got = registry.current()->coder.encode(x);
  const auto want = fresh.encode(x);
  ASSERT_EQ(got.entries.size(), want.entries.size());
  for (std::size_t k = 0; k < want.entries.size(); ++k) {
    EXPECT_EQ(got.entries[k].first, want.entries[k].first);
    EXPECT_NEAR(got.entries[k].second, want.entries[k].second, 1e-12);
  }
  EXPECT_NEAR(got.residual_norm, want.residual_norm, 1e-12);
}

TEST(DictRegistry, BlockEncodeEqualsPerColumnEncodeExactlyOnExtendedEpoch) {
  // An extended epoch's near-duplicate atoms make argmax ties fragile: a
  // column coded inside a block (α₀ from gemm) must get exactly the code
  // that encode (α₀ from gemv_t) gives it alone — same support, same
  // values, same residual — or served codes stop matching direct encodes.
  const OmpConfig omp{.tolerance = 1e-3};
  const Matrix base = gaussian(37, 30, 25);
  Matrix near = base.select_columns(std::vector<Index>{0, 1, 2, 3, 4});
  const Matrix nudge = gaussian(37, 5, 26);
  for (Index j = 0; j < near.cols(); ++j) la::axpy(1e-6, nudge.col(j), near.col(j));
  DictRegistry registry(base, omp);
  registry.extend(near);
  const auto epoch = registry.current();

  Matrix signals = gaussian(37, 53, 27);  // two full 24-column blocks + 5
  for (Index j = 0; j < signals.cols(); ++j) {
    la::axpy(3.0, epoch->dictionary.col(j % epoch->dictionary.cols()), signals.col(j));
  }
  const auto block = epoch->coder.encode_columns(signals);
  const la::CscMatrix all = epoch->coder.encode_all(signals);
  ASSERT_EQ(block.size(), static_cast<std::size_t>(signals.cols()));
  for (Index j = 0; j < signals.cols(); ++j) {
    const auto alone = epoch->coder.encode(signals.col(j));
    const auto& got = block[static_cast<std::size_t>(j)];
    ASSERT_EQ(got.entries, alone.entries) << "column " << j;
    EXPECT_EQ(got.residual_norm, alone.residual_norm) << "column " << j;
    EXPECT_EQ(got.flops, alone.flops) << "column " << j;
    ASSERT_EQ(static_cast<std::size_t>(all.col_nnz(j)), alone.entries.size());
    const auto rows = all.col_rows(j);
    const auto values = all.col_values(j);
    for (std::size_t k = 0; k < rows.size(); ++k) {
      bool found = false;
      for (const auto& [atom, coeff] : alone.entries) {
        if (atom == rows[k]) {
          EXPECT_EQ(values[k], coeff) << "column " << j << " atom " << atom;
          found = true;
        }
      }
      EXPECT_TRUE(found) << "column " << j << " atom " << rows[k];
    }
  }
}

TEST(DictRegistry, PinnedEpochSurvivesFlipUntilReleased) {
  const OmpConfig omp{.tolerance = 0.1, .max_atoms = 2};
  DictRegistry registry(gaussian(8, 12, 17), omp);

  std::shared_ptr<const DictEpoch> pinned = registry.current();
  registry.extend(gaussian(8, 2, 18));
  EXPECT_EQ(registry.live_epochs(), 2u);  // epoch 1 serving, epoch 0 pinned

  // The pinned epoch still serves its own dictionary (an in-flight batch
  // mid-extension sees exactly this).
  EXPECT_EQ(pinned->id, 0u);
  EXPECT_EQ(pinned->dictionary.cols(), 12);
  pinned.reset();
  EXPECT_EQ(registry.live_epochs(), 1u);  // epoch 0 reclaimed on drain
}

TEST(DictRegistry, ExtendFromSamplesMatchesEvolveSelection) {
  const OmpConfig omp{.tolerance = 0.1, .max_atoms = 4};
  const Matrix candidates = gaussian(16, 20, 19);
  core::ExdConfig config;
  config.dictionary_size = 6;
  config.seed = 77;

  DictRegistry registry(gaussian(16, 24, 20), omp);
  registry.extend_from_samples(candidates, config);

  const Matrix expected = core::select_extension_atoms(candidates, config);
  const auto epoch = registry.current();
  ASSERT_EQ(epoch->dictionary.cols(), 24 + expected.cols());
  for (Index j = 0; j < expected.cols(); ++j) {
    for (Index i = 0; i < expected.rows(); ++i) {
      EXPECT_EQ(epoch->dictionary(i, 24 + j), expected(i, j));
    }
  }
}

TEST(DictRegistry, SequentialExtensionsCountEpochs) {
  const OmpConfig omp{.tolerance = 0.1, .max_atoms = 2};
  DictRegistry registry(gaussian(8, 10, 21), omp);
  for (int round = 1; round <= 3; ++round) {
    const std::uint64_t id =
        registry.extend(gaussian(8, 2, 21 + static_cast<unsigned>(round)));
    EXPECT_EQ(id, static_cast<std::uint64_t>(round));
  }
  EXPECT_EQ(registry.atom_count(), 16);
  EXPECT_EQ(registry.live_epochs(), 1u);  // nothing pinned the old ones
}

}  // namespace
}  // namespace extdict::serve
