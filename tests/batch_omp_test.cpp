#include "sparsecoding/batch_omp.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>

#include "la/blas.hpp"
#include "la/random.hpp"
#include "sparsecoding/omp.hpp"
#include "util/contracts.hpp"

namespace extdict::sparsecoding {
namespace {

using la::Rng;
using la::Vector;

Real residual_of(const Matrix& dict, const SparseCode& code,
                 std::span<const Real> signal) {
  Vector rec(signal.begin(), signal.end());
  for (const auto& [atom, coeff] : code.entries) {
    la::axpy(-coeff, dict.col(atom), rec);
  }
  return la::nrm2(rec);
}

TEST(BatchOmp, GramIsPrecomputedOnce) {
  Rng rng(1);
  Matrix dict = rng.gaussian_matrix(12, 6, true);
  BatchOmp coder(dict, {.tolerance = 0.1});
  const Matrix& g = coder.gram();
  EXPECT_EQ(g.rows(), 6);
  EXPECT_EQ(g.cols(), 6);
  for (Index i = 0; i < 6; ++i) EXPECT_NEAR(g(i, i), 1.0, 1e-12);
}

TEST(BatchOmp, AgreesWithReferenceOmp) {
  // Same selections, same coefficients, same residual as the explicit-
  // residual implementation — across many random signals.
  Rng rng(2);
  Matrix dict = rng.gaussian_matrix(30, 45, true);
  BatchOmp coder(dict, {.tolerance = 0.15});
  for (int trial = 0; trial < 25; ++trial) {
    Vector signal(30);
    rng.fill_gaussian(signal);
    const SparseCode fast = coder.encode(signal);
    const SparseCode ref = omp_sparse_code(dict, signal, {.tolerance = 0.15});
    ASSERT_EQ(fast.entries.size(), ref.entries.size()) << "trial " << trial;
    for (std::size_t k = 0; k < fast.entries.size(); ++k) {
      EXPECT_EQ(fast.entries[k].first, ref.entries[k].first);
      EXPECT_NEAR(fast.entries[k].second, ref.entries[k].second, 1e-8);
    }
    EXPECT_NEAR(fast.residual_norm, ref.residual_norm, 1e-7);
  }
}

TEST(BatchOmp, ImplicitResidualMatchesExplicit) {
  // The ||r||² = ||x||² − α₀(S)ᵀγ shortcut must agree with an actual
  // reconstruction.
  Rng rng(3);
  Matrix dict = rng.gaussian_matrix(25, 50, true);
  BatchOmp coder(dict, {.tolerance = 0.1});
  for (int trial = 0; trial < 10; ++trial) {
    Vector signal(25);
    rng.fill_gaussian(signal);
    const SparseCode code = coder.encode(signal);
    EXPECT_NEAR(code.residual_norm, residual_of(dict, code, signal), 1e-7);
  }
}

TEST(BatchOmp, MeetsTolerance) {
  Rng rng(4);
  Matrix dict = rng.gaussian_matrix(20, 35, true);
  const Real eps = 0.25;
  BatchOmp coder(dict, {.tolerance = eps});
  Vector signal(20);
  rng.fill_gaussian(signal);
  const SparseCode code = coder.encode(signal);
  EXPECT_LE(code.residual_norm, eps * la::nrm2(signal) * (1 + 1e-9));
}

TEST(BatchOmp, HandlesDuplicateAtomsGracefully) {
  // Dictionary with an exactly repeated atom: the coder must skip the
  // dependent copy instead of corrupting the factorisation.
  Rng rng(5);
  Matrix dict = rng.gaussian_matrix(15, 8, true);
  for (Index i = 0; i < 15; ++i) dict(i, 7) = dict(i, 0);
  BatchOmp coder(dict, {.tolerance = 1e-8});
  Vector signal(15, 0.0);
  la::axpy(1.0, dict.col(0), signal);
  la::axpy(0.5, dict.col(3), signal);
  const SparseCode code = coder.encode(signal);
  EXPECT_LT(residual_of(dict, code, signal), 1e-7);
}

TEST(BatchOmp, EncodeAllMatchesPerColumn) {
  Rng rng(6);
  Matrix dict = rng.gaussian_matrix(18, 25, true);
  Matrix signals = rng.gaussian_matrix(18, 12);
  BatchOmp coder(dict, {.tolerance = 0.2});
  la::CscMatrix c = coder.encode_all(signals);
  EXPECT_EQ(c.rows(), 25);
  EXPECT_EQ(c.cols(), 12);
  for (Index j = 0; j < 12; ++j) {
    const SparseCode code = coder.encode(signals.col(j));
    EXPECT_EQ(static_cast<std::size_t>(c.col_nnz(j)), code.entries.size());
  }
}

TEST(BatchOmp, EncodeAllRowMismatchThrows) {
  Rng rng(7);
  Matrix dict = rng.gaussian_matrix(10, 5, true);
  Matrix signals(11, 3);
  BatchOmp coder(dict, {.tolerance = 0.1});
  EXPECT_THROW((void)coder.encode_all(signals), std::invalid_argument);
}

TEST(BatchOmp, EncodeAllNonFiniteSignalThrowsWhenChecked) {
  if (!util::checks_enabled()) {
    GTEST_SKIP() << "finiteness contracts compiled out (EXTDICT_CHECKS=OFF)";
  }
  Rng rng(7);
  Matrix dict = rng.gaussian_matrix(10, 5, true);
  Matrix signals = rng.gaussian_matrix(10, 40);
  signals(4, 31) = std::numeric_limits<Real>::infinity();
  BatchOmp coder(dict, {.tolerance = 0.1});
  EXPECT_THROW((void)coder.encode_all(signals), util::ContractViolation);
}

TEST(BatchOmp, UnionOfSubspaceSignalsGetKSparseCodes) {
  // Signals from a K-dim subspace whose spanning columns are in the
  // dictionary admit (at most) K-sparse representations — the §V-B
  // guarantee that powers all of ExD.
  Rng rng(8);
  const Index m = 40, k = 4;
  Matrix basis = rng.gaussian_matrix(m, k, true);
  // Dictionary: 12 random signals from the subspace (spanning it w.h.p.).
  Matrix dict(m, 12);
  Vector coeff(static_cast<std::size_t>(k));
  for (Index j = 0; j < 12; ++j) {
    rng.fill_gaussian(coeff);
    auto col = dict.col(j);
    std::fill(col.begin(), col.end(), 0.0);
    la::gemv(1, basis, coeff, 0, col);
  }
  dict.normalize_columns();
  BatchOmp coder(dict, {.tolerance = 1e-6});
  for (int trial = 0; trial < 10; ++trial) {
    Vector signal(static_cast<std::size_t>(m), 0.0);
    rng.fill_gaussian(coeff);
    la::gemv(1, basis, coeff, 0, signal);
    const SparseCode code = coder.encode(signal);
    EXPECT_LE(code.entries.size(), static_cast<std::size_t>(k));
    EXPECT_LT(code.residual_norm, 1e-5 * la::nrm2(signal));
  }
}

TEST(BatchOmp, EncodeFlopsMonotoneInIterations) {
  Rng rng(9);
  Matrix dict = rng.gaussian_matrix(10, 20, true);
  BatchOmp coder(dict, {.tolerance = 0.1});
  EXPECT_LT(coder.encode_flops(1), coder.encode_flops(5));
}

TEST(BatchOmp, MeteredFlopsMatchClosedFormExactly) {
  // The meter in encode() and the closed form in encode_flops() are two
  // derivations of the same count; on clean runs (every append accepted,
  // no exact-zero coefficients — generic for Gaussian data) they must
  // agree EXACTLY, for both atom-budget and tolerance stops. The old
  // model charged k³ for the triangular solves instead of Σ 2s²; this
  // test pins the corrected form against ground truth.
  Rng rng(10);
  const struct { Index m, l, max_atoms; Real tolerance; } cases[] = {
      {12, 24, 4, 0.0},   // stop on the atom budget
      {32, 64, 8, 0.0},   //   ... at a second shape
      {24, 48, 0, 0.3},   // stop on the residual tolerance
      {16, 16, 0, 0.05},  // square dictionary, deep runs
  };
  for (const auto& c : cases) {
    Matrix dict = rng.gaussian_matrix(c.m, c.l, true);
    BatchOmp coder(dict, {.tolerance = c.tolerance, .max_atoms = c.max_atoms});
    Vector signal(static_cast<std::size_t>(c.m));
    for (int trial = 0; trial < 8; ++trial) {
      rng.fill_gaussian(signal);
      const SparseCode code = coder.encode(signal);
      ASSERT_GT(code.iterations, 0);
      EXPECT_EQ(code.flops, coder.encode_flops(code.iterations))
          << "m=" << c.m << " l=" << c.l << " iterations=" << code.iterations;
    }
  }
}

}  // namespace
}  // namespace extdict::sparsecoding
