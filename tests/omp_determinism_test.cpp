// Thread-count invariance for every OpenMP-parallelised kernel: each
// parallel region in this tree assigns every output element to exactly one
// iteration, so running at one thread and at a full team must produce
// bitwise-identical results — any divergence means iterations share state,
// i.e. the schedule leaked into the arithmetic.
//
// The one documented exception is core::transformation_error, whose
// reduction(+ : num, den) combines partial sums in a schedule-dependent
// order; it gets a tight relative tolerance instead of bitwise equality.
//
// serve::ExtDictServer wraps these kernels behind threads/IO and is covered
// by its own stress tests.
#include <gtest/gtest.h>

#include <cstddef>
#include <utility>
#include <vector>

#ifdef _OPENMP
#include <omp.h>
#endif

#include "baselines/oasis.hpp"
#include "baselines/rcss.hpp"
#include "core/evolving.hpp"
#include "core/exd.hpp"
#include "la/blas.hpp"
#include "la/csc_matrix.hpp"
#include "la/qr.hpp"
#include "la/random.hpp"
#include "sparsecoding/batch_omp.hpp"

namespace extdict {
namespace {

using la::CscMatrix;
using la::Index;
using la::Matrix;
using la::Real;
using la::Vector;

constexpr int kTeam = 4;

// Runs `fn` with the OpenMP runtime pinned to `threads`, restoring the
// previous setting afterwards. Without OpenMP both runs use one thread and
// the comparison is trivially (but harmlessly) true.
template <typename Fn>
auto with_threads(int threads, Fn&& fn) {
#ifdef _OPENMP
  const int before = omp_get_max_threads();
  omp_set_num_threads(threads);
#else
  (void)threads;
#endif
  auto result = fn();
#ifdef _OPENMP
  omp_set_num_threads(before);
#endif
  return result;
}

Matrix random_matrix(Index rows, Index cols, std::uint64_t seed) {
  Matrix m(rows, cols);
  la::Rng rng(seed);
  rng.fill_gaussian({m.data(), static_cast<std::size_t>(m.size())});
  return m;
}

Vector random_vector(std::size_t n, std::uint64_t seed) {
  Vector v(n);
  la::Rng rng(seed);
  rng.fill_gaussian(v);
  return v;
}

void expect_bitwise(const Matrix& a, const Matrix& b) {
  ASSERT_EQ(a.rows(), b.rows());
  ASSERT_EQ(a.cols(), b.cols());
  for (Index i = 0; i < a.size(); ++i) {
    ASSERT_EQ(a.data()[i], b.data()[i]) << "flat index " << i;
  }
}

void expect_bitwise(const Vector& a, const Vector& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    ASSERT_EQ(a[i], b[i]) << "index " << i;
  }
}

void expect_bitwise(const CscMatrix& a, const CscMatrix& b) {
  ASSERT_EQ(a.rows(), b.rows());
  ASSERT_EQ(a.cols(), b.cols());
  ASSERT_EQ(a.nnz(), b.nnz());
  for (Index j = 0; j < a.cols(); ++j) {
    const auto ar = a.col_rows(j), br = b.col_rows(j);
    const auto av = a.col_values(j), bv = b.col_values(j);
    ASSERT_EQ(ar.size(), br.size()) << "column " << j;
    for (std::size_t k = 0; k < ar.size(); ++k) {
      ASSERT_EQ(ar[k], br[k]) << "column " << j << " entry " << k;
      ASSERT_EQ(av[k], bv[k]) << "column " << j << " entry " << k;
    }
  }
}

TEST(OmpDeterminism, GemvT) {
  const Matrix a = random_matrix(96, 64, 11);
  const Vector x = random_vector(96, 12);
  const Vector y0 = random_vector(64, 13);
  auto run = [&] {
    Vector y = y0;
    la::gemv_t(1.3, a, x, -0.25, y);
    return y;
  };
  expect_bitwise(with_threads(1, run), with_threads(kTeam, run));
}

TEST(OmpDeterminism, GemmAllTransposeVariants) {
  const Matrix c0 = random_matrix(48, 40, 20);
  const std::pair<la::Trans, la::Trans> variants[] = {
      {la::Trans::kNo, la::Trans::kNo},
      {la::Trans::kYes, la::Trans::kNo},
      {la::Trans::kNo, la::Trans::kYes},
  };
  for (const auto& [ta, tb] : variants) {
    const Matrix a = ta == la::Trans::kNo ? random_matrix(48, 32, 21)
                                          : random_matrix(32, 48, 21);
    const Matrix b = tb == la::Trans::kNo ? random_matrix(32, 40, 22)
                                          : random_matrix(40, 32, 22);
    auto run = [&] {
      Matrix c = c0;
      la::gemm(0.7, a, ta, b, tb, 0.4, c);
      return c;
    };
    expect_bitwise(with_threads(1, run), with_threads(kTeam, run));
  }
}

TEST(OmpDeterminism, Gram) {
  const Matrix a = random_matrix(72, 56, 30);
  auto run = [&] { return la::gram(a); };
  expect_bitwise(with_threads(1, run), with_threads(kTeam, run));
}

TEST(OmpDeterminism, CscSpmvT) {
  // A sparse matrix with irregular column supports, straight from the coder.
  const Matrix a = random_matrix(40, 120, 40);
  const Matrix dict = random_matrix(40, 24, 41);
  sparsecoding::OmpConfig config;
  config.tolerance = 0.3;
  const CscMatrix c = sparsecoding::BatchOmp(dict, config).encode_all(a);
  const Vector w = random_vector(static_cast<std::size_t>(c.rows()), 42);
  auto run = [&] {
    Vector y(static_cast<std::size_t>(c.cols()));
    c.spmv_t(w, y);
    return y;
  };
  expect_bitwise(with_threads(1, run), with_threads(kTeam, run));
}

TEST(OmpDeterminism, QrSolveMany) {
  const Matrix a = random_matrix(64, 24, 50);
  const Matrix b = random_matrix(64, 48, 51);
  const la::HouseholderQr qr(a);
  auto run = [&] { return qr.solve_many(b); };
  expect_bitwise(with_threads(1, run), with_threads(kTeam, run));
}

TEST(OmpDeterminism, BatchOmpEncodeAll) {
  const Matrix signals = random_matrix(48, 160, 60);
  const Matrix dict = random_matrix(48, 32, 61);
  sparsecoding::OmpConfig config;
  config.tolerance = 0.2;
  auto run = [&] {
    return sparsecoding::BatchOmp(dict, config).encode_all(signals);
  };
  expect_bitwise(with_threads(1, run), with_threads(kTeam, run));
}

TEST(OmpDeterminism, RcssTransform) {
  const Matrix a = random_matrix(48, 96, 70);
  auto run = [&] { return baselines::rcss_transform(a, 24, 7); };
  const auto one = with_threads(1, run);
  const auto team = with_threads(kTeam, run);
  expect_bitwise(one.dictionary, team.dictionary);
  expect_bitwise(one.coefficients, team.coefficients);
}

TEST(OmpDeterminism, OasisTransform) {
  const Matrix a = random_matrix(40, 80, 80);
  auto run = [&] { return baselines::oasis_transform(a, 0.2, 9, 32); };
  const auto one = with_threads(1, run);
  const auto team = with_threads(kTeam, run);
  expect_bitwise(one.dictionary, team.dictionary);
  expect_bitwise(one.coefficients, team.coefficients);
}

TEST(OmpDeterminism, EvolveBothPasses) {
  // Base projection with a loose dictionary, then evolve with columns the
  // old dictionary cannot express: exercises both parallel passes (re-encode
  // and per-failed-column splice).
  const Matrix a = random_matrix(40, 120, 90);
  core::ExdConfig config;
  config.dictionary_size = 24;
  config.tolerance = 0.05;
  config.seed = 3;
  const core::ExdResult base = core::exd_transform(a, config);
  const Matrix a_new = random_matrix(40, 30, 91);

  auto run = [&] {
    core::ExdResult exd = base;
    core::ExdConfig evolve_config = config;
    evolve_config.dictionary_size = 8;
    const core::EvolveReport report = core::evolve(exd, a_new, evolve_config);
    return std::make_pair(std::move(exd), report);
  };
  const auto one = with_threads(1, run);
  const auto team = with_threads(kTeam, run);
  EXPECT_EQ(one.second.reencoded_columns, team.second.reencoded_columns);
  EXPECT_EQ(one.second.failed_columns, team.second.failed_columns);
  EXPECT_EQ(one.second.new_atoms, team.second.new_atoms);
  expect_bitwise(one.first.dictionary, team.first.dictionary);
  expect_bitwise(one.first.coefficients, team.first.coefficients);
}

TEST(OmpDeterminism, TransformationErrorWithinReductionTolerance) {
  // reduction(+ : num, den): the combine order depends on the team size, so
  // the result is only reproducible to rounding. 1e-10 relative is orders
  // of magnitude above double rounding on these sizes and far below any
  // real race-induced divergence.
  const Matrix a = random_matrix(40, 120, 95);
  core::ExdConfig config;
  config.dictionary_size = 32;
  config.tolerance = 0.05;
  config.seed = 5;
  const core::ExdResult exd = core::exd_transform(a, config);
  auto run = [&] {
    return core::transformation_error(a, exd.dictionary, exd.coefficients);
  };
  const Real one = with_threads(1, run);
  const Real team = with_threads(kTeam, run);
  EXPECT_NEAR(one, team, 1e-10 * std::max<Real>(one, Real{1}));
}

}  // namespace
}  // namespace extdict
