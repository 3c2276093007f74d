#include "la/blas.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <tuple>

#include "la/random.hpp"

namespace extdict::la {
namespace {

// Naive reference products for cross-checking the optimised kernels.
Matrix reference_matmul(const Matrix& a, const Matrix& b, Trans ta, Trans tb) {
  const Index m = ta == Trans::kNo ? a.rows() : a.cols();
  const Index k = ta == Trans::kNo ? a.cols() : a.rows();
  const Index n = tb == Trans::kNo ? b.cols() : b.rows();
  Matrix c(m, n);
  for (Index i = 0; i < m; ++i) {
    for (Index j = 0; j < n; ++j) {
      Real s = 0;
      for (Index l = 0; l < k; ++l) {
        const Real av = ta == Trans::kNo ? a(i, l) : a(l, i);
        const Real bv = tb == Trans::kNo ? b(l, j) : b(j, l);
        s += av * bv;
      }
      c(i, j) = s;
    }
  }
  return c;
}

TEST(Blas1, AxpyAccumulates) {
  Vector x = {1, 2, 3};
  Vector y = {10, 20, 30};
  axpy(2, x, y);
  EXPECT_EQ(y[0], 12);
  EXPECT_EQ(y[1], 24);
  EXPECT_EQ(y[2], 36);
}

TEST(Blas1, ScalScales) {
  Vector x = {1, -2, 4};
  scal(-0.5, x);
  EXPECT_EQ(x[0], -0.5);
  EXPECT_EQ(x[1], 1.0);
  EXPECT_EQ(x[2], -2.0);
}

TEST(Blas1, DotMatchesManual) {
  Vector x = {1, 2, 3};
  Vector y = {4, 5, 6};
  EXPECT_EQ(dot(x, y), 32.0);
}

TEST(Blas1, Nrm2Matches) {
  Vector x = {3, 4};
  EXPECT_NEAR(nrm2(x), 5.0, 1e-14);
}

TEST(Blas1, Nrm2OverflowSafe) {
  Vector x = {1e200, 1e200};
  EXPECT_NEAR(nrm2(x), std::sqrt(2.0) * 1e200, 1e188);
}

TEST(Blas1, IamaxFindsLargestMagnitude) {
  Vector x = {1, -9, 4};
  EXPECT_EQ(iamax(x), 1);
  Vector empty;
  EXPECT_EQ(iamax(empty), -1);
}

TEST(Blas2, GemvMatchesReference) {
  Rng rng(5);
  Matrix a = rng.gaussian_matrix(7, 4);
  Vector x(4), y(7, 1.0);
  rng.fill_gaussian(x);
  Vector expected(7);
  for (Index i = 0; i < 7; ++i) {
    Real s = 0;
    for (Index j = 0; j < 4; ++j) s += a(i, j) * x[static_cast<std::size_t>(j)];
    expected[static_cast<std::size_t>(i)] = 2 * s + 3 * 1.0;
  }
  gemv(2, a, x, 3, y);
  for (Index i = 0; i < 7; ++i) {
    EXPECT_NEAR(y[static_cast<std::size_t>(i)], expected[static_cast<std::size_t>(i)], 1e-12);
  }
}

TEST(Blas2, GemvBetaZeroIgnoresGarbage) {
  Matrix a = Matrix::from_rows({{1, 0}, {0, 1}});
  Vector x = {5, 6};
  Vector y = {std::nan(""), std::nan("")};
  gemv(1, a, x, 0, y);
  EXPECT_EQ(y[0], 5);
  EXPECT_EQ(y[1], 6);
}

TEST(Blas2, GemvTMatchesReference) {
  Rng rng(6);
  Matrix a = rng.gaussian_matrix(6, 9);
  Vector x(6), y(9);
  rng.fill_gaussian(x);
  gemv_t(1, a, x, 0, y);
  for (Index j = 0; j < 9; ++j) {
    EXPECT_NEAR(y[static_cast<std::size_t>(j)], dot(a.col(j), x), 1e-12);
  }
}

TEST(Blas2, GemvDimensionMismatchThrows) {
  Matrix a(3, 2);
  Vector x(3), y(3);
  EXPECT_THROW(gemv(1, a, x, 0, y), std::invalid_argument);
  EXPECT_THROW(gemv_t(1, a, y, 0, y), std::invalid_argument);
}

using GemmCase = std::tuple<Index, Index, Index, Trans, Trans>;

class GemmParamTest : public ::testing::TestWithParam<GemmCase> {};

TEST_P(GemmParamTest, MatchesNaiveReference) {
  const auto [m, n, k, ta, tb] = GetParam();
  Rng rng(42 + m + n + k);
  Matrix a = ta == Trans::kNo ? rng.gaussian_matrix(m, k) : rng.gaussian_matrix(k, m);
  Matrix b = tb == Trans::kNo ? rng.gaussian_matrix(k, n) : rng.gaussian_matrix(n, k);
  Matrix c = matmul(a, b, ta, tb);
  Matrix ref = reference_matmul(a, b, ta, tb);
  EXPECT_LT(max_abs_diff(c, ref), 1e-10);
}

INSTANTIATE_TEST_SUITE_P(
    AllTransposeCombos, GemmParamTest,
    ::testing::Values(GemmCase{4, 5, 6, Trans::kNo, Trans::kNo},
                      GemmCase{4, 5, 6, Trans::kYes, Trans::kNo},
                      GemmCase{4, 5, 6, Trans::kNo, Trans::kYes},
                      GemmCase{4, 5, 6, Trans::kYes, Trans::kYes},
                      GemmCase{1, 1, 1, Trans::kNo, Trans::kNo},
                      GemmCase{17, 23, 31, Trans::kNo, Trans::kNo},
                      GemmCase{17, 23, 31, Trans::kYes, Trans::kNo},
                      GemmCase{64, 64, 64, Trans::kNo, Trans::kNo}));

TEST(Gemm, AccumulatesWithAlphaBeta) {
  Rng rng(9);
  Matrix a = rng.gaussian_matrix(3, 3);
  Matrix b = rng.gaussian_matrix(3, 3);
  Matrix c = rng.gaussian_matrix(3, 3);
  Matrix expected = c;
  Matrix ab = reference_matmul(a, b, Trans::kNo, Trans::kNo);
  for (Index j = 0; j < 3; ++j) {
    for (Index i = 0; i < 3; ++i) expected(i, j) = 2 * ab(i, j) + 0.5 * c(i, j);
  }
  gemm(2, a, Trans::kNo, b, Trans::kNo, 0.5, c);
  EXPECT_LT(max_abs_diff(c, expected), 1e-12);
}

TEST(Gemm, DimensionMismatchThrows) {
  Matrix a(3, 4), b(5, 2), c(3, 2);
  EXPECT_THROW(gemm(1, a, Trans::kNo, b, Trans::kNo, 0, c), std::invalid_argument);
}

TEST(Gram, MatchesAtA) {
  Rng rng(11);
  Matrix a = rng.gaussian_matrix(8, 5);
  Matrix g = gram(a);
  Matrix ref = matmul(a, a, Trans::kYes, Trans::kNo);
  EXPECT_LT(max_abs_diff(g, ref), 1e-12);
  // Symmetry by construction.
  for (Index j = 0; j < 5; ++j) {
    for (Index i = 0; i < 5; ++i) EXPECT_EQ(g(i, j), g(j, i));
  }
}

// Shapes with every kind of tail: K = 37 is not a multiple of the kernel's
// 8 lanes, 23 columns of A are not a multiple of its 4-column tile rows,
// and 29 columns of B are not a multiple of its 3-column tiles nor of
// BatchOmp's 24-column blocks.
constexpr Index kTailK = 37, kTailM = 23, kTailN = 29;

TEST(InnerProductKernel, DotGemvTGemmAndGramEntriesAreBitwiseEqual) {
  Rng rng(13);
  const Matrix a = rng.gaussian_matrix(kTailK, kTailM);
  const Matrix b = rng.gaussian_matrix(kTailK, kTailN);
  const Matrix c = matmul(a, b, Trans::kYes, Trans::kNo);
  Matrix both = a;
  both.append_columns(b);
  const Matrix g = gram(both);
  for (Index j = 0; j < kTailN; ++j) {
    Vector y(static_cast<std::size_t>(kTailM));
    gemv_t(1, a, b.col(j), 0, y);
    for (Index i = 0; i < kTailM; ++i) {
      const Real d = dot(a.col(i), b.col(j));
      EXPECT_EQ(y[static_cast<std::size_t>(i)], d) << "gemv_t (" << i << "," << j << ")";
      EXPECT_EQ(c(i, j), d) << "gemm (" << i << "," << j << ")";
      EXPECT_EQ(g(i, kTailM + j), d) << "gram (" << i << "," << j << ")";
      EXPECT_EQ(g(kTailM + j, i), d) << "gram mirror (" << i << "," << j << ")";
    }
  }
}

TEST(InnerProductKernel, GemmTransCasesMatchNaiveReferenceRelatively) {
  // Entry-wise against the naive product, relative to the scale of the
  // entry's terms, sum_l |op(A)(i,l)| |op(B)(l,j)|.
  for (const Trans ta : {Trans::kNo, Trans::kYes}) {
    for (const Trans tb : {Trans::kNo, Trans::kYes}) {
      Rng rng(14);
      const Matrix a = ta == Trans::kNo ? rng.gaussian_matrix(kTailM, kTailK)
                                        : rng.gaussian_matrix(kTailK, kTailM);
      const Matrix b = tb == Trans::kNo ? rng.gaussian_matrix(kTailK, kTailN)
                                        : rng.gaussian_matrix(kTailN, kTailK);
      Matrix abs_a = a, abs_b = b;
      for (Index j = 0; j < a.cols(); ++j) {
        for (Real& v : abs_a.col(j)) v = std::abs(v);
      }
      for (Index j = 0; j < b.cols(); ++j) {
        for (Real& v : abs_b.col(j)) v = std::abs(v);
      }
      const Matrix got = matmul(a, b, ta, tb);
      const Matrix want = reference_matmul(a, b, ta, tb);
      const Matrix scale = reference_matmul(abs_a, abs_b, ta, tb);
      for (Index j = 0; j < kTailN; ++j) {
        for (Index i = 0; i < kTailM; ++i) {
          EXPECT_LE(std::abs(got(i, j) - want(i, j)), 1e-12 * scale(i, j))
              << "ta=" << (ta == Trans::kYes) << " tb=" << (tb == Trans::kYes)
              << " at (" << i << "," << j << ")";
        }
      }
    }
  }
}

TEST(InnerProductKernel, GemmBetaZeroIgnoresGarbage) {
  Rng rng(15);
  const Matrix a = rng.gaussian_matrix(kTailK, kTailM);
  const Matrix b = rng.gaussian_matrix(kTailK, kTailN);
  Matrix c(kTailM, kTailN);
  for (Index j = 0; j < kTailN; ++j) {
    for (Real& v : c.col(j)) v = std::nan("");
  }
  gemm(1, a, Trans::kYes, b, Trans::kNo, 0, c);
  EXPECT_LT(max_abs_diff(c, reference_matmul(a, b, Trans::kYes, Trans::kNo)), 1e-12);
}

TEST(FlopCounters, MatchFormulas) {
  EXPECT_EQ(gemv_flops(10, 20), 400u);
  EXPECT_EQ(gemm_flops(2, 3, 4), 48u);
}

}  // namespace
}  // namespace extdict::la
