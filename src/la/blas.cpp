#include "la/blas.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <stdexcept>
#include <utility>

#include "util/contracts.hpp"

namespace extdict::la {

// extdict-lint: allow(missing-shape-contract) BLAS-1, noexcept: EXTDICT_ASSERT terminates instead of throwing (docs/CORRECTNESS.md)
void axpy(Real alpha, std::span<const Real> x, std::span<Real> y) noexcept {
  EXTDICT_ASSERT(x.size() == y.size(),
                 "axpy: |x|=" + std::to_string(x.size()) +
                     " |y|=" + std::to_string(y.size()));
  const std::size_t n = x.size();
  for (std::size_t i = 0; i < n; ++i) y[i] += alpha * x[i];
}

// extdict-lint: allow(missing-shape-contract) any length is valid
void scal(Real alpha, std::span<Real> x) noexcept {
  for (Real& v : x) v *= alpha;
}

namespace {

// The one inner-product microkernel (DESIGN.md, "Dense kernels"). Every
// Dᵀ·-shaped product computes C(i, j) = a_iᵀ b_j over K-contiguous columns
// through `dot_tile`, and every entry is the same function of its two
// columns whatever its tile position, block or calling routine:
//   1. kLanes fixed lanes, acc[w] += a[p + w] * b[p + w] over the
//      kLanes-aligned prefix;
//   2. a fixed pairwise reduction of the lanes (`lane_sum`);
//   3. the K-tail added in order.
// That is what makes la::dot, a gemv_t entry, a gemm(kYes) entry and a gram
// entry bitwise equal. It holds because this file is compiled with
// -ffp-contract=off (src/CMakeLists.txt): with contraction on, GCC may fuse
// a*b+acc into an FMA in some tile shapes and not in others.
constexpr std::size_t kLanes = 8;  // W
constexpr Index kTileRows = 4;     // MR: columns of a per tile
constexpr Index kTileCols = 3;     // NR: columns of b per tile

template <std::size_t W>
Real lane_sum(const Real* lanes) noexcept {
  if constexpr (W == 1) {
    return lanes[0];
  } else {
    Real half[W / 2];
    for (std::size_t w = 0; w < W / 2; ++w) half[w] = lanes[w] + lanes[w + W / 2];
    return lane_sum<W / 2>(half);
  }
}

// out[i + ldo·j] = a_iᵀ b_j for the R×C tile whose first columns start at
// `a` and `b` (column strides lda and ldb, k entries each).
template <Index R, Index C>
void dot_tile(const Real* a, std::size_t lda, const Real* b, std::size_t ldb,
              std::size_t k, Real* out, std::size_t ldo) noexcept {
  Real acc[R][C][kLanes] = {};
  const std::size_t k_lanes = k - k % kLanes;
  for (std::size_t p = 0; p < k_lanes; p += kLanes) {
    for (Index i = 0; i < R; ++i) {
      for (Index j = 0; j < C; ++j) {
        for (std::size_t w = 0; w < kLanes; ++w) {
          acc[i][j][w] += a[i * lda + p + w] * b[j * ldb + p + w];
        }
      }
    }
  }
  for (Index i = 0; i < R; ++i) {
    for (Index j = 0; j < C; ++j) {
      Real s = lane_sum<kLanes>(acc[i][j]);
      for (std::size_t p = k_lanes; p < k; ++p) s += a[i * lda + p] * b[j * ldb + p];
      out[static_cast<std::size_t>(i) + static_cast<std::size_t>(j) * ldo] = s;
    }
  }
}

// Edge tiles: kTiles[(R − 1)·kTileCols + (C − 1)] is dot_tile<R, C>.
using TileFn = void (*)(const Real*, std::size_t, const Real*, std::size_t,
                        std::size_t, Real*, std::size_t) noexcept;
template <std::size_t... T>
constexpr std::array<TileFn, sizeof...(T)> tile_table(std::index_sequence<T...>) {
  return {&dot_tile<static_cast<Index>(T) / kTileCols + 1,
                    static_cast<Index>(T) % kTileCols + 1>...};
}
constexpr auto kTiles =
    tile_table(std::make_index_sequence<kTileRows * kTileCols>{});

// `count` K-contiguous columns of `length` entries each, column-major.
struct Columns {
  const Real* data;
  Index length;
  Index count;
};

Columns columns_of(const Matrix& m) { return {m.data(), m.rows(), m.cols()}; }

// The one loop nest: C(i, j) = alpha·a_iᵀb_j + beta·C(i, j) for every
// column i of `a` and j of `b` (only i <= j when `upper`), C column-major
// with leading dimension ldc. Tiles are numbered row-of-tiles first, so a
// thread's consecutive tiles reuse the same kTileRows columns of `a`.
void inner_products(Real alpha, Columns a, Columns b, Real beta, Real* c,
                    Index ldc, bool upper, bool parallel) {
  const Index row_tiles = (a.count + kTileRows - 1) / kTileRows;
  const Index col_tiles = (b.count + kTileCols - 1) / kTileCols;
  const Index tiles = row_tiles * col_tiles;
#pragma omp parallel for schedule(dynamic, 16) default(none) \
    shared(alpha, a, b, beta, c, ldc, upper, col_tiles, tiles, kTileRows, \
           kTileCols, kTiles) if (parallel)
  for (Index t = 0; t < tiles; ++t) {
    const Index i0 = (t / col_tiles) * kTileRows;
    const Index j0 = (t % col_tiles) * kTileCols;
    const Index rows = std::min(kTileRows, a.count - i0);
    const Index cols = std::min(kTileCols, b.count - j0);
    if (upper && i0 > j0 + cols - 1) continue;
    Real tile[kTileRows * kTileCols];
    const auto len = static_cast<std::size_t>(a.length);
    kTiles[static_cast<std::size_t>((rows - 1) * kTileCols + (cols - 1))](
        a.data + static_cast<std::size_t>(i0) * len, len,
        b.data + static_cast<std::size_t>(j0) * len, len, len, tile,
        static_cast<std::size_t>(kTileRows));
    for (Index j = 0; j < cols; ++j) {
      for (Index i = 0; i < rows && (!upper || i0 + i <= j0 + j); ++i) {
        Real& cij = c[static_cast<std::size_t>(i0 + i) +
                      static_cast<std::size_t>(j0 + j) * static_cast<std::size_t>(ldc)];
        const Real s = alpha * tile[i + j * kTileRows];
        cij = beta == Real{0} ? s : s + beta * cij;
      }
    }
  }
}

}  // namespace

// extdict-lint: allow(missing-shape-contract) BLAS-1, noexcept: EXTDICT_ASSERT terminates instead of throwing (docs/CORRECTNESS.md)
Real dot(std::span<const Real> x, std::span<const Real> y) noexcept {
  EXTDICT_ASSERT(x.size() == y.size(),
                 "dot: |x|=" + std::to_string(x.size()) +
                     " |y|=" + std::to_string(y.size()));
  Real s = 0;
  dot_tile<1, 1>(x.data(), 0, y.data(), 0, x.size(), &s, 1);
  return s;
}

// extdict-lint: allow(missing-shape-contract) any length is valid
Real nrm2(std::span<const Real> x) noexcept {
  Real scale = 0, ssq = 1;
  for (Real v : x) {
    if (v == Real{0}) continue;
    const Real a = std::abs(v);
    if (scale < a) {
      ssq = 1 + ssq * (scale / a) * (scale / a);
      scale = a;
    } else {
      ssq += (a / scale) * (a / scale);
    }
  }
  return scale * std::sqrt(ssq);
}

// extdict-lint: allow(missing-shape-contract) any length is valid (empty -> -1)
Index iamax(std::span<const Real> x) noexcept {
  if (x.empty()) return -1;
  Index best = 0;
  Real best_val = std::abs(x[0]);
  for (std::size_t i = 1; i < x.size(); ++i) {
    const Real a = std::abs(x[i]);
    if (a > best_val) {
      best_val = a;
      best = static_cast<Index>(i);
    }
  }
  return best;
}

void gemv(Real alpha, const Matrix& a, std::span<const Real> x, Real beta,
          std::span<Real> y) {
  EXTDICT_REQUIRE_SHAPE(
      static_cast<Index>(x.size()) == a.cols() &&
          static_cast<Index>(y.size()) == a.rows(),
      "gemv: A is " + util::shape_string(a.rows(), a.cols()) + ", |x|=" +
          std::to_string(x.size()) + ", |y|=" + std::to_string(y.size()));
  EXTDICT_CHECK_FINITE(x, "gemv: x");
  if (beta == Real{0}) {
    std::fill(y.begin(), y.end(), Real{0});
  } else if (beta != Real{1}) {
    scal(beta, y);
  }
  // Column-major: accumulate alpha * x_j * A(:,j) into y. Sequential over
  // columns (races on y otherwise); columns themselves are contiguous.
  for (Index j = 0; j < a.cols(); ++j) {
    const Real axj = alpha * x[static_cast<std::size_t>(j)];
    if (axj == Real{0}) continue;
    axpy(axj, a.col(j), y);
  }
}

void gemv_t(Real alpha, const Matrix& a, std::span<const Real> x, Real beta,
            std::span<Real> y) {
  EXTDICT_REQUIRE_SHAPE(
      static_cast<Index>(x.size()) == a.rows() &&
          static_cast<Index>(y.size()) == a.cols(),
      "gemv_t: A is " + util::shape_string(a.rows(), a.cols()) + ", |x|=" +
          std::to_string(x.size()) + ", |y|=" + std::to_string(y.size()));
  EXTDICT_CHECK_FINITE(x, "gemv_t: x");
  // MR×1 tiles of the inner-product kernel, so y[j] is bitwise dot(a_j, x).
  const Index cols = a.cols();
  inner_products(alpha, columns_of(a),
                 {x.data(), a.rows(), 1}, beta, y.data(), cols,
                 /*upper=*/false, /*parallel=*/cols > 256);
}

namespace {

// Resolves op(A) dimensions.
Index op_rows(const Matrix& a, Trans t) { return t == Trans::kNo ? a.rows() : a.cols(); }
Index op_cols(const Matrix& a, Trans t) { return t == Trans::kNo ? a.cols() : a.rows(); }

}  // namespace

void gemm(Real alpha, const Matrix& a, Trans ta, const Matrix& b, Trans tb,
          Real beta, Matrix& c) {
  const Index m = op_rows(a, ta);
  const Index k = op_cols(a, ta);
  const Index n = op_cols(b, tb);
  EXTDICT_REQUIRE_SHAPE(
      op_rows(b, tb) == k && c.rows() == m && c.cols() == n,
      "gemm: op(A) is " + util::shape_string(m, k) + ", op(B) is " +
          util::shape_string(op_rows(b, tb), op_cols(b, tb)) + ", C is " +
          util::shape_string(c.rows(), c.cols()));

  // Every case is inner products of K-contiguous columns: op(A)'s rows are
  // A's columns when ta == kYes and op(B)'s columns are B's when
  // tb == kNo; any other operand is packed (transposed) first.
  Matrix packed_a;
  Matrix packed_b;
  const Matrix& at = ta == Trans::kYes ? a : (packed_a = a.transposed());
  const Matrix& bt = tb == Trans::kNo ? b : (packed_b = b.transposed());
  inner_products(alpha, columns_of(at), columns_of(bt), beta, c.data(), m,
                 /*upper=*/false, /*parallel=*/m > kTileRows || n > kTileCols);
}

// extdict-lint: allow(missing-shape-contract) shape-checked by gemm
Matrix matmul(const Matrix& a, const Matrix& b, Trans ta, Trans tb) {
  Matrix c(op_rows(a, ta), op_cols(b, tb));
  gemm(Real{1}, a, ta, b, tb, Real{0}, c);
  return c;
}

// extdict-lint: allow(missing-shape-contract) any matrix has a Gram matrix
Matrix gram(const Matrix& a) {
  const Index n = a.cols();
  Matrix g(n, n);
  inner_products(Real{1}, columns_of(a), columns_of(a), Real{0}, g.data(), n,
                 /*upper=*/true, /*parallel=*/n > 1);
  for (Index j = 0; j < n; ++j) {
    for (Index i = j + 1; i < n; ++i) g(i, j) = g(j, i);
  }
  return g;
}

}  // namespace extdict::la
