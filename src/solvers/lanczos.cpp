#include "solvers/lanczos.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <stdexcept>

#include "la/blas.hpp"
#include "la/random.hpp"
#include "util/contracts.hpp"

namespace extdict::solvers {

void tridiagonal_eigen(std::vector<Real>& diag, std::vector<Real>& sub,
                       Matrix* z) {
  // Implicit-shift QL for symmetric tridiagonal matrices (classic
  // "tql2"-style routine). diag holds d_0..d_{n-1}; sub holds the
  // sub-diagonal e_0..e_{n-2} (e_{n-1} used as scratch).
  const Index n = static_cast<Index>(diag.size());
  if (n == 0) return;
  if (static_cast<Index>(sub.size()) < n) sub.resize(static_cast<std::size_t>(n), 0);
  EXTDICT_REQUIRE_SHAPE(z == nullptr || z->cols() == n,
                        "tridiagonal_eigen: z column mismatch");
  sub[static_cast<std::size_t>(n - 1)] = 0;

  for (Index l = 0; l < n; ++l) {
    int iterations = 0;
    for (;;) {
      // Find a small sub-diagonal element to split at.
      Index m = l;
      for (; m < n - 1; ++m) {
        const Real dd = std::abs(diag[static_cast<std::size_t>(m)]) +
                        std::abs(diag[static_cast<std::size_t>(m + 1)]);
        if (std::abs(sub[static_cast<std::size_t>(m)]) <= 1e-15 * dd) break;
      }
      if (m == l) break;
      if (++iterations > 50) {
        throw std::runtime_error("tridiagonal_eigen: QL failed to converge");
      }
      // Form the implicit shift.
      Real g = (diag[static_cast<std::size_t>(l + 1)] -
                diag[static_cast<std::size_t>(l)]) /
               (2 * sub[static_cast<std::size_t>(l)]);
      Real r = std::hypot(g, Real{1});
      g = diag[static_cast<std::size_t>(m)] - diag[static_cast<std::size_t>(l)] +
          sub[static_cast<std::size_t>(l)] /
              (g + (g >= 0 ? std::abs(r) : -std::abs(r)));
      Real s = 1, c = 1, p = 0;
      for (Index i = m - 1; i >= l; --i) {
        Real f = s * sub[static_cast<std::size_t>(i)];
        const Real b = c * sub[static_cast<std::size_t>(i)];
        r = std::hypot(f, g);
        sub[static_cast<std::size_t>(i + 1)] = r;
        if (r == Real{0}) {
          diag[static_cast<std::size_t>(i + 1)] -= p;
          sub[static_cast<std::size_t>(m)] = 0;
          break;
        }
        s = f / r;
        c = g / r;
        g = diag[static_cast<std::size_t>(i + 1)] - p;
        r = (diag[static_cast<std::size_t>(i)] - g) * s + 2 * c * b;
        p = s * r;
        diag[static_cast<std::size_t>(i + 1)] = g + p;
        g = c * r - b;
        if (z) {
          for (Index row = 0; row < z->rows(); ++row) {
            const Real zi1 = (*z)(row, i + 1);
            const Real zi = (*z)(row, i);
            (*z)(row, i + 1) = s * zi + c * zi1;
            (*z)(row, i) = c * zi - s * zi1;
          }
        }
        if (i == l) break;  // Index is signed but avoid wrap at l == 0
      }
      if (r == Real{0} && m - 1 >= l) continue;
      diag[static_cast<std::size_t>(l)] -= p;
      sub[static_cast<std::size_t>(l)] = g;
      sub[static_cast<std::size_t>(m)] = 0;
    }
  }
}

LanczosResult lanczos(const GramOperator& op, const LanczosConfig& config) {
  const Index n = op.dim();
  const Index k = std::min<Index>(config.num_eigenpairs, n);
  const Index max_dim = std::min<Index>(
      n, config.max_subspace > 0 ? config.max_subspace : 4 * k + 20);
  if (k <= 0) throw std::invalid_argument("lanczos: need at least one pair");

  la::Rng rng(config.seed);
  Matrix basis(n, max_dim);  // Lanczos vectors q_0 .. q_{j}
  std::vector<Real> alpha;   // tridiagonal diagonal
  std::vector<Real> beta;    // tridiagonal sub-diagonal

  {
    auto q0 = basis.col(0);
    rng.fill_gaussian(q0);
    const Real norm = la::nrm2(q0);
    la::scal(1 / norm, q0);
  }

  LanczosResult result;
  la::Vector w(static_cast<std::size_t>(n));
  Index dim = 0;

  for (Index j = 0; j < max_dim; ++j) {
    auto qj = basis.col(j);
    op.apply(qj, w);
    ++result.gram_products;

    Real a = la::dot(qj, w);
    alpha.push_back(a);
    la::axpy(-a, qj, w);
    if (j > 0) la::axpy(-beta.back(), basis.col(j - 1), w);

    // Full reorthogonalisation (twice) — Gram spectra have huge dynamic
    // range and plain Lanczos loses orthogonality immediately.
    for (int pass = 0; pass < 2; ++pass) {
      for (Index i = 0; i <= j; ++i) {
        const Real proj = la::dot(basis.col(i), w);
        la::axpy(-proj, basis.col(i), w);
      }
    }

    const Real b = la::nrm2(w);
    dim = j + 1;
    if (dim >= std::max<Index>(k + 2, 2)) {
      // Check Ritz convergence: |beta_j * s_{last,i}| small for the top-k.
      std::vector<Real> d = alpha;
      std::vector<Real> e = beta;
      e.resize(d.size(), 0);
      Matrix s(static_cast<Index>(d.size()), static_cast<Index>(d.size()));
      for (Index i = 0; i < s.rows(); ++i) s(i, i) = 1;
      tridiagonal_eigen(d, e, &s);
      // d ascending; top-k are the last k entries.
      bool converged = true;
      for (Index t = 0; t < k; ++t) {
        const Index idx = static_cast<Index>(d.size()) - 1 - t;
        const Real resid = std::abs(b * s(static_cast<Index>(d.size()) - 1, idx));
        if (resid > config.tolerance * std::max(std::abs(d[static_cast<std::size_t>(idx)]),
                                                Real{1e-30})) {
          converged = false;
          break;
        }
      }
      if (converged || b <= 1e-14 || dim == max_dim) {
        // Assemble the Ritz pairs.
        result.subspace_dimension = static_cast<int>(dim);
        result.eigenvalues.resize(static_cast<std::size_t>(k));
        result.eigenvectors = Matrix(n, k);
        for (Index t = 0; t < k; ++t) {
          const Index idx = static_cast<Index>(d.size()) - 1 - t;
          result.eigenvalues[static_cast<std::size_t>(t)] =
              d[static_cast<std::size_t>(idx)];
          auto dst = result.eigenvectors.col(t);
          std::fill(dst.begin(), dst.end(), Real{0});
          for (Index i = 0; i < dim; ++i) {
            la::axpy(s(i, idx), basis.col(i), dst);
          }
          const Real norm = la::nrm2(dst);
          if (norm > 0) la::scal(1 / norm, dst);
        }
        return result;
      }
    }
    if (b <= 1e-14) {
      // Invariant subspace exhausted before convergence check: restart
      // direction.
      auto next = basis.col(j + 1);
      rng.fill_gaussian(next);
      for (int pass = 0; pass < 2; ++pass) {
        for (Index i = 0; i <= j; ++i) {
          const Real proj = la::dot(basis.col(i), next);
          la::axpy(-proj, basis.col(i), next);
        }
      }
      const Real norm = la::nrm2(next);
      la::scal(1 / norm, next);
      beta.push_back(0);
      continue;
    }
    beta.push_back(b);
    if (j + 1 < max_dim) {
      auto next = basis.col(j + 1);
      for (Index i = 0; i < n; ++i) {
        next[static_cast<std::size_t>(i)] = w[static_cast<std::size_t>(i)] / b;
      }
    }
  }
  throw std::runtime_error("lanczos: subspace exhausted without convergence");
}

}  // namespace extdict::solvers
