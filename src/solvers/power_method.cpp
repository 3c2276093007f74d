#include "solvers/power_method.hpp"

#include <atomic>
#include <cmath>
#include <stdexcept>

#include "core/dist_gram.hpp"
#include "la/blas.hpp"
#include "la/random.hpp"
#include "util/metrics.hpp"
#include "util/trace.hpp"

namespace extdict::solvers {

PowerResult power_method(const GramOperator& op, const PowerConfig& config) {
  const util::TraceScope phase(
      util::MetricsRegistry::global().span("power_method.solve"),
      "power_method.solve");
  const Index n = op.dim();
  const Index k = std::min<Index>(config.num_eigenpairs, n);
  la::Rng rng(config.seed);

  PowerResult result;
  result.eigenvectors = Matrix(n, k);
  result.eigenvalues.reserve(static_cast<std::size_t>(k));

  la::Vector x(static_cast<std::size_t>(n));
  la::Vector gx(static_cast<std::size_t>(n));

  for (Index e = 0; e < k; ++e) {
    rng.fill_gaussian(x);
    // Start orthogonal to the found invariant subspace.
    for (Index p = 0; p < e; ++p) {
      const Real proj = la::dot(result.eigenvectors.col(p), x);
      la::axpy(-proj, result.eigenvectors.col(p), x);
    }
    Real norm = la::nrm2(x);
    if (norm == Real{0}) {
      throw std::runtime_error("power_method: degenerate start vector");
    }
    la::scal(1 / norm, x);

    Real lambda = 0;
    int it = 0;
    for (; it < config.max_iterations; ++it) {
      op.apply(x, gx);
      // Deflation: project out converged eigenvectors (G - Σ λ v vᵀ).
      for (Index p = 0; p < e; ++p) {
        const auto v = result.eigenvectors.col(p);
        const Real proj =
            result.eigenvalues[static_cast<std::size_t>(p)] * la::dot(v, x);
        la::axpy(-proj, v, gx);
      }
      const Real next = la::nrm2(gx);
      if (next == Real{0}) break;  // x in the null space: eigenvalue 0
      for (std::size_t i = 0; i < x.size(); ++i) x[i] = gx[i] / next;
      const Real rel = std::abs(next - lambda) / std::max(next, Real{1e-30});
      lambda = next;
      if (it > 0 && rel < config.tolerance) {
        ++it;
        break;
      }
    }

    result.eigenvalues.push_back(lambda);
    std::copy(x.begin(), x.end(), result.eigenvectors.col(e).begin());
    result.iterations.push_back(it);
    util::MetricsRegistry::global().add("power_method.iterations",
                                        static_cast<std::uint64_t>(it));
  }
  return result;
}

// extdict-lint: allow(missing-shape-contract) each rank's DistGramStep checks D against C
DistPowerResult power_method_distributed(const dist::Cluster& cluster,
                                         const Matrix& d, const la::CscMatrix& c,
                                         const PowerConfig& config) {
  const util::TraceScope phase(
      util::MetricsRegistry::global().span("power_method.solve_distributed"),
      "power_method.solve_distributed");
  const Index k = std::min<Index>(config.num_eigenpairs, c.cols());

  DistPowerResult result;
  std::vector<Real> eigenvalues_shared(static_cast<std::size_t>(k), 0);
  std::vector<int> iterations_shared(static_cast<std::size_t>(k), 0);
  std::atomic<std::uint64_t> update_flops{0};

  result.stats = cluster.run([&](dist::Communicator& comm) {
    const util::TraceScope rank_trace(util::TraceRecorder::global(),
                                      "power_method.rank");
    core::DistGramStep step(comm, d, c);
    const Index rank = comm.rank();
    const Index local_n = step.local_n();
    comm.cost().record_memory(step.resident_words() +
                              static_cast<std::uint64_t>(local_n) * (2 + k));

    la::Vector x(static_cast<std::size_t>(local_n));
    la::Vector gx(static_cast<std::size_t>(local_n));
    // Converged eigenvector slices, one column per found pair. Eigenvalues
    // are rank-local copies: the all-reduced Rayleigh norms are bitwise
    // identical on every rank, so no extra publication round is needed.
    Matrix basis(std::max<Index>(local_n, 1), k);
    la::Vector eigs_local(static_cast<std::size_t>(k), Real{0});

    auto global_dot = [&](std::span<const Real> u, std::span<const Real> w) {
      const Real local = la::dot(u, w);
      comm.cost().add_flops(2 * u.size());
      return comm.allreduce_sum_scalar(local);
    };

    for (Index pair = 0; pair < k; ++pair) {
      const util::TraceScope pair_trace(util::TraceRecorder::global(),
                                        "power_method.pair", "pair",
                                        static_cast<std::uint64_t>(pair));
      // Deterministic start: every rank seeds its own slice; orthogonalise
      // against the converged invariant subspace.
      la::Rng rng(config.seed * 1315423911ULL +
                  static_cast<std::uint64_t>(pair) * 2654435761ULL +
                  static_cast<std::uint64_t>(rank));
      rng.fill_gaussian(x);
      for (Index p = 0; p < pair; ++p) {
        auto vp = std::span<const Real>(basis.col(p)).first(
            static_cast<std::size_t>(local_n));
        const Real proj = global_dot(vp, x);
        la::axpy(-proj, vp, std::span<Real>(x));
      }
      Real norm = std::sqrt(global_dot(x, x));
      if (norm > 0) la::scal(1 / norm, std::span<Real>(x));

      Real lambda = 0;
      int it = 0;
      for (; it < config.max_iterations; ++it) {
        const util::TraceScope iter_trace(util::TraceRecorder::global(),
                                          "power_method.iteration",
                                          "iteration",
                                          static_cast<std::uint64_t>(it));
        step.apply(x, gx);  // Gx through Alg. 2
        // Deflation on distributed slices: gx -= λ_p v_p (v_pᵀ x).
        for (Index p = 0; p < pair; ++p) {
          auto vp = std::span<const Real>(basis.col(p)).first(
              static_cast<std::size_t>(local_n));
          const Real proj =
              eigs_local[static_cast<std::size_t>(p)] * global_dot(vp, x);
          la::axpy(-proj, vp, std::span<Real>(gx));
        }
        const Real next = std::sqrt(global_dot(gx, gx));
        if (next == Real{0}) break;
        for (Index i = 0; i < local_n; ++i) {
          x[static_cast<std::size_t>(i)] = gx[static_cast<std::size_t>(i)] / next;
        }
        const Real rel = std::abs(next - lambda) / std::max(next, Real{1e-30});
        lambda = next;
        if (it > 0 && rel < config.tolerance) {
          ++it;
          break;
        }
      }

      auto dst = basis.col(pair);
      std::copy(x.begin(), x.end(), dst.begin());
      eigs_local[static_cast<std::size_t>(pair)] = lambda;
      if (rank == 0) iterations_shared[static_cast<std::size_t>(pair)] = it;
    }
    if (rank == 0) {
      std::copy(eigs_local.begin(), eigs_local.end(), eigenvalues_shared.begin());
    }
    update_flops += step.update_flops();
  });

  result.eigenvalues = std::move(eigenvalues_shared);
  result.iterations = std::move(iterations_shared);
  result.update_flops = update_flops;
  return result;
}

Real eigenvalue_error(const std::vector<Real>& found,
                      const std::vector<Real>& reference) {
  const std::size_t k = std::min(found.size(), reference.size());
  if (k == 0) throw std::invalid_argument("eigenvalue_error: empty spectra");
  Real num = 0, den = 0;
  for (std::size_t i = 0; i < k; ++i) {
    num += std::abs(found[i] - reference[i]);
    den += std::abs(reference[i]);
  }
  return den > 0 ? num / den : Real{0};
}

}  // namespace extdict::solvers
