#include "solvers/lasso.hpp"

#include <atomic>
#include <cmath>
#include <tuple>

#include "core/dist_gram.hpp"
#include "la/blas.hpp"
#include "la/random.hpp"
#include "solvers/adagrad.hpp"
#include "util/contracts.hpp"
#include "util/metrics.hpp"
#include "util/trace.hpp"

namespace extdict::solvers {

namespace {

// Spectral norm of the Gram operator (largest eigenvalue of AᵀA) estimated
// with a short power iteration; 1/λmax is the classical ISTA step.
Real estimate_gram_norm(const GramOperator& op) {
  la::Rng rng(97);
  la::Vector x(static_cast<std::size_t>(op.dim()));
  la::Vector gx(static_cast<std::size_t>(op.dim()));
  rng.fill_gaussian(x);
  Real lambda = 1;
  for (int it = 0; it < 30; ++it) {
    op.apply(x, gx);
    lambda = la::nrm2(gx);
    if (lambda == Real{0}) return 1;
    for (std::size_t i = 0; i < x.size(); ++i) x[i] = gx[i] / lambda;
  }
  return lambda;
}

// One proximal-gradient step on x (or a rank's slice of it), shared by the
// serial and distributed solvers. On entry g holds Gx; it becomes the smooth
// gradient Gx - Aᵀy + lambda2·x, then x <- soft_threshold(x - r·g, r·lambda)
// with r the Adagrad rate (accumulated first) or the fixed `rate`. Returns
// {‖Δx‖², ‖x‖²} for the relative-change stopping rule.
std::pair<Real, Real> proximal_step(std::span<Real> x, std::span<Real> g,
                                    std::span<const Real> aty,
                                    const LassoConfig& config, Real rate,
                                    Adagrad& adagrad) {
  for (std::size_t i = 0; i < g.size(); ++i) {
    g[i] += config.lambda2 * x[i] - aty[i];
  }
  if (config.use_adagrad) adagrad.accumulate(g);
  Real change_sq = 0, x_sq = 0;
  for (std::size_t i = 0; i < g.size(); ++i) {
    const Real r =
        config.use_adagrad ? adagrad.rate(static_cast<Index>(i)) : rate;
    const Real next = soft_threshold(x[i] - r * g[i], r * config.lambda);
    const Real d = next - x[i];
    change_sq += d * d;
    x[i] = next;
    x_sq += next * next;
  }
  return {change_sq, x_sq};
}

}  // namespace

Real elastic_net_objective(const GramOperator& op, const la::Vector& y,
                           const la::Vector& x, Real l1, Real l2) {
  EXTDICT_REQUIRE_SHAPE(static_cast<Index>(y.size()) == op.data_dim(),
                        "elastic_net_objective: y size mismatch");
  la::Vector ax(static_cast<std::size_t>(op.data_dim()));
  op.apply_forward(x, ax);
  Real fit = 0;
  for (std::size_t i = 0; i < ax.size(); ++i) {
    const Real d = ax[i] - y[i];
    fit += d * d;
  }
  Real abs_sum = 0, sq_sum = 0;
  for (Real v : x) {
    abs_sum += std::abs(v);
    sq_sum += v * v;
  }
  return Real{0.5} * fit + l1 * abs_sum + Real{0.5} * l2 * sq_sum;
}

// extdict-lint: allow(missing-shape-contract) elastic_net_objective checks the shapes
Real lasso_objective(const GramOperator& op, const la::Vector& y,
                     const la::Vector& x, Real lambda) {
  return elastic_net_objective(op, y, x, lambda, 0);
}

LassoResult lasso_solve(const GramOperator& op, const la::Vector& y,
                        const LassoConfig& config) {
  const util::TraceScope phase(
      util::MetricsRegistry::global().span("lasso.solve"), "lasso.solve");
  const Index n = op.dim();
  EXTDICT_REQUIRE_SHAPE(static_cast<Index>(y.size()) == op.data_dim(),
                        "lasso_solve: y size mismatch");

  la::Vector aty(static_cast<std::size_t>(n));
  op.apply_adjoint(y, aty);

  const Real rate = config.base_rate > 0
                        ? config.base_rate
                        : 1 / (estimate_gram_norm(op) + config.lambda2);

  LassoResult result;
  result.x.assign(static_cast<std::size_t>(n), Real{0});
  la::Vector g(static_cast<std::size_t>(n));
  Adagrad adagrad(n, rate);

  for (int it = 0; it < config.max_iterations; ++it) {
    op.apply(result.x, g);
    const auto [change_sq, x_sq] =
        proximal_step(result.x, g, aty, config, rate, adagrad);
    result.iterations = it + 1;

    if (config.objective_every > 0 && (it % config.objective_every == 0)) {
      result.objective_trace.emplace_back(
          it, elastic_net_objective(op, y, result.x, config.lambda,
                                    config.lambda2));
    }
    if (std::sqrt(change_sq) <=
        config.tolerance * std::max(Real{1}, std::sqrt(x_sq))) {
      result.converged = true;
      break;
    }
  }
  result.final_objective =
      elastic_net_objective(op, y, result.x, config.lambda, config.lambda2);
  util::MetricsRegistry::global().add(
      "lasso.iterations", static_cast<std::uint64_t>(result.iterations));
  return result;
}

// extdict-lint: allow(missing-shape-contract) lasso_solve checks the shapes
LassoResult ridge_solve(const GramOperator& op, const la::Vector& y, Real l2,
                        int max_iterations, Real tolerance) {
  LassoConfig config;
  config.lambda = 0;
  config.lambda2 = l2;
  config.max_iterations = max_iterations;
  config.tolerance = tolerance;
  config.use_adagrad = false;  // the ridge objective is smooth & strongly convex
  return lasso_solve(op, y, config);
}

DistLassoResult lasso_solve_distributed(const dist::Cluster& cluster,
                                        const Matrix& d, const CscMatrix& c,
                                        const la::Vector& y,
                                        const LassoConfig& config) {
  const util::TraceScope phase(
      util::MetricsRegistry::global().span("lasso.solve_distributed"),
      "lasso.solve_distributed");
  EXTDICT_REQUIRE_SHAPE(static_cast<Index>(y.size()) == d.rows(),
                        "lasso_solve_distributed: y size mismatch");

  // The step size must be identical on every rank; estimate it once up
  // front with the serial operator (the paper's API measures platform
  // constants in the same offline spirit). y is lifted once the same way,
  // w = Dᵀy, so each rank's Aᵀy slice is the local SpMVᵀ C_iᵀw.
  const core::TransformedGramOperator op(d, c);
  const Real rate = config.base_rate > 0
                        ? config.base_rate
                        : 1 / (estimate_gram_norm(op) + config.lambda2);
  la::Vector w(static_cast<std::size_t>(d.cols()));
  la::gemv_t(1, d, y, 0, w);

  DistLassoResult result;
  result.x.assign(static_cast<std::size_t>(c.cols()), Real{0});
  int iterations_shared = 0;
  bool converged_shared = false;
  std::atomic<std::uint64_t> update_flops{0};

  result.stats = cluster.run([&](dist::Communicator& comm) {
    const util::TraceScope rank_trace(util::TraceRecorder::global(),
                                      "lasso.rank");
    core::DistGramStep step(comm, d, c);
    const Index local_n = step.local_n();
    comm.cost().record_memory(step.resident_words() +
                              static_cast<std::uint64_t>(local_n) * 3);

    la::Vector aty_local(static_cast<std::size_t>(local_n));
    c.spmv_t_range(step.begin(), step.end(), w, aty_local);
    comm.cost().add_flops(2 * step.local_nnz());

    la::Vector x_local(static_cast<std::size_t>(local_n), Real{0});
    la::Vector g_local(static_cast<std::size_t>(local_n));
    Adagrad adagrad(std::max<Index>(local_n, 1), rate);

    int it = 0;
    bool converged = false;
    for (; it < config.max_iterations; ++it) {
      const util::TraceScope iter_trace(util::TraceRecorder::global(),
                                        "lasso.iteration", "iteration",
                                        static_cast<std::uint64_t>(it));
      step.apply(x_local, g_local);  // g = Gx through Alg. 2

      Real change_sq = 0, x_sq = 0;
      if (local_n > 0) {
        std::tie(change_sq, x_sq) =
            proximal_step(x_local, g_local, aty_local, config, rate, adagrad);
        comm.cost().add_flops(static_cast<std::uint64_t>(local_n) * 6);
      }

      const Real total_change = comm.allreduce_sum_scalar(change_sq);
      const Real total_x = comm.allreduce_sum_scalar(x_sq);
      if (std::sqrt(total_change) <=
          config.tolerance * std::max(Real{1}, std::sqrt(total_x))) {
        converged = true;
        ++it;
        break;
      }
    }

    const la::Vector gathered = comm.gather(0, std::span<const Real>(x_local));
    if (comm.rank() == 0) {
      std::copy(gathered.begin(), gathered.end(), result.x.begin());
      iterations_shared = it;
      converged_shared = converged;
    }
    update_flops += step.update_flops();
  });

  result.iterations = iterations_shared;
  result.converged = converged_shared;
  result.update_flops = update_flops;
  util::MetricsRegistry::global().add(
      "lasso.iterations", static_cast<std::uint64_t>(result.iterations));
  result.final_objective =
      elastic_net_objective(op, y, result.x, config.lambda, config.lambda2);
  return result;
}

}  // namespace extdict::solvers
