#pragma once

#include <cstdint>
#include <vector>

#include "core/gram_operator.hpp"
#include "dist/cluster.hpp"
#include "la/csc_matrix.hpp"
#include "la/matrix.hpp"

namespace extdict::solvers {

using core::GramOperator;
using la::CscMatrix;
using la::Index;
using la::Matrix;
using la::Real;

/// LASSO: min_x 1/2 ||A x - y||² + lambda ||x||_1, solved by proximal
/// gradient descent (ISTA) with per-coordinate Adagrad rates — the paper's
/// gradient-descent configuration for the denoising and super-resolution
/// applications (§VIII-A).
struct LassoConfig {
  Real lambda = 1e-3;     ///< L1 weight
  Real lambda2 = 0;       ///< L2 weight: > 0 turns the problem into
                          ///< Elastic-Net (both) or Ridge (lambda == 0)
  Real base_rate = 0;     ///< 0 = auto: 1 / (spectral norm of G estimate)
  int max_iterations = 500;
  Real tolerance = 1e-6;  ///< relative x-change stopping rule
  bool use_adagrad = true;
  int objective_every = 10;  ///< trace granularity (0 = never)
};

struct LassoResult {
  la::Vector x;
  int iterations = 0;
  bool converged = false;
  Real final_objective = 0;
  std::vector<std::pair<int, Real>> objective_trace;  ///< (iteration, J)
};

/// Serial solver over any Gram operator (dense AᵀA or the ExD-transformed
/// (DC)ᵀDC) — the solver never sees which it got.
[[nodiscard]] LassoResult lasso_solve(const GramOperator& op,
                                      const la::Vector& y,
                                      const LassoConfig& config);

/// Distributed solver on the transformed data: Algorithm 2's communication
/// pattern per gradient step plus local proximal updates on each rank's
/// slice of x. Produces the same iterates as the serial solver (up to
/// floating point reduction order); the run's cost counters are returned
/// for the Fig. 9 runtime model.
struct DistLassoResult {
  la::Vector x;
  int iterations = 0;
  bool converged = false;
  Real final_objective = 0;
  dist::RunStats stats;
  /// FLOPs of the Alg. 2 Gram updates alone, summed over ranks and
  /// iterations (same meaning as core::DistGramResult::update_flops).
  std::uint64_t update_flops = 0;
};

[[nodiscard]] DistLassoResult lasso_solve_distributed(
    const dist::Cluster& cluster, const Matrix& d, const CscMatrix& c,
    const la::Vector& y, const LassoConfig& config);

/// Objective value 1/2||Ax-y||² + lambda||x||_1 through an operator.
[[nodiscard]] Real lasso_objective(const GramOperator& op, const la::Vector& y,
                                   const la::Vector& x, Real lambda);

/// Elastic-Net objective 1/2||Ax-y||² + l1||x||_1 + l2/2||x||².
[[nodiscard]] Real elastic_net_objective(const GramOperator& op,
                                         const la::Vector& y,
                                         const la::Vector& x, Real l1, Real l2);

/// Ridge regression: min 1/2||Ax-y||² + l2/2 ||x||², solved by the same
/// gradient machinery (lambda = 0, lambda2 = l2).
[[nodiscard]] LassoResult ridge_solve(const GramOperator& op, const la::Vector& y,
                                      Real l2, int max_iterations = 500,
                                      Real tolerance = 1e-8);

}  // namespace extdict::solvers
