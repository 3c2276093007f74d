#include "solvers/cg.hpp"

#include <cmath>
#include <stdexcept>

#include "la/blas.hpp"
#include "util/contracts.hpp"

namespace extdict::solvers {

CgResult conjugate_gradient(const GramOperator& op, const la::Vector& b,
                            const CgConfig& config) {
  const Index n = op.dim();
  EXTDICT_REQUIRE_SHAPE(static_cast<Index>(b.size()) == n,
                        "conjugate_gradient: b size mismatch");
  if (config.shift < 0) {
    throw std::invalid_argument("conjugate_gradient: shift must be >= 0");
  }

  CgResult result;
  result.x.assign(static_cast<std::size_t>(n), Real{0});
  const Real b_norm = la::nrm2(b);
  if (b_norm == Real{0}) {
    result.converged = true;
    return result;
  }

  la::Vector r = b;  // r = b - (G + shift) * 0
  la::Vector p = r;
  la::Vector gp(static_cast<std::size_t>(n));
  Real rr = la::dot(r, r);

  for (int it = 0; it < config.max_iterations; ++it) {
    op.apply(p, gp);
    if (config.shift != Real{0}) la::axpy(config.shift, p, gp);
    const Real p_gp = la::dot(p, gp);
    if (p_gp <= Real{0}) break;  // numerical breakdown / semidefinite dir
    const Real alpha = rr / p_gp;
    la::axpy(alpha, p, result.x);
    la::axpy(-alpha, gp, r);
    const Real rr_next = la::dot(r, r);
    result.iterations = it + 1;
    if (std::sqrt(rr_next) <= config.tolerance * b_norm) {
      result.converged = true;
      rr = rr_next;
      break;
    }
    const Real beta = rr_next / rr;
    for (std::size_t i = 0; i < p.size(); ++i) {
      p[i] = r[i] + beta * p[i];
    }
    rr = rr_next;
  }
  result.relative_residual = std::sqrt(rr) / b_norm;
  if (result.relative_residual <= config.tolerance) result.converged = true;
  return result;
}

}  // namespace extdict::solvers
