#include "solvers/svm.hpp"

#include <stdexcept>

#include "la/blas.hpp"
#include "util/contracts.hpp"

namespace extdict::solvers {

LsSvm::LsSvm(const core::GramOperator& op, const la::Vector& labels,
             const SvmConfig& config)
    : op_(&op) {
  const Index n = op.dim();
  EXTDICT_REQUIRE_SHAPE(static_cast<Index>(labels.size()) == n,
                        "LsSvm: label count != column count");
  if (config.gamma <= 0) {
    throw std::invalid_argument("LsSvm: gamma must be > 0");
  }

  // Block elimination: solve (K + I/gamma) u = 1 and (K + I/gamma) v = y,
  // then b = (1ᵀ v) / (1ᵀ u) and alpha = v - b u.
  CgConfig cg;
  cg.shift = 1 / config.gamma;
  cg.max_iterations = config.max_cg_iterations;
  cg.tolerance = config.cg_tolerance;

  const la::Vector ones(static_cast<std::size_t>(n), Real{1});
  const CgResult u = conjugate_gradient(op, ones, cg);
  const CgResult v = conjugate_gradient(op, labels, cg);
  cg_iterations_ = u.iterations + v.iterations;

  Real ones_u = 0, ones_v = 0;
  for (Index i = 0; i < n; ++i) {
    ones_u += u.x[static_cast<std::size_t>(i)];
    ones_v += v.x[static_cast<std::size_t>(i)];
  }
  if (ones_u == Real{0}) {
    throw std::runtime_error("LsSvm: singular bias system");
  }
  bias_ = ones_v / ones_u;
  alpha_ = v.x;
  la::axpy(-bias_, u.x, alpha_);
}

Real LsSvm::decision(std::span<const Real> signal) const {
  EXTDICT_REQUIRE_SHAPE(static_cast<Index>(signal.size()) == op_->data_dim(),
                        "LsSvm::decision: signal size mismatch");
  // f(x) = alphaᵀ (Aᵀ x) + b.
  la::Vector atx(static_cast<std::size_t>(op_->dim()));
  op_->apply_adjoint(signal, atx);
  return la::dot(alpha_, atx) + bias_;
}

la::Vector LsSvm::training_decisions() const {
  la::Vector ka(static_cast<std::size_t>(op_->dim()));
  op_->apply(alpha_, ka);
  for (Real& v : ka) v += bias_;
  return ka;
}

Real training_accuracy(const LsSvm& svm, const la::Vector& labels) {
  const la::Vector f = svm.training_decisions();
  EXTDICT_REQUIRE_SHAPE(f.size() == labels.size() && !f.empty(),
                        "training_accuracy: size mismatch");
  Index correct = 0;
  for (std::size_t i = 0; i < f.size(); ++i) {
    if ((f[i] >= 0 ? 1.0 : -1.0) == (labels[i] >= 0 ? 1.0 : -1.0)) ++correct;
  }
  return static_cast<Real>(correct) / static_cast<Real>(f.size());
}

}  // namespace extdict::solvers
