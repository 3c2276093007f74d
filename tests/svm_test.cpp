#include "solvers/svm.hpp"

#include <gtest/gtest.h>

#include "core/exd.hpp"
#include "la/blas.hpp"
#include "la/random.hpp"
#include "util/contracts.hpp"

namespace extdict::solvers {
namespace {

using core::DenseGramOperator;
using core::TransformedGramOperator;
using la::Index;
using la::Matrix;

// Two Gaussian blobs around +/- mu, columns normalised like every library
// dataset; labels +/- 1.
struct TwoBlobs {
  Matrix a;
  la::Vector labels;
};

TwoBlobs make_blobs(Index m = 20, Index per_class = 40, Real separation = 2.0,
                    std::uint64_t seed = 301) {
  la::Rng rng(seed);
  TwoBlobs data;
  data.a = Matrix(m, 2 * per_class);
  data.labels.resize(static_cast<std::size_t>(2 * per_class));
  la::Vector center(static_cast<std::size_t>(m));
  rng.fill_gaussian(center);
  const Real norm = la::nrm2(center);
  la::scal(separation / norm, center);
  for (Index j = 0; j < 2 * per_class; ++j) {
    const Real sign = j < per_class ? 1.0 : -1.0;
    auto col = data.a.col(j);
    for (Index i = 0; i < m; ++i) {
      col[static_cast<std::size_t>(i)] =
          sign * center[static_cast<std::size_t>(i)] + rng.gaussian(0, 0.4);
    }
    data.labels[static_cast<std::size_t>(j)] = sign;
  }
  data.a.normalize_columns();
  return data;
}

TEST(LsSvm, SeparatesTwoBlobs) {
  const TwoBlobs data = make_blobs();
  DenseGramOperator op(data.a);
  const LsSvm svm(op, data.labels, {});
  EXPECT_GE(training_accuracy(svm, data.labels), 0.97);
  EXPECT_GT(svm.cg_iterations(), 0);
}

TEST(LsSvm, ClassifiesHeldOutSignals) {
  const TwoBlobs data = make_blobs(20, 50, 2.0, 302);
  DenseGramOperator op(data.a);
  const LsSvm svm(op, data.labels, {});

  // Fresh samples from the same blobs.
  la::Rng rng(303);
  const TwoBlobs fresh = make_blobs(20, 10, 2.0, 302);  // same seed = same centre
  int correct = 0;
  for (Index j = 0; j < fresh.a.cols(); ++j) {
    if (svm.classify(fresh.a.col(j)) ==
        (fresh.labels[static_cast<std::size_t>(j)] > 0 ? 1 : -1)) {
      ++correct;
    }
  }
  EXPECT_GE(correct, 18);  // >= 90% of 20
  (void)rng;
}

TEST(LsSvm, DecisionIsAffineInAlphaAndBias) {
  // training_decisions == K alpha + b elementwise.
  const TwoBlobs data = make_blobs(15, 20, 2.0, 304);
  DenseGramOperator op(data.a);
  const LsSvm svm(op, data.labels, {});
  const la::Vector f = svm.training_decisions();
  la::Vector ka(static_cast<std::size_t>(data.a.cols()));
  op.apply(svm.dual_coefficients(), ka);
  for (std::size_t i = 0; i < f.size(); ++i) {
    EXPECT_NEAR(f[i], ka[i] + svm.bias(), 1e-9);
  }
}

TEST(LsSvm, TransformedOperatorGivesSameClassifier) {
  const TwoBlobs data = make_blobs(25, 40, 2.0, 305);
  core::ExdConfig exd;
  exd.dictionary_size = 25;
  exd.tolerance = 1e-8;
  const auto t = core::exd_transform(data.a, exd);
  DenseGramOperator dense(data.a);
  TransformedGramOperator transformed(t.dictionary, t.coefficients);
  const LsSvm svm_dense(dense, data.labels, {});
  const LsSvm svm_trans(transformed, data.labels, {});
  // Same labels on every training column.
  const la::Vector fd = svm_dense.training_decisions();
  const la::Vector ft = svm_trans.training_decisions();
  for (std::size_t i = 0; i < fd.size(); ++i) {
    EXPECT_EQ(fd[i] >= 0, ft[i] >= 0) << "column " << i;
  }
}

TEST(LsSvm, Validation) {
  const TwoBlobs data = make_blobs(10, 10, 2.0, 306);
  DenseGramOperator op(data.a);
  la::Vector short_labels(5);
  EXPECT_THROW(LsSvm(op, short_labels, {}), std::invalid_argument);
  SvmConfig bad;
  bad.gamma = 0;
  EXPECT_THROW(LsSvm(op, data.labels, bad), std::invalid_argument);
  const LsSvm svm(op, data.labels, {});
  la::Vector wrong_dim(11);
  EXPECT_THROW((void)svm.decision(wrong_dim), std::invalid_argument);
  // The size checks are shape contracts.
  EXPECT_THROW(LsSvm(op, short_labels, {}), util::ContractViolation);
  EXPECT_THROW((void)svm.decision(wrong_dim), util::ContractViolation);
  EXPECT_THROW((void)training_accuracy(svm, short_labels),
               util::ContractViolation);
}

TEST(LsSvm, SofterMarginShrinksDualCoefficients) {
  const TwoBlobs data = make_blobs(20, 30, 1.0, 307);
  DenseGramOperator op(data.a);
  SvmConfig hard, soft;
  hard.gamma = 100;
  soft.gamma = 0.1;
  const LsSvm svm_hard(op, data.labels, hard);
  const LsSvm svm_soft(op, data.labels, soft);
  EXPECT_LT(la::nrm2(svm_soft.dual_coefficients()),
            la::nrm2(svm_hard.dual_coefficients()));
}

}  // namespace
}  // namespace extdict::solvers
