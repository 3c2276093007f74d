#include "core/exd.hpp"

#include <cmath>
#include <vector>

#include "la/blas.hpp"
#include "la/random.hpp"
#include "sparsecoding/batch_omp.hpp"
#include "util/contracts.hpp"
#include "util/metrics.hpp"
#include "util/timer.hpp"
#include "util/trace.hpp"

namespace extdict::core {

ExdResult exd_transform(const Matrix& a, const ExdConfig& config) {
  EXTDICT_REQUIRE_SHAPE(
      config.dictionary_size > 0 && config.dictionary_size <= a.cols(),
      "exd_transform: dictionary_size out of range");
  la::Rng rng(config.seed);
  // Alg. 1 step 0: uniform random subset of column indices forms D.
  std::vector<Index> atoms =
      rng.sample_without_replacement(a.cols(), config.dictionary_size);
  ExdResult result =
      exd_transform_with_dictionary(a, a.select_columns(atoms), config);
  result.atom_indices = std::move(atoms);
  return result;
}

ExdResult exd_transform_with_dictionary(const Matrix& a, Matrix dictionary,
                                        const ExdConfig& config) {
  EXTDICT_REQUIRE_SHAPE(dictionary.rows() == a.rows(),
                        "exd_transform_with_dictionary: row mismatch");
  EXTDICT_CHECK_FINITE(
      std::span<const Real>(a.data(), static_cast<std::size_t>(a.size())),
      "exd_transform: data matrix");
  const util::TraceScope phase(
      util::MetricsRegistry::global().span("exd.transform"), "exd.transform");
  util::Timer timer;

  sparsecoding::OmpConfig omp;
  omp.tolerance = config.tolerance;
  omp.max_atoms = config.max_atoms;

  ExdResult result;
  result.dictionary = std::move(dictionary);
  const sparsecoding::BatchOmp coder(result.dictionary, omp);
  result.coefficients = coder.encode_all(a);
  result.transform_ms = timer.elapsed_ms();
  result.transformation_error =
      transformation_error(a, result.dictionary, result.coefficients);
  util::MetricsRegistry::global().add("exd.transform_nnz",
                                      result.coefficients.nnz());
  return result;
}

Real transformation_error(const Matrix& a, const Matrix& d, const CscMatrix& c) {
  EXTDICT_REQUIRE_SHAPE(
      c.rows() == d.cols() && c.cols() == a.cols() && d.rows() == a.rows(),
      "transformation_error: shape mismatch");
  const Index n = a.cols();
  // Per-column energies, summed in column order afterwards: an OpenMP
  // reduction combines thread partials in arrival order, which made the
  // result differ in the last bits from run to run.
  std::vector<Real> num_j(static_cast<std::size_t>(n));
  std::vector<Real> den_j(static_cast<std::size_t>(n));
#pragma omp parallel for schedule(static) default(none) \
    shared(a, d, c, n, num_j, den_j) if (n > 64)
  for (Index j = 0; j < n; ++j) {
    la::Vector r(a.col(j).begin(), a.col(j).end());
    const auto rows = c.col_rows(j);
    const auto vals = c.col_values(j);
    for (std::size_t k = 0; k < rows.size(); ++k) {
      la::axpy(-vals[k], d.col(rows[k]), r);
    }
    num_j[static_cast<std::size_t>(j)] = la::dot(r, r);
    den_j[static_cast<std::size_t>(j)] = la::dot(a.col(j), a.col(j));
  }
  Real num = 0, den = 0;
  for (Index j = 0; j < n; ++j) {
    num += num_j[static_cast<std::size_t>(j)];
    den += den_j[static_cast<std::size_t>(j)];
  }
  EXTDICT_ASSERT(std::isfinite(num) && std::isfinite(den),
                 "transformation_error: non-finite residual energy");
  return den > 0 ? std::sqrt(num / den) : Real{0};
}

}  // namespace extdict::core
