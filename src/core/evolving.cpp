#include "core/evolving.hpp"

#include <algorithm>
#include <utility>

#include "core/gram_extend.hpp"
#include "la/blas.hpp"
#include "la/random.hpp"
#include "sparsecoding/batch_omp.hpp"
#include "util/contracts.hpp"

namespace extdict::core {

Matrix select_extension_atoms(const Matrix& hard, const ExdConfig& config) {
  EXTDICT_REQUIRE_SHAPE(hard.cols() > 0,
                        "select_extension_atoms: no candidate columns");
  const Index count = std::min<Index>(
      std::max<Index>(config.dictionary_size, 1), hard.cols());
  la::Rng rng(config.seed);
  const std::vector<Index> atoms =
      rng.sample_without_replacement(hard.cols(), count);
  return hard.select_columns(atoms);
}

EvolveReport evolve(ExdResult& exd, const Matrix& a_new, const ExdConfig& config) {
  EXTDICT_REQUIRE_SHAPE(a_new.rows() == exd.dictionary.rows(),
                        "evolve: row mismatch with existing dictionary");
  // Checked here, before the parallel coding loop: a contract thrown from
  // inside an OpenMP region cannot propagate and would terminate instead.
  EXTDICT_CHECK_FINITE(
      std::span<const Real>(a_new.data(), static_cast<std::size_t>(a_new.size())),
      "evolve: new columns");
  EvolveReport report;
  report.new_columns = a_new.cols();
  if (a_new.cols() == 0) return report;

  sparsecoding::OmpConfig omp;
  omp.tolerance = config.tolerance;
  omp.max_atoms = config.max_atoms;

  // Pass 1: code the new columns against the current dictionary and find
  // the ones whose residual misses the ε criterion.
  const sparsecoding::BatchOmp coder(exd.dictionary, omp);
  const Index n_new = a_new.cols();
  std::vector<sparsecoding::SparseCode> codes(static_cast<std::size_t>(n_new));
#pragma omp parallel for schedule(dynamic, 16) default(none) \
    shared(a_new, codes, coder, n_new) if (n_new > 1)
  for (Index j = 0; j < n_new; ++j) {
    codes[static_cast<std::size_t>(j)] = coder.encode(a_new.col(j));
  }

  std::vector<Index> failed;
  for (Index j = 0; j < n_new; ++j) {
    const Real norm = la::nrm2(a_new.col(j));
    if (codes[static_cast<std::size_t>(j)].residual_norm >
        config.tolerance * norm * Real{1.001}) {
      failed.push_back(j);
    }
  }
  report.expressed_columns = n_new - static_cast<Index>(failed.size());
  report.failed_columns = static_cast<Index>(failed.size());

  const Index old_l = exd.dictionary.cols();

  if (!failed.empty()) {
    // Pass 2: sample new atoms from the failing columns only.
    const Matrix hard = a_new.select_columns(failed);
    const Matrix new_atoms = select_extension_atoms(hard, config);
    report.new_atoms = new_atoms.cols();
    report.dictionary_extended = true;

    // Grow the pass-1 coder's Gram by bordering — the old D is still intact
    // here, which is what the cross block DᵀA_new needs. No la::gram on the
    // extended dictionary anywhere on this path.
    Matrix extended_gram =
        extend_gram_bordered(coder.gram(), exd.dictionary, new_atoms);

    // Fig. 3 zero-padding: old C gains `new_atoms` zero rows at the bottom.
    exd.dictionary.append_columns(new_atoms);
    exd.coefficients.pad_rows(old_l + report.new_atoms);

    // Re-code the failing columns against the extended dictionary (their
    // pass-1 codes were below tolerance).
    const sparsecoding::BatchOmp recoder(exd.dictionary,
                                         std::move(extended_gram), omp);
    const Index n_failed = report.failed_columns;
#pragma omp parallel for schedule(dynamic, 16) default(none) \
    shared(a_new, codes, failed, recoder, n_failed) if (n_failed > 1)
    for (Index k = 0; k < n_failed; ++k) {
      const Index j = failed[static_cast<std::size_t>(k)];
      // codes[j] is iteration-unique because `failed` holds distinct column
      // indices (built by a strictly increasing scan of [0, n_new)), but the
      // analyzer cannot prove uniqueness through the indirection.
      // extdict-lint: allow(omp-sharing) failed[] holds distinct indices, so codes[j] is iteration-unique
      codes[static_cast<std::size_t>(j)] = recoder.encode(a_new.col(j));
    }
    report.reencoded_columns = n_failed;
  }

  // The pass-2 recodes were never checked against ε before: record the
  // achieved quality so callers see (instead of silently absorbing) columns
  // the sampled atoms still cannot express.
  for (Index j = 0; j < n_new; ++j) {
    const Real norm = la::nrm2(a_new.col(j));
    const Real residual = codes[static_cast<std::size_t>(j)].residual_norm;
    const Real relative = norm > 0 ? residual / norm : Real{0};
    report.max_post_extension_residual =
        std::max(report.max_post_extension_residual, relative);
    if (residual > config.tolerance * norm * Real{1.001}) {
      ++report.unresolved_columns;
    }
  }

  // Splice the new columns into C.
  std::vector<std::vector<std::pair<Index, Real>>> new_cols(
      static_cast<std::size_t>(n_new));
  for (Index j = 0; j < n_new; ++j) {
    new_cols[static_cast<std::size_t>(j)] =
        std::move(codes[static_cast<std::size_t>(j)].entries);
  }
  exd.coefficients.append_columns(
      la::CscMatrix::from_columns(exd.dictionary.cols(), new_cols));
  return report;
}

}  // namespace extdict::core
