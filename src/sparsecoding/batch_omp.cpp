#include "sparsecoding/batch_omp.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <utility>

#include "la/blas.hpp"
#include "la/cholesky.hpp"
#include "util/contracts.hpp"
#include "util/metrics.hpp"
#include "util/trace.hpp"

namespace extdict::sparsecoding {

// extdict-lint: allow(missing-shape-contract) any dictionary shape is valid; gram() validates
BatchOmp::BatchOmp(const Matrix& dict, OmpConfig config)
    : dict_(&dict), gram_(la::gram(dict)), config_(config) {}

BatchOmp::BatchOmp(const Matrix& dict, Matrix gram, OmpConfig config)
    : dict_(&dict), gram_(std::move(gram)), config_(config) {
  EXTDICT_REQUIRE_SHAPE(
      gram_.rows() == dict.cols() && gram_.cols() == dict.cols(),
      "BatchOmp: supplied Gram is " + std::to_string(gram_.rows()) + "x" +
          std::to_string(gram_.cols()) + " but the dictionary has " +
          std::to_string(dict.cols()) + " columns");
}

namespace {

// Columns per block in `encode_columns`: one gemm(kYes) computes the
// block's α₀ into an L×kBlockColumns scratch, never the whole L×N.
constexpr Index kBlockColumns = 24;

Index atom_budget(const OmpConfig& config, Index m, Index l) {
  const Index cap = std::min(m, l);
  return config.max_atoms > 0 ? std::min(config.max_atoms, cap) : cap;
}

}  // namespace

// Per-thread scratch of the Gram-domain iterations, reused across the
// columns one thread codes.
struct BatchOmp::Workspace {
  explicit Workspace(Index atoms)
      : chol(std::max<Index>(atoms, 1)),
        used(static_cast<std::size_t>(atoms)),
        alpha(static_cast<std::size_t>(atoms)) {}

  la::ProgressiveCholesky chol;
  std::vector<char> used;      // atom already selected or rejected
  la::Vector alpha;            // Dᵀr, kept through the Gram
  std::vector<Index> selected;
  la::Vector gamma;            // coefficients on the selection
  la::Vector g_new;            // G(selected, k)
};

// extdict-lint: allow(missing-shape-contract) delegates to the checked overload
SparseCode BatchOmp::encode(std::span<const Real> signal) const {
  return encode(signal, config_);
}

SparseCode BatchOmp::encode(std::span<const Real> signal,
                            const OmpConfig& config) const {
  const Index m = dict_->rows();
  const Index l = dict_->cols();
  EXTDICT_REQUIRE_SHAPE(static_cast<Index>(signal.size()) == m,
                        "BatchOmp::encode: |signal|=" +
                            std::to_string(signal.size()) +
                            " but dictionary has " + std::to_string(m) +
                            " rows");

  EXTDICT_CHECK_FINITE(signal, "BatchOmp::encode: signal");

  // The block-of-one case of encode_columns: gemv_t's entries are bitwise
  // the gemm(kYes) entries a block computes.
  Workspace ws(l);
  const Real eps0 = la::dot(signal, signal);
  la::Vector alpha0(static_cast<std::size_t>(l));
  if (eps0 != Real{0}) la::gemv_t(1, *dict_, signal, 0, alpha0);
  return pursue(eps0, alpha0, config, ws);
}

// extdict-lint: allow(missing-shape-contract) private; encode and encode_columns check the signal and size alpha0 from the dictionary
SparseCode BatchOmp::pursue(Real eps0, std::span<const Real> alpha0,
                            const OmpConfig& config, Workspace& ws) const {
  const Index m = dict_->rows();
  const Index l = dict_->cols();
  const Index max_atoms = atom_budget(config, m, l);

  SparseCode code;
  // Exact FLOP meter (2 FLOPs per multiply-add, matching la/blas.hpp's
  // gemv_flops/gemm_flops convention). Each kernel call below charges its
  // actual runtime size so `code.flops` is the true count even on runs with
  // dependent-atom rejections; on clean runs it equals `encode_flops(k)`.
  const auto um = static_cast<std::uint64_t>(m);
  const auto ul = static_cast<std::uint64_t>(l);
  std::uint64_t flops = 2 * um;  // eps0 = <x, x>
  if (eps0 == Real{0} || max_atoms == 0) {
    code.flops = flops;
    return code;
  }
  // Stop when ||r||² <= (ε ||x||)².
  const Real target_sq = config.tolerance * config.tolerance * eps0;

  // alpha0 = Dᵀ x (computed by the caller); alpha = Dᵀ r maintained via
  // the Gram.
  flops += 2 * um * ul;
  la::Vector& alpha = ws.alpha;
  std::copy(alpha0.begin(), alpha0.end(), alpha.begin());
  std::fill(ws.used.begin(), ws.used.end(), char{0});
  ws.chol.reset();
  std::vector<Index>& selected = ws.selected;
  selected.clear();
  la::Vector& gamma = ws.gamma;
  la::Vector& g_new = ws.g_new;
  Real eps = eps0;
  std::uint64_t n_used = 0;  // `used` flags set, for the scan charge

  while (eps > target_sq && static_cast<Index>(selected.size()) < max_atoms) {
    Index best = -1;
    Real best_abs = 0;
    flops += ul - n_used;  // argmax scan touches each unused candidate once
    for (Index j = 0; j < l; ++j) {
      if (ws.used[static_cast<std::size_t>(j)]) continue;
      const Real a = std::abs(alpha[static_cast<std::size_t>(j)]);
      if (a > best_abs) {
        best_abs = a;
        best = j;
      }
    }
    if (best < 0 || best_abs <= 1e-14 * std::sqrt(eps0)) break;

    // Grow the Cholesky factor of G(selected, selected).
    const Index k = static_cast<Index>(selected.size());
    g_new.resize(static_cast<std::size_t>(k));
    for (Index a = 0; a < k; ++a) {
      g_new[static_cast<std::size_t>(a)] =
          gram_(selected[static_cast<std::size_t>(a)], best);
    }
    // ProgressiveCholesky::append at size k: forward solve L w = g_new
    // (k² + 2k multiply-adds incl. the squared-sum accumulation) plus the
    // Schur complement and its square root. Charged whether or not the
    // pivot check accepts the atom — the solve ran either way.
    const auto uk = static_cast<std::uint64_t>(k);
    flops += uk * uk + 2 * uk + 2;
    ws.used[static_cast<std::size_t>(best)] = 1;
    ++n_used;
    if (!ws.chol.append(g_new, gram_(best, best))) {
      // Linearly dependent atom — exclude it and keep searching.
      alpha[static_cast<std::size_t>(best)] = 0;
      continue;
    }
    selected.push_back(best);
    ++code.iterations;

    // gamma = G(S,S)⁻¹ alpha0(S).
    const Index ks = static_cast<Index>(selected.size());
    gamma.resize(static_cast<std::size_t>(ks));
    for (Index a = 0; a < ks; ++a) {
      gamma[static_cast<std::size_t>(a)] =
          alpha0[static_cast<std::size_t>(selected[static_cast<std::size_t>(a)])];
    }
    ws.chol.solve_in_place(gamma);
    // Forward + back substitution at size s: s² multiply-adds each → 2s².
    flops += 2 * static_cast<std::uint64_t>(ks) * static_cast<std::uint64_t>(ks);
    EXTDICT_ASSERT(util::first_non_finite(gamma) < 0,
                   "BatchOmp::encode: non-finite coefficient after atom " +
                       std::to_string(best));

    // alpha = alpha0 - G(:,S) gamma; residual energy via the normal
    // equations: ||r||² = ||x||² - alpha0(S)ᵀ gamma.
    std::copy(alpha0.begin(), alpha0.end(), alpha.begin());
    for (Index a = 0; a < ks; ++a) {
      const Index atom = selected[static_cast<std::size_t>(a)];
      const Real ga = gamma[static_cast<std::size_t>(a)];
      if (ga == Real{0}) continue;
      la::axpy(-ga, gram_.col(atom), alpha);
      flops += 2 * ul;
    }
    for (const Index s : selected) alpha[static_cast<std::size_t>(s)] = 0;

    Real fit = 0;
    for (Index a = 0; a < ks; ++a) {
      fit += gamma[static_cast<std::size_t>(a)] *
             alpha0[static_cast<std::size_t>(selected[static_cast<std::size_t>(a)])];
    }
    flops += 2 * static_cast<std::uint64_t>(ks);  // the fit dot product
    eps = std::max(Real{0}, eps0 - fit);
  }

  code.entries.reserve(selected.size());
  for (std::size_t a = 0; a < selected.size(); ++a) {
    code.entries.emplace_back(selected[a], gamma[a]);
  }
  code.residual_norm = std::sqrt(eps);
  code.flops = flops;
  return code;
}

std::vector<SparseCode> BatchOmp::encode_columns(const Matrix& signals) const {
  const Index m = dict_->rows();
  const Index l = dict_->cols();
  EXTDICT_REQUIRE_SHAPE(signals.rows() == m,
                        "BatchOmp::encode_columns: signals have " +
                            std::to_string(signals.rows()) +
                            " rows but dictionary has " + std::to_string(m));
  // Checked before the parallel loop: encode()'s own check would throw
  // inside the OpenMP region, where an exception terminates the process.
  EXTDICT_CHECK_FINITE(std::span<const Real>(signals.data(),
                                             static_cast<std::size_t>(signals.size())),
                       "BatchOmp::encode_columns: signals");
  const Index n = signals.cols();
  const Index blocks = (n + kBlockColumns - 1) / kBlockColumns;
  std::vector<SparseCode> codes(static_cast<std::size_t>(n));
#pragma omp parallel default(none) shared(signals, codes, m, l, n, blocks, \
                                          kBlockColumns) if (blocks > 1)
  {
    Workspace ws(l);
#pragma omp for schedule(dynamic, 1)
    for (Index b = 0; b < blocks; ++b) {
      const Index j0 = b * kBlockColumns;
      const Index width = std::min(kBlockColumns, n - j0);
      Matrix block(m, width);
      std::copy_n(signals.col(j0).data(), static_cast<std::size_t>(m * width),
                  block.data());
      Matrix alpha0(l, width);
      la::gemm(1, *dict_, la::Trans::kYes, block, la::Trans::kNo, 0, alpha0);
      for (Index j = 0; j < width; ++j) {
        // extdict-lint: allow(omp-sharing) each block owns columns [j0, j0 + width)
        codes[static_cast<std::size_t>(j0 + j)] =
            pursue(la::dot(block.col(j), block.col(j)), alpha0.col(j), config_, ws);
      }
    }
  }
  return codes;
}

// extdict-lint: allow(missing-shape-contract) delegates to the checked encode_columns
la::CscMatrix BatchOmp::encode_all(const Matrix& signals) const {
  // extdict-lint: allow(trace-in-hot-path) one phase per encode_all call, not per column
  const util::TraceScope phase(
      util::MetricsRegistry::global().span("batch_omp.encode_all"),
      "batch_omp.encode_all");
  std::vector<SparseCode> codes = encode_columns(signals);
  std::vector<std::vector<std::pair<Index, Real>>> columns(codes.size());
  for (std::size_t j = 0; j < codes.size(); ++j) {
    columns[j] = std::move(codes[j].entries);
  }
  util::MetricsRegistry::global().add("batch_omp.signals_encoded",
                                      static_cast<std::uint64_t>(codes.size()));
  return la::CscMatrix::from_columns(dict_->cols(), columns);
}

std::uint64_t BatchOmp::encode_flops(Index k) const noexcept {
  const auto m = static_cast<std::uint64_t>(dict_->rows());
  const auto l = static_cast<std::uint64_t>(dict_->cols());
  const auto kk = static_cast<std::uint64_t>(k);
  // Mirrors the meter in encode(), summed in closed form over a clean
  // k-iteration run (every append accepted, no exact-zero coefficients).
  // The earlier model charged k·k² = k³ for the triangular solves even
  // though each solve pair is only quadratic (2s² at size s); the correct
  // total is Σ 2s² = k(k+1)(2k+1)/3 ≈ (2/3)k³.
  const std::uint64_t setup = 2 * m + 2 * m * l;  // <x,x> + Dᵀx
  if (kk == 0) return setup;
  // Argmax scans: Σ_{t=0}^{k-1} (L - t).
  const std::uint64_t scans = kk * l - kk * (kk - 1) / 2;
  // Cholesky appends: Σ_{t=0}^{k-1} (t² + 2t + 2).
  const std::uint64_t appends =
      (kk - 1) * kk * (2 * kk - 1) / 6 + kk * (kk - 1) + 2 * kk;
  // Triangular solve pairs: Σ_{s=1}^{k} 2s².
  const std::uint64_t solves = kk * (kk + 1) * (2 * kk + 1) / 3;
  // β updates: Σ_{s=1}^{k} 2·L·s.
  const std::uint64_t betas = l * kk * (kk + 1);
  // Residual-energy fits: Σ_{s=1}^{k} 2s.
  const std::uint64_t fits = kk * (kk + 1);
  return setup + scans + appends + solves + betas + fits;
}

}  // namespace extdict::sparsecoding
