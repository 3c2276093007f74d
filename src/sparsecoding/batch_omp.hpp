#pragma once

#include <cstdint>
#include <span>

#include "la/csc_matrix.hpp"
#include "la/matrix.hpp"
#include "sparsecoding/omp.hpp"

namespace extdict::sparsecoding {

/// Batch-OMP: Cholesky-update Orthogonal Matching Pursuit with a
/// precomputed dictionary Gram matrix (Rubinstein, Zibulevsky & Elad 2008).
///
/// This is the coder ExD uses in production (§V-D): the Gram matrix
/// G = DᵀD is computed once per dictionary; encoding a signal then costs
/// O(M·L) for the initial correlations plus O(L·k + k²) per greedy
/// iteration, never touching the residual explicitly. `encode_all`
/// parallelises over signals with OpenMP — each column of C is independent
/// (Alg. 1 step 3 runs per processor in the paper).
class BatchOmp {
 public:
  BatchOmp(const Matrix& dict, OmpConfig config);

  /// Adopts a caller-supplied Gram instead of recomputing `la::gram(dict)`.
  /// This is the dictionary-extension entry: `core::extend_gram_bordered`
  /// grows an L×L Gram to (L+K)×(L+K) in O(L² + M·L·K) instead of the
  /// O(M·(L+K)²) full recompute, and the result is handed here. `gram` must
  /// be the exact cols(dict)-square Gram of `dict` — shape is checked, the
  /// values are trusted.
  BatchOmp(const Matrix& dict, Matrix gram, OmpConfig config);

  /// Sparse-codes a single signal (length rows()) with the config given at
  /// construction.
  [[nodiscard]] SparseCode encode(std::span<const Real> signal) const;

  /// Sparse-codes a single signal under a caller-supplied stopping rule —
  /// the resident Gram/dictionary state is shared, only ε / max_atoms vary.
  /// This is the entry the serving layer uses for per-request tolerances.
  [[nodiscard]] SparseCode encode(std::span<const Real> signal,
                                  const OmpConfig& config) const;

  /// Sparse-codes every column of `signals`, returning the L x N coefficient
  /// matrix in CSC form.
  [[nodiscard]] la::CscMatrix encode_all(const Matrix& signals) const;

  [[nodiscard]] Index atom_count() const noexcept { return dict_->cols(); }
  [[nodiscard]] Index signal_dim() const noexcept { return dict_->rows(); }
  [[nodiscard]] const Matrix& gram() const noexcept { return gram_; }
  [[nodiscard]] const OmpConfig& config() const noexcept { return config_; }

  /// Closed-form FLOPs of one clean `encode` run that selects k atoms with
  /// no dependent-atom rejections: initial correlations (2M + 2ML), the
  /// shrinking argmax scans, the progressive-Cholesky appends, the
  /// triangular solve pair per iteration (2s² at size s, ~(2/3)k³ total —
  /// NOT k³: each solve is quadratic, only the sum over iterations is
  /// cubic), the β updates (2L per selected atom per iteration), and the
  /// residual-energy fits. Matches `SparseCode::flops` exactly on clean
  /// runs; `bench/run_benchmarks` enforces the identity per signal.
  [[nodiscard]] std::uint64_t encode_flops(Index k) const noexcept;

 private:
  const Matrix* dict_;  // non-owning; caller keeps the dictionary alive
  Matrix gram_;
  OmpConfig config_;
};

}  // namespace extdict::sparsecoding
