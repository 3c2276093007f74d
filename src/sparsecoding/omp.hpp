#pragma once

#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "la/matrix.hpp"
#include "la/types.hpp"

namespace extdict::sparsecoding {

using la::Index;
using la::Matrix;
using la::Real;

/// Stopping rule for the greedy sparse coder (Alg. 1 step 3): iterate until
/// ||r|| <= tolerance * ||signal|| or `max_atoms` atoms are selected.
struct OmpConfig {
  Real tolerance = 0.1;  ///< the paper's ε (relative residual)
  Index max_atoms = 0;   ///< 0 = min(dictionary cols, rows)
};

/// One sparse code: the selected (atom index, coefficient) pairs, the final
/// residual norm, and the iteration count.
struct SparseCode {
  std::vector<std::pair<Index, Real>> entries;
  Real residual_norm = 0;
  int iterations = 0;
  /// Exact FLOPs this encode performed, metered at kernel-call granularity
  /// (2 FLOPs per multiply-add, the la/blas.hpp convention). Filled by
  /// `BatchOmp::encode`; the reference coder leaves it 0. On a clean run
  /// (no dependent-atom rejections) it equals `BatchOmp::encode_flops(k)` —
  /// `bench/run_benchmarks` asserts that identity exactly.
  std::uint64_t flops = 0;

  [[nodiscard]] Index nnz() const noexcept {
    return static_cast<Index>(entries.size());
  }
};

/// Reference Orthogonal Matching Pursuit on an explicit residual.
///
/// Straightforward implementation of Alg. 1 step 3: pick the atom with the
/// largest correlation to the residual, re-solve the least-squares fit on
/// the selected set, update the residual. O(k) least-squares re-solves make
/// it slower than `BatchOmp` but trivially auditable.
///
/// This is the reference oracle for the tests and for
/// `bench/ablation_batch_omp` (which quantifies the gap), not a production
/// path: every library encode (ExD, evolve, serving) runs `BatchOmp`.
[[nodiscard]] SparseCode omp_sparse_code(const Matrix& dict,
                                         std::span<const Real> signal,
                                         const OmpConfig& config);

}  // namespace extdict::sparsecoding
