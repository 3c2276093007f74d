#pragma once

#include <cstdint>
#include <span>

#include "dist/cluster.hpp"
#include "la/csc_matrix.hpp"
#include "la/matrix.hpp"
#include "la/types.hpp"
#include "util/metrics.hpp"

namespace extdict::core {

using la::CscMatrix;
using la::Index;
using la::Matrix;
using la::Real;

/// Result of a distributed iterated Gram multiply: the final vector
/// (gathered on the caller) plus the per-rank cost counters of the run.
struct DistGramResult {
  la::Vector y;
  dist::RunStats stats;
  int iterations = 0;

  /// FLOPs of the Gram updates alone, summed over ranks and iterations —
  /// excludes the normalisation and collective-reduction arithmetic that
  /// `stats` also meters. This is the quantity the cost model's work term
  /// predicts: with 2 FLOPs per multiply–add pair, every Eq. (2)-covered
  /// strategy satisfies
  ///   update_flops == iterations * 2 * (work multiply–add pairs)
  /// exactly (see core/cost_model.hpp and tests/gram_model_regression_test).
  std::uint64_t update_flops = 0;

  /// update_flops / iterations (0 when no iterations ran).
  [[nodiscard]] std::uint64_t update_flops_per_iteration() const noexcept {
    return iterations > 0
               ? update_flops / static_cast<std::uint64_t>(iterations)
               : 0;
  }
};

/// Column partition: rank i owns columns [offset(i), offset(i+1)) — the
/// contiguous N/P blocks of Algorithm 2 step 0 (load balanced to within one
/// column).
struct ColumnPartition {
  Index n = 0;
  Index parts = 1;

  [[nodiscard]] Index begin(Index rank) const noexcept {
    return rank * n / parts;
  }
  [[nodiscard]] Index end(Index rank) const noexcept {
    return (rank + 1) * n / parts;
  }
  [[nodiscard]] Index count(Index rank) const noexcept {
    return end(rank) - begin(rank);
  }
};

/// Distribution strategy for the dictionary factor in Algorithm 2.
enum class GramStrategy {
  /// Partitioned-D when L <= M, replicated-D otherwise. This is the
  /// dispatch whose per-rank work matches the paper's Eq. (2),
  /// (M·L + nnz)/P, on every rank.
  kAuto,
  /// Alg. 2 Case 1 as literally printed: D lives on rank 0, which performs
  /// the D and Dᵀ multiplies alone. Matches the paper's text but leaves
  /// 2·M·L FLOPs serialised on one rank — kept for the ablation bench.
  kRootDictionary,
  /// Alg. 2 Case 2: D replicated, M-sized collectives, the Dᵀ multiply
  /// redundant on every rank.
  kReplicatedDictionary,
  /// Row-partitioned D: rank i owns M/P rows; v1 is all-reduced (L words),
  /// each rank lifts its row block and contributes a partial Dᵀ product,
  /// which is all-reduced again (L words). FLOPs are 2(M·L)/P per rank —
  /// the parallelisation Eq. (2) presumes.
  kPartitionedDictionary,
};

/// One rank's share of Algorithm 2's Gram update, the step every distributed
/// learner on the transformed data shares. Built inside a Cluster::run body
/// from the rank's Communicator; `apply` is a collective that every rank
/// calls with its slice of x (the contiguous columns [begin(), end()) of C):
///   out_i = C_iᵀ Dᵀ D Σ_j C_j x_j   (SpMV → reduce → D/Dᵀ → broadcast → SpMVᵀ).
/// The step owns the scratch, the strategy (kAuto resolved once: replicated
/// when L > M, partitioned otherwise), the FLOP charging and the
/// `dist_gram.update` span (resolved at construction; its trace `iteration`
/// arg is the step's apply count).
class DistGramStep {
 public:
  DistGramStep(dist::Communicator& comm, const Matrix& d, const CscMatrix& c,
               GramStrategy strategy = GramStrategy::kAuto);

  /// out_local may alias x_local.
  void apply(std::span<const Real> x_local, std::span<Real> out_local);

  [[nodiscard]] Index begin() const noexcept { return b_; }
  [[nodiscard]] Index end() const noexcept { return e_; }
  [[nodiscard]] Index local_n() const noexcept { return e_ - b_; }
  /// nnz of the rank's C slice.
  [[nodiscard]] std::uint64_t local_nnz() const noexcept { return local_nnz_; }
  /// Words the layout keeps on this rank: its C slice plus its share of D.
  [[nodiscard]] std::uint64_t resident_words() const noexcept;
  /// FLOPs of this rank's updates so far — the DistGramResult::update_flops
  /// share (normalisation and collective adds excluded).
  [[nodiscard]] std::uint64_t update_flops() const noexcept {
    return update_flops_;
  }

 private:
  void charge(std::uint64_t flops);

  dist::Communicator& comm_;
  const Matrix& d_;
  const CscMatrix& c_;
  GramStrategy strategy_;
  Index b_ = 0, e_ = 0;    // owned columns of C
  Index rb_ = 0, re_ = 0;  // owned rows of D (partitioned strategy)
  std::uint64_t local_nnz_ = 0;
  std::uint64_t update_flops_ = 0;
  std::uint64_t applies_ = 0;
  la::Vector v1_, v2_, v3_;
  util::MetricsRegistry::Span& update_span_;  // resolved once, per rank
};

/// Algorithm 2: `iterations` successive Gram updates x <- (DC)ᵀDC·x on the
/// emulated cluster, under the chosen dictionary-distribution strategy.
///
/// Every rank meters its FLOPs, words, and resident memory, so the returned
/// stats plug directly into PlatformSpec::modeled_seconds / the paper's
/// Eqs. 2-4.
[[nodiscard]] DistGramResult dist_gram_apply(
    const dist::Cluster& cluster, const Matrix& d, const CscMatrix& c,
    const la::Vector& x0, int iterations,
    GramStrategy strategy = GramStrategy::kAuto);

/// Baseline: the same iterated update on the original dense matrix,
/// x <- AᵀA·x, with A column-partitioned across ranks.
[[nodiscard]] DistGramResult dist_gram_apply_original(const dist::Cluster& cluster,
                                                      const Matrix& a,
                                                      const la::Vector& x0,
                                                      int iterations);

}  // namespace extdict::core
