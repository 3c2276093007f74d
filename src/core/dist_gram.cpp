#include "core/dist_gram.hpp"

#include <atomic>
#include <cmath>

#include "la/blas.hpp"
#include "util/contracts.hpp"
#include "util/trace.hpp"

namespace extdict::core {

namespace {

// Observability span names (docs/ARCHITECTURE.md "Observability"): every
// rank's whole SPMD body is `kSpanRank`; the three phase spans partition it
// up to the per-rank setup, so their sums stay within tolerance of the
// rank-total sum (metrics_test pins that invariant end to end).
constexpr std::string_view kSpanRank = "dist_gram.rank";
constexpr std::string_view kSpanUpdate = "dist_gram.update";
constexpr std::string_view kSpanNormalize = "dist_gram.normalize";
constexpr std::string_view kSpanGather = "dist_gram.gather";

// Normalises the distributed vector x (owned in slices) to unit norm; the
// norm exchange is tiny but still metered. Keeps iterated updates bounded.
void normalize_distributed(dist::Communicator& comm, std::span<Real> local) {
  Real ss = la::dot(local, local);
  comm.cost().add_flops(2 * local.size());
  ss = comm.allreduce_sum_scalar(ss);
  const Real norm = std::sqrt(ss);
  if (norm > Real{0}) {
    la::scal(1 / norm, local);
    comm.cost().add_flops(local.size());
  }
}

// The baseline update x_i <- A_iᵀ Σ_j A_j x_j on the column-partitioned dense
// A, with DistGramStep's interface so both iterated products share one loop.
class OriginalStep {
 public:
  OriginalStep(dist::Communicator& comm, const Matrix& a)
      : comm_(comm),
        a_(a),
        u_(static_cast<std::size_t>(a.rows())),
        update_span_(util::MetricsRegistry::global().span(kSpanUpdate)) {
    const ColumnPartition part{a.cols(), comm.size()};
    b_ = part.begin(comm.rank());
    e_ = part.end(comm.rank());
  }

  [[nodiscard]] Index begin() const noexcept { return b_; }
  [[nodiscard]] Index end() const noexcept { return e_; }
  [[nodiscard]] std::uint64_t resident_words() const noexcept {
    return static_cast<std::uint64_t>(a_.rows()) *
           static_cast<std::uint64_t>(e_ - b_);
  }
  [[nodiscard]] std::uint64_t update_flops() const noexcept {
    return update_flops_;
  }

  void apply(std::span<const Real> x_local, std::span<Real> out_local) {
    const util::TraceScope update_scope(update_span_, kSpanUpdate, "iteration",
                                        applies_++);
    // u = Σ_i A_i x_i.
    std::fill(u_.begin(), u_.end(), Real{0});
    for (Index j = b_; j < e_; ++j) {
      la::axpy(x_local[static_cast<std::size_t>(j - b_)], a_.col(j), u_);
    }
    comm_.reduce_sum(0, u_);
    comm_.broadcast(0, std::span<Real>(u_));
    // x_i = A_iᵀ u.
    for (Index j = b_; j < e_; ++j) {
      out_local[static_cast<std::size_t>(j - b_)] = la::dot(a_.col(j), u_);
    }
    const std::uint64_t flops = 4 * resident_words();  // 2·M·local_n, twice
    comm_.cost().add_flops(flops);
    update_flops_ += flops;
  }

 private:
  dist::Communicator& comm_;
  const Matrix& a_;
  la::Vector u_;
  Index b_ = 0, e_ = 0;
  std::uint64_t update_flops_ = 0;
  std::uint64_t applies_ = 0;
  util::MetricsRegistry::Span& update_span_;
};

// The SPMD loop both iterated products share: every rank builds its Step
// from `args`, loads its slice of x0, runs `iterations` rounds of update +
// normalisation and gathers the result on rank 0; the ranks' update FLOPs
// are summed into the result and the `dist_gram.update_flops` counter.
template <typename Step, typename... Args>
DistGramResult iterate(const dist::Cluster& cluster, const la::Vector& x0,
                       int iterations, const Args&... args) {
  DistGramResult result;
  result.iterations = iterations;
  result.y.assign(x0.size(), Real{0});

  std::atomic<std::uint64_t> update_flops{0};
  util::MetricsRegistry& metrics = util::MetricsRegistry::global();
  util::MetricsRegistry::Span& rank_span = metrics.span(kSpanRank);
  util::MetricsRegistry::Span& normalize_span = metrics.span(kSpanNormalize);
  util::MetricsRegistry::Span& gather_span = metrics.span(kSpanGather);

  result.stats = cluster.run([&](dist::Communicator& comm) {
    const util::TraceScope rank_scope(rank_span, kSpanRank);
    const Index rank = comm.rank();
    Step step(comm, args...);

    // Step 0: rank i "loads" its operands and its slice of x. In the
    // emulation the slices are views into shared memory; the footprint is
    // metered as if each rank held its own copy (Eq. 4 accounting).
    la::Vector x_local(x0.begin() + step.begin(), x0.begin() + step.end());
    comm.cost().record_memory(step.resident_words() + x_local.size());

    for (int it = 0; it < iterations; ++it) {
      step.apply(x_local, x_local);
      EXTDICT_CHECK_FINITE(std::span<const Real>(x_local),
                           "dist_gram: x after iteration " +
                               std::to_string(it) + " on rank " +
                               std::to_string(rank));
      const util::TraceScope normalize_scope(normalize_span, kSpanNormalize,
                                             "iteration",
                                             static_cast<std::uint64_t>(it));
      normalize_distributed(comm, x_local);
    }

    // Collect the distributed result on rank 0.
    const util::TraceScope gather_scope(gather_span, kSpanGather);
    const la::Vector gathered = comm.gather(0, std::span<const Real>(x_local));
    if (rank == 0) std::copy(gathered.begin(), gathered.end(), result.y.begin());
    update_flops += step.update_flops();
  });

  result.update_flops = update_flops;
  metrics.add("dist_gram.update_flops", result.update_flops);
  return result;
}

}  // namespace

DistGramStep::DistGramStep(dist::Communicator& comm, const Matrix& d,
                           const CscMatrix& c, GramStrategy strategy)
    : comm_(comm),
      d_(d),
      c_(c),
      strategy_(strategy),
      update_span_(util::MetricsRegistry::global().span(kSpanUpdate)) {
  EXTDICT_REQUIRE_SHAPE(c.rows() == d.cols(),
                        "DistGramStep: D/C shape mismatch");
  const Index m = d.rows();
  const Index l = d.cols();
  if (strategy_ == GramStrategy::kAuto) {
    strategy_ = l > m ? GramStrategy::kReplicatedDictionary
                      : GramStrategy::kPartitionedDictionary;
  }
  const ColumnPartition part{c.cols(), comm.size()};
  const ColumnPartition row_part{m, comm.size()};
  b_ = part.begin(comm.rank());
  e_ = part.end(comm.rank());
  rb_ = row_part.begin(comm.rank());
  re_ = row_part.end(comm.rank());
  for (Index j = b_; j < e_; ++j) {
    local_nnz_ += static_cast<std::uint64_t>(c.col_nnz(j));
  }
  // The partitioned layout lifts only its own row block of D·v1.
  const Index v2_size =
      strategy_ == GramStrategy::kPartitionedDictionary ? re_ - rb_ : m;
  v1_.resize(static_cast<std::size_t>(l));
  v2_.resize(static_cast<std::size_t>(v2_size));
  v3_.resize(static_cast<std::size_t>(l));
}

std::uint64_t DistGramStep::resident_words() const noexcept {
  std::uint64_t words =
      local_nnz_ * 3 / 2 + static_cast<std::uint64_t>(local_n() + 1);
  const auto l = static_cast<std::uint64_t>(d_.cols());
  switch (strategy_) {
    case GramStrategy::kRootDictionary:
      if (comm_.rank() == 0) words += static_cast<std::uint64_t>(d_.rows()) * l;
      break;
    case GramStrategy::kReplicatedDictionary:
      words += static_cast<std::uint64_t>(d_.rows()) * l;
      break;
    case GramStrategy::kPartitionedDictionary:
      words += static_cast<std::uint64_t>(re_ - rb_) * l;
      break;
    case GramStrategy::kAuto:
      break;  // resolved in the constructor
  }
  return words;
}

void DistGramStep::charge(std::uint64_t flops) {
  comm_.cost().add_flops(flops);
  update_flops_ += flops;
}

void DistGramStep::apply(std::span<const Real> x_local,
                         std::span<Real> out_local) {
  const util::TraceScope update_scope(update_span_, kSpanUpdate, "iteration",
                                      applies_++);
  const Index m = d_.rows();
  const Index l = d_.cols();
  // Step 1: v1_i = C_i x_i.
  std::fill(v1_.begin(), v1_.end(), Real{0});
  c_.spmv_range(b_, e_, x_local, v1_);
  charge(2 * local_nnz_);

  switch (strategy_) {
    case GramStrategy::kRootDictionary:
      // Alg. 2 Case 1 verbatim: D on rank 0; reduce the L-vector.
      comm_.reduce_sum(0, v1_);
      if (comm_.rank() == 0) {
        la::gemv(1, d_, v1_, 0, v2_);    // v2 = D Σ v1
        la::gemv_t(1, d_, v2_, 0, v3_);  // v3 = Dᵀ v2
        charge(2 * la::gemv_flops(m, l));
      }
      comm_.broadcast(0, std::span<Real>(v3_));
      break;
    case GramStrategy::kReplicatedDictionary:
      // Alg. 2 Case 2: each rank lifts its partial v1 to data space, the
      // M-vector is reduced/broadcast, and the Dᵀ multiply is done
      // redundantly everywhere (step 7).
      la::gemv(1, d_, v1_, 0, v2_);
      charge(la::gemv_flops(m, l));
      comm_.reduce_sum(0, v2_);
      comm_.broadcast(0, std::span<Real>(v2_));
      la::gemv_t(1, d_, v2_, 0, v3_);
      charge(la::gemv_flops(m, l));
      break;
    case GramStrategy::kPartitionedDictionary: {
      // Row-partitioned D: every rank's dense work is 2·(M/P)·L mults — the
      // 2·(M·L + nnz)/P parallelisation the paper's Eq. (2) models.
      comm_.allreduce_sum(std::span<Real>(v1_));  // full Σ v1 everywhere
      // v2 = rows [rb, re) of D times v1, then the partial Dᵀ product from
      // the owned row block.
      const auto block = [&](Index j) {
        return d_.col(j).subspan(static_cast<std::size_t>(rb_), v2_.size());
      };
      std::fill(v2_.begin(), v2_.end(), Real{0});
      for (Index j = 0; j < l; ++j) {
        const Real w = v1_[static_cast<std::size_t>(j)];
        if (w != Real{0}) la::axpy(w, block(j), v2_);
      }
      for (Index j = 0; j < l; ++j) {
        v3_[static_cast<std::size_t>(j)] = la::dot(block(j), v2_);
      }
      charge(4 * static_cast<std::uint64_t>(v2_.size()) *
             static_cast<std::uint64_t>(l));
      comm_.allreduce_sum(std::span<Real>(v3_));
      break;
    }
    case GramStrategy::kAuto:
      break;  // resolved in the constructor
  }

  // Step 7: out_i = C_iᵀ v3.
  c_.spmv_t_range(b_, e_, v3_, out_local);
  charge(2 * local_nnz_);
}

DistGramResult dist_gram_apply(const dist::Cluster& cluster, const Matrix& d,
                               const CscMatrix& c, const la::Vector& x0,
                               int iterations, GramStrategy strategy) {
  EXTDICT_REQUIRE_SHAPE(static_cast<Index>(x0.size()) == c.cols(),
                        "dist_gram_apply: x size mismatch");
  EXTDICT_CHECK_FINITE(std::span<const Real>(x0), "dist_gram_apply: x0");
  return iterate<DistGramStep>(cluster, x0, iterations, d, c, strategy);
}

DistGramResult dist_gram_apply_original(const dist::Cluster& cluster,
                                        const Matrix& a, const la::Vector& x0,
                                        int iterations) {
  EXTDICT_REQUIRE_SHAPE(static_cast<Index>(x0.size()) == a.cols(),
                        "dist_gram_apply_original: x size mismatch");
  return iterate<OriginalStep>(cluster, x0, iterations, a);
}

}  // namespace extdict::core
