// alg2_solve: the iterative-learning workload (the paper's Figs. 9/10).
// Cancer-cells data at M = 500, N = 48000, L = 250 (L < M, so kAuto picks the
// partitioned strategy) is transformed during set-up; the window then runs
// Algorithm 2 on an emulated 1x4 cluster through the three learners that
// use it: dist_gram_apply, lasso_solve_distributed and
// power_method_distributed, each for a fixed iteration count. One
// operation is one Alg. 2 iteration. It stresses CSC SpMV, the dense D/Dᵀ
// halves and the collectives, and encodes nothing after set-up.

#include <cmath>
#include <string>

#include "core/dist_gram.hpp"
#include "core/exd.hpp"
#include "core/gram_operator.hpp"
#include "data/cells.hpp"
#include "dist/cluster.hpp"
#include "la/blas.hpp"
#include "la/cholesky.hpp"
#include "la/random.hpp"
#include "perf.hpp"
#include "solvers/lasso.hpp"
#include "solvers/power_method.hpp"
#include "util/trace.hpp"

namespace perf {

namespace {

namespace core = extdict::core;
namespace dist = extdict::dist;
namespace la = extdict::la;
namespace solvers = extdict::solvers;

struct CellsShape {
  Index features, cells, phenotypes, phenotype_dim, shared_dims, atoms;
  Real tolerance;
  int gram_iterations;   ///< per dist_gram_apply call
  int lasso_iterations;  ///< per lasso_solve_distributed call
  int eigenpairs;        ///< per power_method_distributed call
  int pair_iterations;   ///< per eigenpair
};

// The traced window runs one round; each rank's ring holds a whole learner
// call (the 10-pair power method is the longest, ~9k events).
constexpr std::size_t kTraceCapacity = std::size_t{1} << 15;

// Eigenvalues of AᵀA from the M x M Gram AAᵀ = R ᵀR (R the transposed
// Cholesky factor): the same nonzero spectrum at a fraction of the cost of
// iterating on A itself.
std::vector<Real> reference_eigenvalues(const Matrix& a, int count) {
  const la::Cholesky chol(la::gram(a.transposed()));
  const Matrix r = chol.factor().transposed();
  const core::DenseGramOperator op(r);
  solvers::PowerConfig config;
  config.num_eigenpairs = count;
  config.tolerance = 1e-10;
  config.max_iterations = 5000;
  return solvers::power_method(op, config).eigenvalues;
}

// `iterations` serial steps x <- Gx / ||Gx||, the update dist_gram_apply
// distributes. Returns the last ||Gx||.
Real normalized_gram_steps(const core::TransformedGramOperator& op, la::Vector& x,
                           int iterations) {
  la::Vector gx(x.size());
  Real norm = 1;
  for (int it = 0; it < iterations; ++it) {
    op.apply(x, gx);
    norm = la::nrm2(gx);
    for (std::size_t i = 0; i < x.size(); ++i) x[i] = gx[i] / norm;
  }
  return norm;
}

class Alg2Solve final : public Workload {
 public:
  explicit Alg2Solve(const Options& options)
      : options_(options),
        shape_(options.smoke ? CellsShape{60, 600, 6, 4, 1, 30, 0.1, 10, 10, 2, 5}
                             : CellsShape{500, 48000, 10, 16, 5, 250, 0.1, 100, 150, 10, 10}),
        cluster_(dist::Topology{1, kRanks}) {}

  void setup() override {
    extdict::data::CellsConfig cells;
    cells.features = shape_.features;
    cells.num_cells = shape_.cells;
    cells.num_phenotypes = shape_.phenotypes;
    cells.phenotype_dim = shape_.phenotype_dim;
    cells.shared_dims = shape_.shared_dims;
    cells.noise_stddev = 0.0003;
    cells.outlier_fraction = 0;
    cells.seed = options_.seed;
    a_ = extdict::data::make_cells(cells).a;

    core::ExdConfig exd;
    exd.dictionary_size = shape_.atoms;
    exd.tolerance = shape_.tolerance;
    exd.seed = options_.seed + 1;
    result_ = core::exd_transform(a_, exd);

    la::Rng rng(options_.seed + 2);
    x0_.assign(static_cast<std::size_t>(shape_.cells), 0);
    rng.fill_gaussian(x0_);
    y_.assign(a_.col(0).begin(), a_.col(0).end());

    // The step every LASSO call shares: 1 / λmax of the transformed Gram,
    // fixed here so the timed calls run only their iterations.
    const core::TransformedGramOperator op(result_.dictionary,
                                           result_.coefficients);
    la::Vector x(x0_);
    lasso_.base_rate = 1 / normalized_gram_steps(op, x, 30);
    lasso_.max_iterations = shape_.lasso_iterations;
    lasso_.tolerance = 0;  // never stops early: a fixed iteration count
    lasso_.objective_every = 0;
  }

  // One operation is one Alg. 2 iteration. Each sample is the mean
  // iteration time of one round, which calls all three learners: a single
  // call's mean depends on its learner, and the median of such a mix jumps
  // between the learners' populations. `attempted` counts learner calls.
  Phase measure(double seconds, bool traced) override {
    Phase phase;
    solvers::PowerConfig pca;
    pca.num_eigenpairs = shape_.eigenpairs;
    pca.max_iterations = shape_.pair_iterations;
    pca.tolerance = 0;  // fixed iteration count, as for LASSO
    const int pca_iterations = shape_.eigenpairs * shape_.pair_iterations;
    const int round_iterations =
        shape_.gram_iterations + shape_.lasso_iterations + pca_iterations;
    const TraceCapacity capacity(traced, kTraceCapacity);

    // Call times per learner: their medians are the LASSO and PCA times at a
    // fixed iteration count, kept in the run document.
    std::vector<double> gram_s, lasso_s, pca_s;
    const auto call = [&](std::vector<double>& calls, auto&& f) {
      calls.push_back(time_seconds(f));
      ++phase.attempted;
      return calls.back();
    };
    const auto t0 = Clock::now();
    while (gram_s.empty() || (!traced && seconds_since(t0) < seconds)) {
      double round_s = 0;
      round_s += call(gram_s, [&] {
        const extdict::util::TraceScope span("perf.dist_gram_apply");
        gram_ = core::dist_gram_apply(cluster_, result_.dictionary, result_.coefficients,
                                      x0_, shape_.gram_iterations);
      });
      round_s += call(lasso_s, [&] {
        const extdict::util::TraceScope span("perf.lasso_solve_distributed");
        lasso_result_ = solvers::lasso_solve_distributed(
            cluster_, result_.dictionary, result_.coefficients, y_, lasso_);
      });
      if (lasso_result_.iterations != shape_.lasso_iterations) ++phase.failed;
      round_s += call(pca_s, [&] {
        const extdict::util::TraceScope span("perf.power_method_distributed");
        const auto r = solvers::power_method_distributed(
            cluster_, result_.dictionary, result_.coefficients, pca);
        if (r.total_iterations() != pca_iterations) ++phase.failed;
      });
      phase.latencies_ms.push_back(round_s * 1e3 / round_iterations);
    }
    // Iterations per second at the median round, as exd_build's columns per
    // second are at the median transform: a round the machine stalls moves
    // the window's mean rate but not the median.
    phase.throughput = 1e3 / phase.p50_ms();
    phase.info["window_iterations_per_s"] =
        static_cast<double>(gram_s.size()) * round_iterations / seconds_since(t0);
    phase.info["rounds"] = gram_s.size();
    phase.info["dist_gram_call_s"] = median(gram_s);
    phase.info["lasso_call_s"] = median(lasso_s);
    phase.info["pca_call_s"] = median(pca_s);
    phase.info["alpha"] = result_.alpha();
    phase.info["transform_err"] = result_.transformation_error;
    return phase;
  }

  // The Alg. 2 split (the traced critical path of each dist_gram_apply call
  // against its wall time) is read from the trace by run.py.
  void observe_layers(const Phase& /*traced*/, Metrics& /*layers*/,
                      Gates& /*gates*/) override {}

  void verify(Gates& gates) override {
    const core::TransformedGramOperator op(result_.dictionary,
                                           result_.coefficients);
    // dist_gram_apply == the serial iterated, normalised Gram product.
    la::Vector x(x0_);
    normalized_gram_steps(op, x, shape_.gram_iterations);
    gates.check("dist_gram_matches_serial", max_abs_diff(x, gram_.y) <= 1e-9,
                "max |y_dist - y_serial| = " +
                    std::to_string(max_abs_diff(x, gram_.y)));

    const auto serial = solvers::lasso_solve(op, y_, lasso_);
    const double lasso_gap = max_abs_diff(serial.x, lasso_result_.x);
    gates.check("lasso_matches_serial", lasso_gap <= 1e-8,
                "max |x_dist - x_serial| = " + std::to_string(lasso_gap));

    gate_dist_gram_flops(gram_, result_.dictionary, result_.coefficients, gates);

    // Fig. 12: PCA on the transformed data against the dense spectrum.
    solvers::PowerConfig pca;
    pca.num_eigenpairs = 2;
    const auto found = solvers::power_method_distributed(
        cluster_, result_.dictionary, result_.coefficients, pca);
    const Real eig_err =
        solvers::eigenvalue_error(found.eigenvalues, reference_eigenvalues(a_, 2));
    gates.check("eig_err_within_eps", eig_err <= shape_.tolerance,
                "eig_err = " + std::to_string(eig_err));
  }

  [[nodiscard]] LayerInputs layer_inputs() const override {
    extdict::sparsecoding::OmpConfig omp;
    omp.tolerance = shape_.tolerance;
    return LayerInputs{&result_.dictionary, &result_.coefficients, &a_, &a_,
                       omp};
  }

 private:
  static double max_abs_diff(const la::Vector& a, const la::Vector& b) {
    if (a.size() != b.size()) return INFINITY;
    double d = 0;
    for (std::size_t i = 0; i < a.size(); ++i) d = std::max(d, std::abs(a[i] - b[i]));
    return d;
  }

  Options options_;
  CellsShape shape_;
  dist::Cluster cluster_;
  Matrix a_;
  core::ExdResult result_;
  la::Vector x0_;
  la::Vector y_;
  solvers::LassoConfig lasso_;
  core::DistGramResult gram_;
  solvers::DistLassoResult lasso_result_;
};

}  // namespace

std::unique_ptr<Workload> make_alg2_solve(const Options& options) {
  return std::make_unique<Alg2Solve>(options);
}

}  // namespace perf
