// exd_build: the offline Alg. 1 cost (the paper's Table II). One operation
// is a full core::exd_transform of a light-field matrix at M = 1600,
// L = 1024, ε = 0.1 at default OpenMP width. Its time goes to sparsecoding
// (Batch-OMP: Dᵀx, Cholesky appends, β updates) and la (gram, gemv_t); it
// never touches dist, serve or net.

#include <cmath>
#include <optional>
#include <string>

#include "core/exd.hpp"
#include "perf.hpp"
#include "sparsecoding/batch_omp.hpp"
#include "util/trace.hpp"

namespace perf {

namespace {

namespace core = extdict::core;

struct ExdShape {
  Index views, patch, scene, columns, atoms;
  Real tolerance;
};

/// Per-part times of the traced window's decomposed transforms (seconds).
struct Parts {
  std::vector<double> select, gram, encode_all, error;
};

class ExdBuild final : public Workload {
 public:
  explicit ExdBuild(const Options& options)
      : options_(options),
        shape_(options.smoke ? ExdShape{3, 4, 48, 400, 96, 0.1}
                             : ExdShape{5, 8, 96, 3072, 1024, 0.1}) {}

  void setup() override {
    a_ = light_field(shape_.views, shape_.patch, shape_.scene, shape_.columns,
                     options_.seed);
  }

  void warm_up() override { result_ = core::exd_transform(a_, config()); }

  // Untraced: whole transforms back to back. Traced: each whole transform
  // is followed by the same transform taken apart through the public API
  // (select D, build the Batch-OMP coder and its Gram, encode_all, error),
  // so the parts and the whole are timed in the same stretch of the run.
  Phase measure(double seconds, bool traced) override {
    Phase phase;
    parts_ = Parts{};
    const auto t0 = Clock::now();
    while (phase.latencies_ms.size() < 3 || seconds_since(t0) < seconds) {
      double s = 0;
      {
        const extdict::util::TraceScope span("perf.exd_transform");
        s = time_seconds([&] { result_ = core::exd_transform(a_, config()); });
      }
      phase.latencies_ms.push_back(s * 1e3);
      ++phase.attempted;
      if (!(result_.transformation_error <= shape_.tolerance)) ++phase.failed;
      if (traced) transform_in_parts();
    }
    phase.throughput =
        static_cast<double>(shape_.columns) / (phase.p50_ms() / 1e3);
    phase.info["transforms"] = phase.attempted;
    phase.info["transform_err"] = result_.transformation_error;
    phase.info["alpha"] = result_.alpha();
    return phase;
  }

  void verify(Gates& gates) override {
    gates.check("transform_err_within_eps",
                result_.transformation_error <= shape_.tolerance,
                "||A - DC||/||A|| = " +
                    std::to_string(result_.transformation_error) +
                    " (eps " + std::to_string(shape_.tolerance) + ")");
    gate_encode_flops(result_.dictionary, encode_rule(), a_, 64, gates);
  }

  // Split: the parts of the traced window's transforms must add up to the
  // whole transforms timed alongside them.
  void observe_layers(const Phase& traced, Metrics& layers, Gates& gates) override {
    const double whole_s = traced.p50_ms() / 1e3;
    const double parts_s = median(parts_.select) + median(parts_.gram) +
                           median(parts_.encode_all) + median(parts_.error);
    layers.set("split.residual_pct", 100 * std::abs(parts_s - whole_s) / whole_s, "%");
    gates.check("exd_parts_match_transform", parts_nnz_ == result_.coefficients.nnz(),
                "decomposed transform nnz " + std::to_string(parts_nnz_) + " vs " +
                    std::to_string(result_.coefficients.nnz()));
  }

  [[nodiscard]] LayerInputs layer_inputs() const override {
    return LayerInputs{&result_.dictionary, &result_.coefficients, &a_, &a_,
                       encode_rule()};
  }

 private:
  void transform_in_parts() {
    const extdict::util::TraceScope span("perf.exd_transform_in_parts");
    Matrix d;
    parts_.select.push_back(
        time_seconds([&] { d = a_.select_columns(result_.atom_indices); }));
    std::optional<extdict::sparsecoding::BatchOmp> coder;
    parts_.gram.push_back(time_seconds([&] { coder.emplace(d, encode_rule()); }));
    CscMatrix c;
    parts_.encode_all.push_back(time_seconds([&] { c = coder->encode_all(a_); }));
    parts_.error.push_back(
        time_seconds([&] { (void)core::transformation_error(a_, d, c); }));
    parts_nnz_ = c.nnz();
  }

  [[nodiscard]] core::ExdConfig config() const {
    core::ExdConfig config;
    config.dictionary_size = shape_.atoms;
    config.tolerance = shape_.tolerance;
    config.seed = options_.seed + 1;
    return config;
  }

  // The OMP rule exd_transform derives from its config.
  [[nodiscard]] extdict::sparsecoding::OmpConfig encode_rule() const {
    extdict::sparsecoding::OmpConfig omp;
    omp.tolerance = shape_.tolerance;
    omp.max_atoms = config().max_atoms;
    return omp;
  }

  Options options_;
  ExdShape shape_;
  Matrix a_;
  core::ExdResult result_;
  Parts parts_;
  std::uint64_t parts_nnz_ = 0;
};

}  // namespace

std::unique_ptr<Workload> make_exd_build(const Options& options) {
  return std::make_unique<ExdBuild>(options);
}

}  // namespace perf
