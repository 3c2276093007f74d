#pragma once

// Shared plumbing of the extdict_perf driver: options, sample statistics,
// named metrics, correctness gates, and the Workload interface the four
// workloads implement. Everything here measures the library from the
// outside — timing calls into its public API and reading the counters it
// already exports — so nothing under src/ carries benchmark code.

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/dist_gram.hpp"
#include "la/csc_matrix.hpp"
#include "la/matrix.hpp"
#include "serve/server.hpp"
#include "sparsecoding/omp.hpp"
#include "util/json.hpp"

namespace perf {

using extdict::la::CscMatrix;
using extdict::la::Index;
using extdict::la::Matrix;
using extdict::la::Real;
using extdict::util::Json;
using Clock = std::chrono::steady_clock;

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;   ///< length of the measured window
  bool smoke = false;    ///< toy shapes, short windows: gates and schema only
  std::string trace_path;  ///< non-empty: traced run, per-layer metrics
  [[nodiscard]] bool traced() const { return !trace_path.empty(); }
};

[[nodiscard]] inline double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

template <typename F>
double time_seconds(F&& f) {
  const auto t0 = Clock::now();
  f();
  return seconds_since(t0);
}

/// While alive, trace ring buffers created by threads that start recording
/// hold `events` events instead of the recorder's default, so a traced
/// window drops nothing. Inert when `traced` is false.
class TraceCapacity {
 public:
  TraceCapacity(bool traced, std::size_t events);
  ~TraceCapacity();
  TraceCapacity(const TraceCapacity&) = delete;
  TraceCapacity& operator=(const TraceCapacity&) = delete;

 private:
  bool traced_;
};

/// q-quantile (q in [0, 1]) by linear interpolation between order
/// statistics; 0 for an empty sample.
[[nodiscard]] double quantile(std::vector<double> v, double q);
[[nodiscard]] inline double median(std::vector<double> v) {
  return quantile(std::move(v), 0.5);
}

/// Peak resident set of this process so far, in MB (getrusage).
[[nodiscard]] double peak_rss_mb();

/// Named metric values with units, kept in insertion order.
class Metrics {
 public:
  void set(const std::string& name, double value, const std::string& unit);
  [[nodiscard]] bool has(const std::string& name) const;
  [[nodiscard]] double get(const std::string& name) const;
  /// Copies every metric of `other` this set does not hold yet.
  void merge_missing(const Metrics& other);
  [[nodiscard]] Json to_json() const;

 private:
  struct Entry {
    std::string name;
    double value;
    std::string unit;
  };
  std::vector<Entry> entries_;
};

/// Correctness gates. Any failed gate makes the run incorrect and the
/// driver exit non-zero.
class Gates {
 public:
  void check(const std::string& name, bool ok, const std::string& detail);
  [[nodiscard]] bool all_ok() const;
  [[nodiscard]] Json to_json() const;

 private:
  struct Gate {
    std::string name;
    bool ok;
    std::string detail;
  };
  std::vector<Gate> gates_;
};

/// One measured window: per-operation latencies plus the work completed.
struct Phase {
  std::vector<double> latencies_ms;
  /// Empty, or for each latency the time slice of the window it fell in
  /// (0, 1, ...). With slices, a latency quantile is the median over the
  /// slices of each slice's quantile.
  std::vector<int> slices;
  double throughput = 0;        ///< work units per second
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  Json info = Json::object();

  [[nodiscard]] double latency_ms(double q) const;
  [[nodiscard]] double p50_ms() const { return latency_ms(0.5); }
  /// The reported tail. Higher quantiles do not repeat from run to run on
  /// a shared 4-core machine (see README).
  [[nodiscard]] double p90_ms() const { return latency_ms(0.9); }
};

/// Shapes and inputs a workload runs at; the per-layer suite times each
/// layer on exactly these (see layers.cpp).
struct LayerInputs {
  const Matrix* dictionary = nullptr;  ///< D, M x L
  const CscMatrix* codes = nullptr;    ///< C, L x N
  const Matrix* data = nullptr;        ///< the columns C encodes, M x N
  const Matrix* signals = nullptr;     ///< request signal pool, M x S
  extdict::sparsecoding::OmpConfig omp;  ///< the workload's encode rule
};

/// A benchmark workload. The driver calls setup() several times (the
/// median is `setup_s`), warm_up() once, measure() for the window, and
/// verify() last. A traced run measures twice, untraced then traced, and
/// then collects the per-layer metrics (see main.cpp).
class Workload {
 public:
  virtual ~Workload() = default;
  /// Builds inputs and the system under test from the seed. Repeatable.
  virtual void setup() = 0;
  virtual void warm_up() {}
  /// Runs the workload for `seconds`; `traced` marks the traced window
  /// (tracing is already on), where trace volume must stay bounded.
  virtual Phase measure(double seconds, bool traced) = 0;
  virtual void verify(Gates& gates) = 0;
  /// Layer metrics the workload's own calls produced in the traced window
  /// `traced`, and the check that its layer split adds up to the end-to-end
  /// number (split.residual_pct). Runs after run_layer_suite, before
  /// fill_serve_layers.
  virtual void observe_layers(const Phase& traced, Metrics& layers, Gates& gates) = 0;
  [[nodiscard]] virtual LayerInputs layer_inputs() const = 0;
};

std::unique_ptr<Workload> make_exd_build(const Options& options);
std::unique_ptr<Workload> make_alg2_solve(const Options& options);
std::unique_ptr<Workload> make_serve_wire_open(const Options& options);
std::unique_ptr<Workload> make_serve_hot_extend(const Options& options);

/// Times every kernel, coder, Gram, cluster and solver layer at the
/// workload's shapes (layers.cpp). Returns the sizes it measured at.
Json run_layer_suite(const Options& options, const LayerInputs& inputs,
                     Metrics& layers, Gates& gates);

/// Fills the serve.*, net.* and loadgen.* metrics the workload did not
/// produce itself, from a short open-loop wire probe at its shapes.
void fill_serve_layers(const Options& options, const LayerInputs& inputs,
                       Metrics& layers, Gates& gates);

/// Light-field data (data::make_light_field) from 16 seeded scenes in a
/// seeded column order: `views`² cameras of `patch`² pixels, so
/// M = views²·patch², unit-norm columns.
[[nodiscard]] Matrix light_field(Index views, Index patch, Index scene_size,
                                 Index columns, std::uint64_t seed);

/// Columns [first, first + count) of `m`.
[[nodiscard]] Matrix column_range(const Matrix& m, Index first, Index count);

/// The serving configuration of the serve workloads, also used by the wire
/// probe the other workloads run: ε = 0.05, at most 32 atoms, batches of at
/// most 32 columns flushed 200 µs after their first arrival, 2 workers, a
/// 1024-deep blocking queue.
[[nodiscard]] extdict::serve::ServerConfig paper_server_config(
    std::size_t cache_capacity);

/// Gate: single-thread BatchOmp::encode of the first `count` columns of
/// `signals` meters exactly BatchOmp::encode_flops(iterations) FLOPs.
void gate_encode_flops(const Matrix& dictionary,
                       const extdict::sparsecoding::OmpConfig& omp,
                       const Matrix& signals, Index count, Gates& gates);

/// Ranks of the emulated cluster Alg. 2 runs on: dist::Cluster{1 x kRanks}.
constexpr Index kRanks = 4;

/// Gate: dist_gram_apply's metered update FLOPs per iteration equal
/// 2 x the Eq. (2) multiply-add pairs (core::transformed_update_cost) of
/// D and C on kRanks ranks.
void gate_dist_gram_flops(const extdict::core::DistGramResult& result,
                          const Matrix& dictionary, const CscMatrix& codes,
                          Gates& gates);

/// True when two sparse codes select the same atoms and their coefficients
/// agree to `tolerance`.
[[nodiscard]] bool same_code(const extdict::sparsecoding::SparseCode& a,
                             const extdict::sparsecoding::SparseCode& b,
                             double tolerance);

/// Serving split check: the largest relative gap (%) between the
/// outside-in queue and encode means of the requests that ran the solver
/// (EncodeResult or reply-header seconds) and the server's own
/// serve.latency.{queue,encode}_seconds histograms since the last registry
/// reset.
[[nodiscard]] double serve_split_residual_pct(const std::vector<double>& queue_s,
                                              const std::vector<double>& encode_s);

/// Server-side accounting identities (ServerStats header); empty when they
/// hold, else a description of the first violation.
[[nodiscard]] std::string server_identity_violation(
    const extdict::serve::ServerStats& s);

}  // namespace perf
