// Per-layer suite: every la / sparsecoding / core / dist / solvers layer
// timed from the outside, through its public API, at the shapes of the
// workload being traced. Kernel rows run single-threaded where Alg. 1,
// Alg. 2 and the server call them single-threaded (inside encode_all's and
// encode_batch's OpenMP loops, and on pinned cluster ranks), and at the
// default OpenMP width where they are called from the top (gram, gemm,
// encode_all, transformation_error, extend_gram_bordered). Bytes are
// computed from operand sizes, not measured.

#ifdef _OPENMP
#include <omp.h>
#endif
#include <unistd.h>

#include <cmath>

#include "core/dist_gram.hpp"
#include "core/exd.hpp"
#include "core/gram_extend.hpp"
#include "core/gram_operator.hpp"
#include "dist/cluster.hpp"
#include "la/blas.hpp"
#include "la/cholesky.hpp"
#include "la/random.hpp"
#include "perf.hpp"
#include "serve/dict_registry.hpp"
#include "solvers/lasso.hpp"
#include "solvers/power_method.hpp"
#include "sparsecoding/batch_omp.hpp"
#include "util/metrics.hpp"
#include "util/trace.hpp"
#include "wire.hpp"

namespace perf {

namespace {

namespace core = extdict::core;
namespace dist = extdict::dist;
namespace net = extdict::net;
namespace la = extdict::la;
namespace solvers = extdict::solvers;
using extdict::util::TraceScope;

int default_threads() {
#ifdef _OPENMP
  return omp_get_max_threads();
#else
  return 1;
#endif
}

/// Runs this thread's OpenMP regions on one thread while alive.
class SingleThread {
 public:
  SingleThread() : saved_(default_threads()) { set(1); }
  ~SingleThread() { set(saved_); }
  SingleThread(const SingleThread&) = delete;
  SingleThread& operator=(const SingleThread&) = delete;

 private:
  static void set(int threads) {
#ifdef _OPENMP
    omp_set_num_threads(threads);
#else
    (void)threads;
#endif
  }
  int saved_;
};

/// Median seconds of repeated calls: at least `min_calls`, then more until
/// `budget_s` is spent or `max_calls` is reached.
template <typename F>
double median_call_s(F&& f, int min_calls, double budget_s, int max_calls) {
  std::vector<double> t;
  const auto t0 = Clock::now();
  while (static_cast<int>(t.size()) < max_calls &&
         (static_cast<int>(t.size()) < min_calls || seconds_since(t0) < budget_s)) {
    t.push_back(time_seconds(f));
  }
  return median(std::move(t));
}

/// Kernel rows: ≥ 50 calls within half a second.
template <typename F>
double kernel_s(F&& f) {
  return median_call_s(f, 50, 0.5, 5000);
}

/// Whole-matrix rows: 1 to 3 calls within two seconds.
template <typename F>
double heavy_s(F&& f) {
  return median_call_s(f, 1, 2.0, 3);
}

// STREAM triad a = b + s·c over three arrays of `n` doubles on `threads`
// threads, best of `passes`; 24 bytes move per element.
double triad_gbps(Index n, int threads, int passes) {
  std::vector<double> a(static_cast<std::size_t>(n));
  std::vector<double> b(static_cast<std::size_t>(n));
  std::vector<double> c(static_cast<std::size_t>(n));
  double* pa = a.data();
  double* pb = b.data();
  double* pc = c.data();
  // First touch on the measuring threads, so pages land where they run.
#pragma omp parallel for schedule(static) num_threads(threads) default(none) \
    shared(pa, pb, pc, n)
  for (Index i = 0; i < n; ++i) {
    pa[i] = 0;
    pb[i] = 1;
    pc[i] = 2;
  }
  // One thread runs outside any OpenMP region, whose entry cost would
  // swamp a cache-sized triad.
  const auto triad = [&] {
    if (threads == 1) {
      for (Index i = 0; i < n; ++i) pa[i] = pb[i] + 3.0 * pc[i];
      return;
    }
#pragma omp parallel for schedule(static) num_threads(threads) default(none) \
    shared(pa, pb, pc, n)
    for (Index i = 0; i < n; ++i) pa[i] = pb[i] + 3.0 * pc[i];
  };
  double best = 0;
  for (int pass = 0; pass < passes; ++pass) {
    best = std::max(best, 24.0 * static_cast<double>(n) / time_seconds(triad) / 1e9);
  }
  return best;
}

// Multiply-add throughput of one thread: 64 independent std::fma chains,
// which the compiler keeps in vector registers, so the FMA units never wait
// on a result (a plain a * b + c is not fused under -std=c++20). 2 FLOPs
// per multiply-add.
double fma_gflops_1t() {
  constexpr int kChains = 64;
  constexpr long kRounds = 1 << 20;
  double acc[kChains];
  for (int k = 0; k < kChains; ++k) acc[k] = 1.0 + k * 1e-3;
  const double s = time_seconds([&] {
    for (long r = 0; r < kRounds; ++r) {
      for (double& a : acc) a = std::fma(a, 0.9999999, 1e-7);
    }
  });
  // Consume the chains so none is optimised away.
  volatile double sink = 0;
  for (const double a : acc) sink = sink + a;
  return 2.0 * kChains * static_cast<double>(kRounds) / s / 1e9;
}

/// Machine ceilings, measured in the same run as the kernels they bound.
struct Ceilings {
  double peak_gflops = 0;     ///< multiply-add peak, default OpenMP width
  double peak_1t_gflops = 0;  ///< multiply-add peak, one thread
  int threads = 1;            ///< default OpenMP width

  /// Compute peak of a row run on `row_threads` threads (1 or the default).
  [[nodiscard]] double peak(int row_threads) const {
    return row_threads == 1 ? peak_1t_gflops : peak_gflops;
  }

  /// Bandwidth a kernel with a `bytes` footprint can draw on `threads`
  /// threads: a triad over the same footprint, so cache-resident operands
  /// are held to cache bandwidth and the rest to memory bandwidth.
  [[nodiscard]] static double bandwidth_gbps(double bytes, int threads) {
    const auto n = std::max<Index>(Index{1} << 12, static_cast<Index>(bytes / 24));
    return triad_gbps(n, threads, n < (Index{1} << 20) ? 50 : 10);
  }
};

Ceilings measure_ceilings(bool smoke, Metrics& layers, Json& info) {
  Ceilings c;
  c.threads = default_threads();
  {
    // Three arrays of 256 MiB (768 MiB moved per pass), well past the
    // last-level cache of the machines this runs on; info states both.
    const TraceScope span("perf.layer.machine.stream");
    const Index n = smoke ? Index{1} << 21 : Index{1} << 25;
    layers.set("machine.stream_gbps", triad_gbps(n, c.threads, 5), "GB/s");
    layers.set("machine.stream_1t_gbps", triad_gbps(n, 1, 5), "GB/s");
    info["stream_array_mib"] = static_cast<double>(n) * 8 / (1 << 20);
    info["llc_mib"] = static_cast<double>(sysconf(_SC_LEVEL3_CACHE_SIZE)) / (1 << 20);
  }
  {
    const TraceScope span("perf.layer.machine.peak");
    c.peak_1t_gflops = fma_gflops_1t();
    double total = 0;
#pragma omp parallel default(none) reduction(+ : total)
    total += fma_gflops_1t();
    c.peak_gflops = total;
    layers.set("machine.peak_gflops", c.peak_gflops, "GFLOP/s");
    layers.set("machine.peak_1t_gflops", c.peak_1t_gflops, "GFLOP/s");
  }
  {
    const TraceScope span("perf.layer.machine.gemm");
    const Index n = smoke ? 256 : 1024;
    la::Rng rng(3);
    const Matrix a = rng.gaussian_matrix(n, n);
    const Matrix b = rng.gaussian_matrix(n, n);
    Matrix out(n, n);
    // The multiply-add peak is the compute roof; this is what the library's
    // own dense kernel reaches.
    const double s = median_call_s(
        [&] { la::gemm(1, a, la::Trans::kYes, b, la::Trans::kNo, 0, out); }, 3, 1.0, 5);
    layers.set("machine.gemm_gflops",
               static_cast<double>(la::gemm_flops(n, n, n)) / s / 1e9, "GFLOP/s");
    info["gemm_n"] = n;
  }
  info["openmp_threads"] = c.threads;
  return c;
}

/// One la.* row: the call's time plus GFLOP/s, computed GB/s (bytes from
/// operand sizes, not measured) and % of the roofline min(peak, bandwidth x
/// FLOPs/byte) at the row's thread count. `unit` is "us" or "ms".
void kernel_row(const std::string& name, double seconds, const std::string& unit,
                double flops, double bytes, int threads, const Ceilings& ceil,
                Metrics& layers, Json& info) {
  const double gflops = flops / seconds / 1e9;
  const double bw = Ceilings::bandwidth_gbps(bytes, threads);
  const double peak = ceil.peak(threads);
  layers.set("la." + name + "." + unit, seconds * (unit == "us" ? 1e6 : 1e3), unit);
  layers.set("la." + name + ".gflops", gflops, "GFLOP/s");
  layers.set("la." + name + ".gbps", bytes / seconds / 1e9, "GB/s");
  layers.set("la." + name + ".roofline_pct",
             100 * gflops / std::min(peak, bw * flops / bytes), "%");
  Json row = Json::object();
  row["bytes"] = bytes;
  row["flops"] = flops;
  row["threads"] = threads;
  row["bandwidth_ceiling_gbps"] = bw;
  row["peak_gflops"] = peak;
  info["la." + name] = std::move(row);
}

}  // namespace

Json run_layer_suite(const Options& options, const LayerInputs& in, Metrics& layers,
                     Gates& gates) {
  const Matrix& d = *in.dictionary;
  const Matrix& data = *in.data;
  const Matrix& signals = *in.signals;
  const Index m = d.rows();
  const Index l = d.cols();
  la::Rng rng(options.seed + 17);
  Json info = Json::object();

  const Ceilings ceil = measure_ceilings(options.smoke, layers, info);
  const extdict::sparsecoding::BatchOmp coder(d, in.omp);
  const auto dm = static_cast<double>(m);
  const auto dl = static_cast<double>(l);

  // ---- la --------------------------------------------------------------
  {
    const TraceScope span("perf.layer.la.gemv_t");
    const SingleThread one;
    la::Vector y(static_cast<std::size_t>(l));
    kernel_row("gemv_t", kernel_s([&] { la::gemv_t(1, d, signals.col(0), 0, y); }),
               "us", static_cast<double>(la::gemv_flops(m, l)), 8 * (dm * dl + dm + dl),
               1, ceil, layers, info);
  }
  {
    // The batched Dᵀ·X of a full 32-column serving batch.
    const TraceScope span("perf.layer.la.gemm");
    const Index k = std::min<Index>(32, signals.cols());
    const Matrix x = column_range(signals, 0, k);
    Matrix out(l, k);
    const auto dk = static_cast<double>(k);
    kernel_row("gemm",
               kernel_s([&] { la::gemm(1, d, la::Trans::kYes, x, la::Trans::kNo, 0, out); }),
               "ms", static_cast<double>(la::gemm_flops(l, k, m)),
               8 * (dm * dl + dm * dk + dl * dk), ceil.threads, ceil, layers, info);
  }
  {
    // Upper triangle only (la::gram mirrors it): M·L(L+1) FLOPs.
    const TraceScope span("perf.layer.la.gram");
    kernel_row("gram", median_call_s([&] { (void)la::gram(d); }, 3, 1.0, 10), "ms",
               dm * dl * (dl + 1), 8 * (dm * dl + dl * dl), ceil.threads, ceil, layers,
               info);
  }
  {
    // One Batch-OMP factor grown to k = 32 atoms spread over D. Appending
    // row i costs i² + 2i + 1 FLOPs (forward solve, norm, square root).
    const TraceScope span("perf.layer.la.chol_append");
    const SingleThread one;
    const Index k = std::min<Index>(32, std::min(m, l));
    std::vector<Index> atoms;
    for (Index a = 0; a < k; ++a) atoms.push_back(a * l / k);
    std::vector<la::Vector> rows;
    for (Index t = 0; t < k; ++t) {
      la::Vector row;
      for (Index a = 0; a < t; ++a) row.push_back(coder.gram()(atoms[a], atoms[t]));
      rows.push_back(std::move(row));
    }
    la::ProgressiveCholesky chol(k);
    const auto dk = static_cast<double>(k);
    kernel_row("chol_append", kernel_s([&] {
                 chol.reset();
                 for (Index t = 0; t < k; ++t) {
                   (void)chol.append(rows[static_cast<std::size_t>(t)],
                                     coder.gram()(atoms[t], atoms[t]));
                 }
               }),
               "us", dk * (dk + 1) * (2 * dk + 1) / 6, 8 * dk * (dk + 1), 1, ceil, layers,
               info);
  }

  // ---- core: encode_all gives C where the workload has none -------------
  CscMatrix own_codes;
  {
    const TraceScope span("perf.layer.core.encode_all");
    const extdict::sparsecoding::BatchOmp gram_ready(d, coder.gram(), in.omp);
    layers.set("core.exd.encode_all_s",
               heavy_s([&] { own_codes = gram_ready.encode_all(data); }), "s");
  }
  const CscMatrix& c = in.codes != nullptr ? *in.codes : own_codes;
  const Index n = c.cols();
  const auto nnz = static_cast<double>(c.nnz());
  layers.set("core.exd.alpha", c.density_per_column(), "count");
  {
    const TraceScope span("perf.layer.core.error");
    layers.set("core.exd.error_s",
               heavy_s([&] { (void)core::transformation_error(data, d, c); }), "s");
  }
  {
    // CSC bytes: values + row indices + column pointers, plus x and v.
    const TraceScope span("perf.layer.la.spmv");
    const SingleThread one;
    la::Vector x(static_cast<std::size_t>(n)), v(static_cast<std::size_t>(l));
    rng.fill_gaussian(x);
    const double bytes = 16 * nnz + 8 * (2 * static_cast<double>(n) + 1 + dl);
    kernel_row("spmv", kernel_s([&] { c.spmv(x, v); }), "us", 2 * nnz, bytes, 1, ceil,
               layers, info);
    kernel_row("spmv_t", kernel_s([&] { c.spmv_t(v, x); }), "us", 2 * nnz, bytes, 1, ceil,
               layers, info);
  }
  {
    const TraceScope span("perf.layer.core.gram_apply");
    const SingleThread one;
    const core::TransformedGramOperator op(d, c);
    la::Vector x(static_cast<std::size_t>(n)), y(static_cast<std::size_t>(n));
    rng.fill_gaussian(x);
    layers.set("core.gram_apply.ms", kernel_s([&] { op.apply(x, y); }) * 1e3, "ms");
  }
  {
    const TraceScope span("perf.layer.core.extend_gram");
    const Index k = std::min<Index>(32, signals.cols());
    const Matrix atoms = column_range(signals, signals.cols() - k, k);
    layers.set("core.extend_gram.ms",
               median_call_s([&] { (void)core::extend_gram_bordered(coder.gram(), d, atoms); },
                             5, 1.0, 50) *
                   1e3,
               "ms");
  }

  // ---- sparsecoding ------------------------------------------------------
  {
    const TraceScope span("perf.layer.sparsecoding.encode");
    const SingleThread one;
    const Index count = std::min<Index>(256, signals.cols());
    std::vector<double> us;
    double atoms = 0, flops = 0, total_s = 0;
    for (Index j = 0; j < count; ++j) {
      extdict::sparsecoding::SparseCode code;
      const double s = time_seconds([&] { code = coder.encode(signals.col(j)); });
      us.push_back(s * 1e6);
      total_s += s;
      atoms += static_cast<double>(code.nnz());
      flops += static_cast<double>(code.flops);
    }
    const double encode_us = median(us);
    layers.set("sparsecoding.encode.us", encode_us, "us");
    layers.set("sparsecoding.encode.p99_us", quantile(us, 0.99), "us");
    layers.set("sparsecoding.atoms", atoms / static_cast<double>(count), "count");
    layers.set("sparsecoding.flops", flops / static_cast<double>(count), "FLOP");
    layers.set("sparsecoding.gflops", flops / total_s / 1e9, "GFLOP/s");
    layers.set("sparsecoding.corr_share", layers.get("la.gemv_t.us") / encode_us, "ratio");
  }

  // ---- dist: Alg. 2 on the emulated 1x4 cluster --------------------------
  const dist::Cluster cluster(dist::Topology{1, kRanks});
  {
    const TraceScope span("perf.layer.core.dist_gram");
    auto& metrics = extdict::util::MetricsRegistry::global();
    const double update_s0 = metrics.span_seconds("dist_gram.update");
    const double update_n0 = static_cast<double>(metrics.span_count("dist_gram.update"));
    const double norm_s0 = metrics.span_seconds("dist_gram.normalize");
    const double norm_n0 = static_cast<double>(metrics.span_count("dist_gram.normalize"));
    const int iterations = options.smoke ? 10 : 100;  // as alg2_solve's calls
    la::Vector x0(static_cast<std::size_t>(n));
    rng.fill_gaussian(x0);
    core::DistGramResult r;
    const double s = time_seconds(
        [&] { r = core::dist_gram_apply(cluster, d, c, x0, iterations); });
    layers.set("core.dist_gram.iter_ms", s * 1e3 / iterations, "ms");
    layers.set("core.dist_gram.update_ms",
               (metrics.span_seconds("dist_gram.update") - update_s0) /
                   (static_cast<double>(metrics.span_count("dist_gram.update")) - update_n0) * 1e3,
               "ms");
    layers.set("core.dist_gram.normalize_ms",
               (metrics.span_seconds("dist_gram.normalize") - norm_s0) /
                   (static_cast<double>(metrics.span_count("dist_gram.normalize")) - norm_n0) *
                   1e3,
               "ms");
    layers.set("core.dist_gram.flops_per_iter",
               static_cast<double>(r.update_flops_per_iteration()), "FLOP");
    layers.set("dist.words_per_iter",
               static_cast<double>(r.stats.max_rank_words()) / iterations, "count");
    info["words_model_min_m_l"] = std::min(m, l);
    gate_dist_gram_flops(r, d, c, gates);
  }
  {
    const TraceScope span("perf.layer.dist.allreduce");
    std::vector<double> us;
    (void)cluster.run([&](dist::Communicator& comm) {
      la::Vector buf(static_cast<std::size_t>(l), 0);
      std::vector<double> mine;
      for (int i = 0; i < 200; ++i) {
        mine.push_back(time_seconds([&] { comm.allreduce_sum(buf); }) * 1e6);
      }
      if (comm.is_root()) us = std::move(mine);
    });
    layers.set("dist.allreduce.us", median(us), "us");
  }

  // ---- solvers: time to a converged solution -----------------------------
  // Untraced: hundreds of iterations would overflow the rank-lane rings, and
  // the attribution above already has its Alg. 2 iterations.
  auto& recorder = extdict::util::TraceRecorder::global();
  const bool tracing = recorder.enabled();
  recorder.set_enabled(false);
  {
    const TraceScope span("perf.layer.solvers.pca");
    solvers::PowerConfig pca;
    pca.num_eigenpairs = 2;
    solvers::DistPowerResult r;
    layers.set("solvers.pca.s", time_seconds([&] {
                 r = solvers::power_method_distributed(cluster, d, c, pca);
               }),
               "s");
    layers.set("solvers.pca.iters", r.total_iterations(), "count");
  }
  {
    const TraceScope span("perf.layer.solvers.lasso");
    solvers::LassoConfig lasso;
    lasso.objective_every = 0;
    const la::Vector y(data.col(0).begin(), data.col(0).end());
    solvers::DistLassoResult r;
    layers.set("solvers.lasso.s", time_seconds([&] {
                 r = solvers::lasso_solve_distributed(cluster, d, c, y, lasso);
               }),
               "s");
    layers.set("solvers.lasso.iters", r.iterations, "count");
  }
  recorder.set_enabled(tracing);
  return info;
}

void fill_serve_layers(const Options& options, const LayerInputs& in, Metrics& layers,
                       Gates& gates) {
  const auto config = paper_server_config(4096);
  if (!layers.has("net.overhead.p50_ms")) {
    // Wire probe: the serve_wire_open set-up at this workload's shapes, one
    // low-rate rung.
    const TraceScope span("perf.layer.serve.wire_probe");
    net::Daemon daemon(std::make_shared<extdict::serve::ExtDictServer>(*in.dictionary, config));
    const RequestSignals signals(*in.signals, options.seed + 11, 0.0005);
    const double rate = options.smoke ? 100 : 300;
    const std::vector<Rung> rungs{{rate, 0.5, false}, {rate, options.smoke ? 0.5 : 4.0, true}};
    const ServeCounters before = ServeCounters::of(daemon);
    std::vector<OpenLoopResult> runs;
    runs.push_back(run_open_loop(daemon.port(), rungs, signals, options.seed + 13, 0, 2, 25));
    const ServeCounters after = ServeCounters::of(daemon);
    daemon.stop(extdict::serve::StopMode::kDrain);
    gate_wire_run(daemon, runs, signals, gates);
    layers.merge_missing(wire_layer_metrics(runs.front(), before, after, config.workers));
  }
  if (!layers.has("serve.registry.extend_ms")) {
    const TraceScope span("perf.layer.serve.extend");
    extdict::serve::DictRegistry registry(*in.dictionary, config.omp);
    const Matrix atoms =
        column_range(*in.signals, 0, std::min<Index>(32, in.signals->cols()));
    layers.set("serve.registry.extend_ms",
               median_call_s([&] { (void)registry.extend(atoms); }, 5, 0.0, 5) * 1e3, "ms");
  }
}

}  // namespace perf
