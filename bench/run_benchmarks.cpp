// Model-verification benchmark driver: closes the model-vs-measurement loop
// and writes it down as machine-checkable JSON.
//
//   run_benchmarks [--quick] [--out DIR] [--trace FILE]
//
// Emits two schema-stable files (validated by tools/validate_bench_json.py,
// run in CI's bench-smoke job):
//
//   BENCH_gram_model.json  — the Fig. 8-style sweep: every GramStrategy of
//     Algorithm 2 plus the original AᵀA baseline, across datasets and
//     platforms, with measured {FLOPs, words, time} next to the modeled
//     Eq. (2) quantities. For every Eq. (2)-covered case the metered
//     per-iteration update FLOPs must equal 2 × the model's multiply-add
//     pairs EXACTLY — any drift fails the process (non-zero exit), which is
//     precisely the net that would have caught the 2× work undercount.
//
//   BENCH_solvers.json — LASSO and power-method runs (serial + distributed)
//     with their metered counters and a full metrics-registry snapshot; the
//     distributed solvers' update FLOPs per iteration must equal the Eq. (2)
//     model exactly, like the sweep's.
//
// --quick runs test-scale datasets on the two smallest platforms (seconds,
// CI-friendly); the default runs bench scale across all paper platforms.
//
// --trace FILE additionally records a per-rank event timeline (solver sweep
// plus a dedicated P=4 Alg. 2 window over every Gram strategy) and exports
// it as Chrome trace-event JSON — open it at ui.perfetto.dev or feed it to
// tools/analyze_trace.py. Any dropped event fails the run: the default ring
// capacity must hold the whole window.

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <string>
#include <vector>

#include "core/cost_model.hpp"
#include "core/dist_gram.hpp"
#include "core/exd.hpp"
#include "data/datasets.hpp"
#include "dist/platform.hpp"
#include "la/random.hpp"
#include "sparsecoding/batch_omp.hpp"
#include "solvers/lasso.hpp"
#include "solvers/power_method.hpp"
#include "util/json.hpp"
#include "util/metrics.hpp"
#include "util/timer.hpp"
#include "util/trace.hpp"

namespace {

using namespace extdict;
using la::Index;
using la::Real;
using util::Json;

struct Options {
  bool quick = false;
  std::string out_dir = ".";
  std::string trace_path;  // empty: tracing off
};

struct Transform {
  Index l = 0;
  core::ExdResult exd;
};

struct Dataset {
  std::string name;
  la::Matrix a;
  std::vector<Transform> transforms;
};

const char* strategy_name(core::GramStrategy s) {
  switch (s) {
    case core::GramStrategy::kRootDictionary: return "root_dictionary";
    case core::GramStrategy::kReplicatedDictionary: return "replicated_dictionary";
    case core::GramStrategy::kPartitionedDictionary: return "partitioned_dictionary";
    case core::GramStrategy::kAuto: return "auto";
  }
  return "?";
}

// The L sweep: spec grid (every other point) at bench scale, a three-point
// {M/2, M, 2M}-shaped grid clamped to N at test scale so the sweep crosses
// the L = M dispatch boundary even on tiny instances.
std::vector<Index> l_grid(const data::DatasetSpec& spec, const la::Matrix& a,
                          bool quick) {
  std::vector<Index> grid;
  if (quick) {
    for (const Index candidate :
         {std::max<Index>(8, a.rows() / 2), std::min(a.rows(), a.cols() / 2),
          std::min(2 * a.rows(), 2 * a.cols() / 3)}) {
      if (candidate > 0 && candidate <= a.cols()) grid.push_back(candidate);
    }
  } else {
    for (std::size_t i = 0; i < spec.l_grid.size(); i += 2) {
      if (spec.l_grid[i] <= a.cols()) grid.push_back(spec.l_grid[i]);
    }
  }
  std::sort(grid.begin(), grid.end());
  grid.erase(std::unique(grid.begin(), grid.end()), grid.end());
  return grid;
}

std::vector<Dataset> load_datasets(bool quick) {
  std::vector<Dataset> sets;
  for (const auto& spec : data::all_datasets()) {
    Dataset set;
    set.name = spec.name;
    util::Timer t;
    set.a = data::make_dataset(spec.id,
                               quick ? data::Scale::kTest : data::Scale::kBench);
    std::printf("[data] %s: %td x %td (%.1f ms)\n", spec.name.c_str(),
                set.a.rows(), set.a.cols(), t.elapsed_ms());
    for (const Index l : l_grid(spec, set.a, quick)) {
      core::ExdConfig exd;
      exd.dictionary_size = l;
      exd.tolerance = 0.1;
      exd.seed = 8;
      set.transforms.push_back({l, core::exd_transform(set.a, exd)});
    }
    sets.push_back(std::move(set));
  }
  return sets;
}

std::vector<dist::PlatformSpec> platforms(bool quick) {
  auto all = dist::paper_platforms();
  if (quick) all.resize(2);  // 1x1 and 1x4
  return all;
}

Json measured_json(const core::DistGramResult& run, double wall_seconds,
                   const dist::PlatformSpec& platform) {
  Json j = Json::object();
  j["update_flops_per_iteration"] = run.update_flops_per_iteration();
  j["total_flops"] = run.stats.total_flops();
  j["words_total"] = run.stats.total_words();
  j["critical_path_words"] = run.stats.max_rank_words();
  j["peak_memory_words"] = run.stats.max_peak_memory_words();
  j["wall_seconds"] = wall_seconds;
  j["modeled_seconds_from_counters"] = platform.modeled_seconds(run.stats);
  return j;
}

Json modeled_json(const core::UpdateCost& cost, Index p) {
  Json j = Json::object();
  const double work_pairs = cost.flops_per_proc * static_cast<double>(p);
  j["work_pairs"] = work_pairs;               // Eq. (2) work term, total
  j["flops"] = 2.0 * work_pairs;              // 2 FLOPs per multiply-add pair
  j["comm_words"] = cost.comm_words;
  j["time_cost_flop_equiv"] = cost.time_cost;
  j["energy_cost_flop_equiv"] = cost.energy_cost;
  j["memory_words_per_proc"] = cost.memory_words_per_proc;
  return j;
}

// Re-runs the quickest workload with the registry switched on and off and
// reports the delta; documents that the instrumentation is below the noise
// floor of the phases it brackets.
Json instrumentation_overhead(const Dataset& set) {
  const auto& t = set.transforms.front();
  const dist::Cluster cluster(dist::Topology{1, 4});
  const la::Vector x0(static_cast<std::size_t>(set.a.cols()), Real{1});
  constexpr int kReps = 5;
  constexpr int kIters = 4;

  util::MetricsRegistry& metrics = util::MetricsRegistry::global();
  const auto time_reps = [&] {
    std::vector<double> seconds;
    for (int r = 0; r < kReps; ++r) {
      util::Timer timer;
      (void)core::dist_gram_apply(cluster, t.exd.dictionary, t.exd.coefficients,
                                  x0, kIters,
                                  core::GramStrategy::kPartitionedDictionary);
      seconds.push_back(timer.elapsed_seconds());
    }
    std::sort(seconds.begin(), seconds.end());
    return seconds[seconds.size() / 2];  // median
  };

  const double enabled_s = time_reps();
  metrics.set_enabled(false);
  const double disabled_s = time_reps();
  metrics.set_enabled(true);

  Json j = Json::object();
  j["workload"] = set.name + " partitioned dist_gram_apply, " +
                  std::to_string(kIters) + " iterations, P=4, median of " +
                  std::to_string(kReps);
  j["metrics_enabled_seconds"] = enabled_s;
  j["metrics_disabled_seconds"] = disabled_s;
  j["delta_pct"] =
      disabled_s > 0 ? 100.0 * (enabled_s - disabled_s) / disabled_s : 0.0;
  j["note"] =
      "span timers + atomic counters; the delta sits inside run-to-run "
      "scheduler noise for every metered phase (compare the spread of "
      "wall_seconds across cases)";
  return j;
}

int write_file(const std::string& path, const Json& doc) {
  std::ofstream out(path);
  if (!out) {
    std::fprintf(stderr, "error: cannot write %s\n", path.c_str());
    return 1;
  }
  out << doc.dump(2) << '\n';
  std::printf("[out] %s\n", path.c_str());
  return 0;
}

int run_gram_model(const Options& options, const std::vector<Dataset>& sets) {
  Json doc = Json::object();
  doc["schema_version"] = 1;
  doc["benchmark"] = "bench/run_benchmarks gram-model sweep";
  doc["mode"] = options.quick ? "quick" : "full";
  doc["units"] =
      "work_pairs: multiply-add pairs (the Eq. 2 work term); flops: 2 per "
      "pair, matching dist::CostCounters; time costs in FLOP-equivalents";

  Json cases = Json::array();
  int total_cases = 0, covered_cases = 0, exact_matches = 0;
  constexpr int kIters = 2;

  constexpr core::GramStrategy kStrategies[] = {
      core::GramStrategy::kPartitionedDictionary,
      core::GramStrategy::kRootDictionary,
      core::GramStrategy::kReplicatedDictionary,
  };

  for (const auto& set : sets) {
    const Index m = set.a.rows();
    const Index n = set.a.cols();
    const la::Vector x0(static_cast<std::size_t>(n), Real{1});
    for (const auto& platform : platforms(options.quick)) {
      const Index p = platform.topology.total();
      const dist::Cluster cluster(platform.topology);
      for (const auto& t : set.transforms) {
        const std::uint64_t nnz = t.exd.coefficients.nnz();
        const core::UpdateCost cost =
            core::transformed_update_cost(m, t.l, nnz, n, p, platform);
        for (const core::GramStrategy strategy : kStrategies) {
          util::Timer timer;
          const auto run = core::dist_gram_apply(
              cluster, t.exd.dictionary, t.exd.coefficients, x0, kIters, strategy);
          const double wall = timer.elapsed_seconds();

          // Eq. (2) covers every strategy whose total update work is
          // 2·(M·L + nnz) pairs; the replicated dictionary redoes the dense
          // chain on every rank, so it is covered only at P = 1.
          const bool covered =
              strategy != core::GramStrategy::kReplicatedDictionary || p == 1;
          // work = 2·(M·L + nnz) multiply-add pairs; 2 FLOPs per pair.
          const auto model_flops = static_cast<std::uint64_t>(
              2.0 * cost.flops_per_proc * static_cast<double>(p));
          const std::uint64_t redundancy_flops =
              4 * nnz + 4 * static_cast<std::uint64_t>(m) *
                            static_cast<std::uint64_t>(t.l) *
                            static_cast<std::uint64_t>(p);
          const std::uint64_t expected =
              covered ? model_flops : redundancy_flops;
          const bool exact = run.update_flops_per_iteration() == expected;

          Json c = Json::object();
          c["dataset"] = set.name;
          c["platform"] = platform.name;
          c["strategy"] = strategy_name(strategy);
          c["m"] = m;
          c["l"] = t.l;
          c["n"] = n;
          c["nnz"] = nnz;
          c["p"] = p;
          c["iterations"] = kIters;
          c["measured"] = measured_json(run, wall, platform);
          c["modeled"] = modeled_json(cost, p);
          Json check = Json::object();
          check["covered_by_eq2"] = covered;
          check["expected_flops_per_iteration"] = expected;
          check["flops_match_exact"] = exact;
          c["model_check"] = std::move(check);
          cases.push_back(std::move(c));

          ++total_cases;
          if (covered) ++covered_cases;
          if (exact) ++exact_matches;
        }

        // The original AᵀA baseline on the same dataset/platform.
        {
          util::Timer timer;
          const auto run = core::dist_gram_apply_original(cluster, set.a, x0, kIters);
          const double wall = timer.elapsed_seconds();
          const core::UpdateCost orig = core::original_update_cost(m, n, p, platform);
          const auto model_flops = static_cast<std::uint64_t>(
              2.0 * orig.flops_per_proc * static_cast<double>(p));
          const bool exact = run.update_flops_per_iteration() == model_flops;

          Json c = Json::object();
          c["dataset"] = set.name;
          c["platform"] = platform.name;
          c["strategy"] = "original_ata";
          c["m"] = m;
          c["l"] = 0;
          c["n"] = n;
          c["nnz"] = static_cast<std::uint64_t>(m) * static_cast<std::uint64_t>(n);
          c["p"] = p;
          c["iterations"] = kIters;
          c["measured"] = measured_json(run, wall, platform);
          c["modeled"] = modeled_json(orig, p);
          Json check = Json::object();
          check["covered_by_eq2"] = true;
          check["expected_flops_per_iteration"] = model_flops;
          check["flops_match_exact"] = exact;
          c["model_check"] = std::move(check);
          cases.push_back(std::move(c));

          ++total_cases;
          ++covered_cases;
          if (exact) ++exact_matches;
        }
      }
    }
  }

  doc["cases"] = std::move(cases);
  Json summary = Json::object();
  summary["cases"] = total_cases;
  summary["covered_by_eq2"] = covered_cases;
  summary["exact_flop_matches"] = exact_matches;
  summary["all_cases_match"] = exact_matches == total_cases;
  doc["summary"] = std::move(summary);
  doc["instrumentation_overhead"] = instrumentation_overhead(sets.front());

  const int rc = write_file(options.out_dir + "/BENCH_gram_model.json", doc);
  std::printf("gram model: %d/%d cases match their closed form exactly "
              "(%d Eq. 2-covered)\n",
              exact_matches, total_cases, covered_cases);
  if (exact_matches != total_cases) {
    std::fprintf(stderr,
                 "error: measured update FLOPs diverged from the cost model\n");
    return 1;
  }
  return rc;
}

int run_solvers(const Options& options, const std::vector<Dataset>& sets) {
  util::MetricsRegistry& metrics = util::MetricsRegistry::global();
  metrics.reset();

  Json doc = Json::object();
  doc["schema_version"] = 1;
  doc["benchmark"] = "bench/run_benchmarks solver sweep";
  doc["mode"] = options.quick ? "quick" : "full";
  Json cases = Json::array();

  const auto& set = sets.front();
  const auto& t = set.transforms.front();
  const Index m = set.a.rows();
  const Index n = set.a.cols();

  {  // Serial LASSO through the transformed operator.
    const core::TransformedGramOperator op(t.exd.dictionary, t.exd.coefficients);
    la::Vector y(static_cast<std::size_t>(m), Real{1});
    solvers::LassoConfig config;
    config.lambda = 0.05;
    config.max_iterations = options.quick ? 60 : 200;
    util::Timer timer;
    const auto r = solvers::lasso_solve(op, y, config);
    Json c = Json::object();
    c["solver"] = "lasso_serial_transformed";
    c["dataset"] = set.name;
    c["l"] = t.l;
    Json measured = Json::object();
    measured["iterations"] = r.iterations;
    measured["converged"] = r.converged;
    measured["final_objective"] = r.final_objective;
    measured["wall_seconds"] = timer.elapsed_seconds();
    measured["gram_flops_counter"] = metrics.value("gram_operator.transformed.flops");
    c["measured"] = std::move(measured);
    cases.push_back(std::move(c));
  }

  // Both distributed solvers run dist_gram_apply's step under kAuto. This
  // transform has L <= M, so that is the partitioned layout: its metered
  // update FLOPs per iteration must equal the Eq. (2) model exactly, as in
  // the gram-model sweep.
  bool solver_model_ok = true;
  const auto solver_model_check = [&](std::uint64_t update_flops,
                                      int iterations,
                                      const dist::PlatformSpec& platform) {
    const Index p = platform.topology.total();
    const auto model = static_cast<std::uint64_t>(
        2.0 * static_cast<double>(p) *
        core::transformed_update_cost(m, t.l, t.exd.coefficients.nnz(), n, p,
                                      platform)
            .flops_per_proc);
    const auto iters = static_cast<std::uint64_t>(std::max(iterations, 0));
    const std::uint64_t per_iteration = iters > 0 ? update_flops / iters : 0;
    const bool exact = iters > 0 && update_flops == model * iters;
    solver_model_ok = solver_model_ok && exact;
    Json check = Json::object();
    check["update_flops_per_iteration"] = per_iteration;
    check["model_flops_per_iteration"] = model;
    check["flops_match_exact"] = exact;
    return check;
  };

  {  // Distributed LASSO on the 1-node multi-core platform.
    const auto platform = platforms(options.quick).back();
    const dist::Cluster cluster(platform.topology);
    la::Vector y(static_cast<std::size_t>(m), Real{1});
    solvers::LassoConfig config;
    config.lambda = 0.05;
    config.max_iterations = options.quick ? 60 : 200;
    util::Timer timer;
    const auto r = solvers::lasso_solve_distributed(
        cluster, t.exd.dictionary, t.exd.coefficients, y, config);
    Json c = Json::object();
    c["solver"] = "lasso_distributed";
    c["dataset"] = set.name;
    c["l"] = t.l;
    c["platform"] = platform.name;
    Json measured = Json::object();
    measured["iterations"] = r.iterations;
    measured["converged"] = r.converged;
    measured["final_objective"] = r.final_objective;
    measured["wall_seconds"] = timer.elapsed_seconds();
    measured["total_flops"] = r.stats.total_flops();
    measured["words_total"] = r.stats.total_words();
    measured["critical_path_words"] = r.stats.max_rank_words();
    c["measured"] = std::move(measured);
    const core::UpdateCost cost = core::transformed_update_cost(
        m, t.l, t.exd.coefficients.nnz(), n, platform.topology.total(), platform);
    c["modeled_per_update"] = modeled_json(cost, platform.topology.total());
    c["model_check"] = solver_model_check(r.update_flops, r.iterations, platform);
    cases.push_back(std::move(c));
  }

  {  // Distributed power method (PCA), auto strategy dispatch.
    const auto platform = platforms(options.quick).back();
    const dist::Cluster cluster(platform.topology);
    solvers::PowerConfig config;
    config.num_eigenpairs = 2;
    config.max_iterations = options.quick ? 30 : 100;
    util::Timer timer;
    const auto r = solvers::power_method_distributed(
        cluster, t.exd.dictionary, t.exd.coefficients, config);
    Json c = Json::object();
    c["solver"] = "power_method_distributed";
    c["dataset"] = set.name;
    c["l"] = t.l;
    c["platform"] = platform.name;
    Json measured = Json::object();
    Json eigs = Json::array();
    for (const Real v : r.eigenvalues) eigs.push_back(v);
    measured["eigenvalues"] = std::move(eigs);
    Json iters = Json::array();
    for (const int it : r.iterations) iters.push_back(it);
    measured["iterations"] = std::move(iters);
    measured["wall_seconds"] = timer.elapsed_seconds();
    measured["total_flops"] = r.stats.total_flops();
    measured["words_total"] = r.stats.total_words();
    c["measured"] = std::move(measured);
    c["model_check"] =
        solver_model_check(r.update_flops, r.total_iterations(), platform);
    cases.push_back(std::move(c));
  }

  // Batch-OMP FLOP model check, same contract as the gram-model sweep: the
  // per-encode meter in BatchOmp::encode and the closed form in
  // encode_flops are independent derivations of the same count and must
  // agree EXACTLY on every signal. This net catches the k³-for-solves
  // overcount class of bug (each triangular solve pair is 2s², not k²).
  bool omp_model_ok = true;
  {
    const struct { Index m, l, max_atoms; Real tolerance; } omp_cases[] = {
        {32, 64, 8, 0.0},    // atom-budget stop
        {64, 128, 0, 0.1},   // tolerance stop, deeper runs
    };
    la::Rng rng(29);
    const int signals = options.quick ? 64 : 512;
    for (const auto& spec : omp_cases) {
      const la::Matrix dict = rng.gaussian_matrix(spec.m, spec.l, true);
      const sparsecoding::BatchOmp coder(
          dict, {.tolerance = spec.tolerance, .max_atoms = spec.max_atoms});
      la::Vector signal(static_cast<std::size_t>(spec.m));
      std::uint64_t metered_total = 0, modeled_total = 0;
      int exact = 0, iterations_max = 0;
      util::Timer timer;
      for (int i = 0; i < signals; ++i) {
        rng.fill_gaussian(signal);
        const auto code = coder.encode(signal);
        metered_total += code.flops;
        modeled_total += coder.encode_flops(code.iterations);
        if (code.flops == coder.encode_flops(code.iterations)) ++exact;
        iterations_max = std::max(iterations_max, code.iterations);
      }
      const bool all_exact = exact == signals;
      omp_model_ok = omp_model_ok && all_exact;

      Json c = Json::object();
      c["solver"] = "batch_omp_flop_model";
      c["dataset"] = "synthetic_gaussian";
      c["m"] = spec.m;
      c["l"] = spec.l;
      c["max_atoms"] = static_cast<std::uint64_t>(spec.max_atoms);
      c["tolerance"] = spec.tolerance;
      c["signals"] = signals;
      Json measured = Json::object();
      measured["metered_flops_total"] = metered_total;
      measured["iterations_max"] = iterations_max;
      measured["wall_seconds"] = timer.elapsed_seconds();
      c["measured"] = std::move(measured);
      Json check = Json::object();
      check["modeled_flops_total"] = modeled_total;
      check["exact_matches"] = exact;
      check["flops_match_exact"] = all_exact;
      c["model_check"] = std::move(check);
      cases.push_back(std::move(c));
      std::printf("batch-omp flop model: %d/%d signals exact (m=%td l=%td)\n",
                  exact, signals, spec.m, spec.l);
    }
  }

  doc["cases"] = std::move(cases);
  // The registry as the solvers left it — counters and phase spans together.
  doc["metrics_snapshot"] = metrics.to_json();
  const int rc = write_file(options.out_dir + "/BENCH_solvers.json", doc);
  if (!solver_model_ok) {
    std::fprintf(stderr,
                 "error: distributed solvers' update FLOPs diverged from the "
                 "cost model\n");
    return 1;
  }
  if (!omp_model_ok) {
    std::fprintf(stderr,
                 "error: metered Batch-OMP FLOPs diverged from "
                 "encode_flops()\n");
    return 1;
  }
  return rc;
}

// Dedicated trace window: one P=4 Alg. 2 run per Gram strategy plus the
// original AᵀA baseline, on the smallest dataset/transform. Runs with the
// recorder already enabled (main switches it on before run_solvers), attaches
// the model parameters analyze_trace.py compares against, and exports.
// Dropped events fail the run — the acceptance bar is a complete timeline at
// the default ring capacity.
int run_trace(const Options& options, const std::vector<Dataset>& sets) {
  util::TraceRecorder& trace = util::TraceRecorder::global();
  const auto& set = sets.front();
  const auto& t = set.transforms.front();
  const Index m = set.a.rows();
  const Index n = set.a.cols();
  const std::uint64_t nnz = t.exd.coefficients.nnz();
  // The 1x4 paper platform — P=4 emulated ranks regardless of mode.
  const auto platform = platforms(true).back();
  const Index p = platform.topology.total();
  const dist::Cluster cluster(platform.topology);
  const la::Vector x0(static_cast<std::size_t>(n), Real{1});
  constexpr int kIters = 3;

  constexpr core::GramStrategy kStrategies[] = {
      core::GramStrategy::kRootDictionary,
      core::GramStrategy::kReplicatedDictionary,
      core::GramStrategy::kPartitionedDictionary,
  };
  for (const core::GramStrategy strategy : kStrategies) {
    (void)core::dist_gram_apply(cluster, t.exd.dictionary, t.exd.coefficients,
                                x0, kIters, strategy);
  }
  (void)core::dist_gram_apply_original(cluster, set.a, x0, kIters);
  trace.set_enabled(false);

  Json model = Json::object();
  model["dataset"] = set.name;
  model["m"] = m;
  model["l"] = t.l;
  model["n"] = n;
  model["nnz"] = nnz;
  model["p"] = p;
  model["iterations"] = kIters;
  model["min_m_l"] = std::min(m, t.l);  // the Eq. (2) per-phase word term
  trace.set_metadata("model", std::move(model));
  trace.set_metadata("mode", options.quick ? "quick" : "full");

  const int rc = write_file(options.trace_path, trace.to_chrome_json());
  const std::uint64_t dropped = trace.dropped_events();
  std::printf("trace: %llu events recorded, %llu dropped\n",
              static_cast<unsigned long long>(trace.recorded_events()),
              static_cast<unsigned long long>(dropped));
  if (dropped != 0) {
    std::fprintf(stderr,
                 "error: trace dropped %llu events — raise the ring capacity "
                 "or shrink the traced window\n",
                 static_cast<unsigned long long>(dropped));
    return 1;
  }
  return rc;
}

}  // namespace

int main(int argc, char** argv) {
  Options options;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--quick") == 0) {
      options.quick = true;
    } else if (std::strcmp(argv[i], "--out") == 0 && i + 1 < argc) {
      options.out_dir = argv[++i];
    } else if (std::strcmp(argv[i], "--trace") == 0 && i + 1 < argc) {
      options.trace_path = argv[++i];
    } else {
      std::fprintf(stderr,
                   "usage: run_benchmarks [--quick] [--out DIR] "
                   "[--trace FILE]\n");
      return 2;
    }
  }

  std::printf("run_benchmarks (%s mode)\n", options.quick ? "quick" : "full");
  const std::vector<Dataset> sets = load_datasets(options.quick);

  // The gram sweep runs untraced: its 70+ cases would swamp the ring buffers
  // (and the timeline). Tracing covers the solver sweep and the dedicated
  // Alg. 2 window below.
  const int gram_rc = run_gram_model(options, sets);
  if (!options.trace_path.empty()) {
    util::TraceRecorder::global().set_enabled(true);
  }
  const int solver_rc = run_solvers(options, sets);
  const int trace_rc =
      options.trace_path.empty() ? 0 : run_trace(options, sets);
  if (gram_rc != 0) return gram_rc;
  if (solver_rc != 0) return solver_rc;
  return trace_rc;
}
