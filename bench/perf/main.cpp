// extdict_perf: one seeded workload per process.
//
//   extdict_perf --workload NAME [--seed S] [--seconds T] [--smoke]
//                [--trace FILE] [--out FILE]
//
// Untraced (default): set up 3-9 times (median = setup_s), warm up,
// measure for T seconds, verify, and report the end-to-end metrics.
// --trace FILE: set up once, measure T/2 untraced and T/2 with the trace
// recorder on, time every layer at the workload's shapes, write the Chrome
// trace to FILE and report the per-layer metrics. Either way the result is
// one JSON document (stdout, or --out FILE) and the exit code is 0 only if
// every correctness gate held. bench/perf/run.py is the usual entry point.

#include <cstdio>
#include <exception>
#include <fstream>
#include <string>

#include "perf.hpp"
#include "util/metrics.hpp"
#include "util/trace.hpp"

namespace {

using perf::Json;

// Set-ups per untraced run. The first pays for fresh pages and cold caches,
// and a single short set-up swings with the machine's load, so setup_s is
// the median of several: at least kMinSetups, and more, up to kMaxSetups,
// while the set-ups so far took under kSetupBudgetS. Cheap set-ups get more
// samples; the costliest (alg2_solve's transform) does not dominate the run.
constexpr int kMinSetups = 3;
constexpr int kMaxSetups = 9;
constexpr double kSetupBudgetS = 4;

int usage() {
  std::fprintf(stderr,
               "usage: extdict_perf --workload "
               "{exd_build|alg2_solve|serve_wire_open|serve_hot_extend}\n"
               "                    [--seed S] [--seconds T] [--smoke] "
               "[--trace FILE] [--out FILE]\n");
  return 2;
}

std::unique_ptr<perf::Workload> make_workload(const perf::Options& options) {
  if (options.workload == "exd_build") return perf::make_exd_build(options);
  if (options.workload == "alg2_solve") return perf::make_alg2_solve(options);
  if (options.workload == "serve_wire_open") return perf::make_serve_wire_open(options);
  if (options.workload == "serve_hot_extend") return perf::make_serve_hot_extend(options);
  return nullptr;
}

bool write_file(const std::string& path, const std::string& text) {
  std::ofstream out(path);
  out << text << '\n';
  return static_cast<bool>(out);
}

void untraced_run(perf::Workload& workload, const perf::Options& options,
                  perf::Metrics& metrics, perf::Gates& gates, Json& doc, Json& info) {
  std::vector<double> setups;
  Json setup_runs = Json::array();
  double setup_total_s = 0;
  while (static_cast<int>(setups.size()) < kMinSetups ||
         (static_cast<int>(setups.size()) < kMaxSetups && setup_total_s < kSetupBudgetS)) {
    setups.push_back(perf::time_seconds([&] { workload.setup(); }));
    setup_total_s += setups.back();
    setup_runs.push_back(setups.back());
  }
  info["setup_runs_s"] = std::move(setup_runs);
  workload.warm_up();
  perf::Phase phase = workload.measure(options.seconds, false);
  workload.verify(gates);
  metrics.set("setup_s", perf::median(setups), "s");
  metrics.set("p50_ms", phase.p50_ms(), "ms");
  metrics.set("p90_ms", phase.p90_ms(), "ms");
  metrics.set("throughput_per_s", phase.throughput, "1/s");
  metrics.set("peak_rss_mb", perf::peak_rss_mb(), "MB");
  doc["attempted"] = phase.attempted;
  doc["failed"] = phase.failed;
  info["samples"] = phase.latencies_ms.size();
  Json quantiles = Json::object();
  for (const auto& [name, q] : {std::pair{"p95", 0.95}, std::pair{"p99", 0.99},
                                 std::pair{"max", 1.0}}) {
    quantiles[name] = perf::quantile(phase.latencies_ms, q);
  }
  info["latency_ms"] = std::move(quantiles);
  info["phase"] = std::move(phase.info);
}

void traced_run(perf::Workload& workload, const perf::Options& options,
                perf::Metrics& layers, perf::Gates& gates, Json& doc, Json& info) {
  auto& recorder = extdict::util::TraceRecorder::global();
  workload.setup();
  workload.warm_up();
  const perf::Phase untraced = workload.measure(options.seconds / 2, false);

  extdict::util::MetricsRegistry::global().reset();
  recorder.clear();
  recorder.set_enabled(true);
  const perf::Phase traced = workload.measure(options.seconds / 2, true);
  const perf::LayerInputs inputs = workload.layer_inputs();
  info["suite"] = perf::run_layer_suite(options, inputs, layers, gates);
  workload.observe_layers(traced, layers, gates);
  recorder.set_enabled(false);
  // Untraced from here: the wire probe starts a second server whose request
  // ids would collide with the workload's in the trace, and verify() stops
  // the workload's servers, which closes their open batch-collect spans.
  perf::fill_serve_layers(options, inputs, layers, gates);
  workload.verify(gates);

  layers.set("util.trace_overhead_pct",
             100 * (traced.p50_ms() / untraced.p50_ms() - 1), "%");
  const std::uint64_t dropped = recorder.dropped_events();
  gates.check("trace_no_drops", dropped == 0,
              std::to_string(dropped) + " trace events dropped");
  Json model = Json::object();
  model["p"] = 4;
  model["min_m_l"] = std::min(inputs.dictionary->rows(), inputs.dictionary->cols());
  recorder.set_metadata("model", std::move(model));
  gates.check("trace_written",
              write_file(options.trace_path, recorder.to_chrome_json().dump()),
              options.trace_path);
  recorder.clear();

  doc["attempted"] = untraced.attempted + traced.attempted;
  doc["failed"] = untraced.failed + traced.failed;
  info["untraced_p50_ms"] = untraced.p50_ms();
  info["traced_p50_ms"] = traced.p50_ms();
  info["untraced_phase"] = untraced.info;
  info["traced_phase"] = traced.info;
}

}  // namespace

int main(int argc, char** argv) {
  perf::Options options;
  std::string out_path;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const bool has_value = i + 1 < argc;
    if (arg == "--smoke") {
      options.smoke = true;
    } else if (arg == "--workload" && has_value) {
      options.workload = argv[++i];
    } else if (arg == "--seed" && has_value) {
      options.seed = std::stoull(argv[++i]);
    } else if (arg == "--seconds" && has_value) {
      options.seconds = std::stod(argv[++i]);
    } else if (arg == "--trace" && has_value) {
      options.trace_path = argv[++i];
    } else if (arg == "--out" && has_value) {
      out_path = argv[++i];
    } else {
      return usage();
    }
  }
  const std::unique_ptr<perf::Workload> workload = make_workload(options);
  if (!workload || !(options.seconds > 0)) return usage();

  Json doc = Json::object();
  doc["workload"] = options.workload;
  doc["seed"] = options.seed;
  doc["seconds"] = options.seconds;
  doc["smoke"] = options.smoke;
  doc["traced"] = options.traced();
  doc["attempted"] = 0;
  doc["failed"] = 0;
  perf::Metrics metrics;
  perf::Gates gates;
  Json info = Json::object();
  try {
    if (options.traced()) {
      traced_run(*workload, options, metrics, gates, doc, info);
    } else {
      untraced_run(*workload, options, metrics, gates, doc, info);
    }
  } catch (const std::exception& e) {
    gates.check("completed", false, e.what());
  }
  doc["correct"] = gates.all_ok();
  doc["metrics"] = metrics.to_json();
  doc["gates"] = gates.to_json();
  doc["info"] = std::move(info);

  const std::string text = doc.dump(2);
  if (out_path.empty()) {
    std::printf("%s\n", text.c_str());
  } else if (!write_file(out_path, text)) {
    std::fprintf(stderr, "extdict_perf: cannot write %s\n", out_path.c_str());
    return 1;
  }
  return gates.all_ok() ? 0 : 1;
}
