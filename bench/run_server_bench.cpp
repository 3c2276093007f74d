// Serving-layer timing duels: three interleaved A/B comparisons on the
// in-process ExtDictServer, written as schema-stable JSON.
//
//   run_server_bench [--quick] [--out DIR] [--trace FILE]
//
// Emits BENCH_serve.json (validated by tools/validate_bench_json.py, run in
// CI's bench-smoke job). Each duel alternates its two sides every round, so
// a round's pair shares whatever the machine was doing at the time, and its
// verdict is the MEDIAN of the per-round ratios: robust even when absolute
// throughput swings 2x between rounds on a busy single-core box, where
// best-of-N would let one lucky scheduler quantum flip the verdict. The
// process exits non-zero if a duel misses its floor:
//
//   * batch — closed loop, one worker, max_batch 32 against max_batch 1;
//     ratio = batch-32 throughput / batch-1 throughput, must be > 1.0 (the
//     micro-batching amortization claim);
//   * cache — a serial submit -> wait loop over a 32-signal pool with the
//     encode cache on (warm) against the identical stream with it off
//     (cold); ratio = cold wall / warm wall, must be > 1.0;
//   * snapshotter — a closed-loop pass shadowed by a 50 ms
//     TelemetrySnapshotter against the same pass without one; ratio = with /
//     without wall, must be <= 1.15, the bench's documented noise allowance.
//     A calibration pass sizes each pass to span several sampling periods
//     (4 at --quick, 10 in full), so samples land inside the timed window.
//
// The accounting identities (lost futures, exact cache hits, epoch flips,
// snapshot reconciliation, wire books) are pinned by the gtest suite, not
// here: ServeStress.*, ServerCache.*, TelemetrySnapshotter.* and NetStress.*.
//
// Load generation is seeded: the dictionary and the signal pool come from
// fixed-seed generators, so two runs offer the identical request sequence
// (wall-clock results still vary with the machine).
//
// --trace FILE runs one more batch-32 pass with tracing on, after the duels
// so trace overhead never touches a timed pass, and exports its
// serve.batch.* timeline — including the per-request serve.request.*
// lifecycle instants that tools/analyze_trace.py stitches into request
// waterfalls — as Chrome trace JSON. A dropped trace event fails the run.

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <future>
#include <optional>
#include <string>
#include <vector>

#include "la/random.hpp"
#include "serve/server.hpp"
#include "util/json.hpp"
#include "util/metrics.hpp"
#include "util/telemetry.hpp"
#include "util/trace.hpp"

namespace {

using namespace extdict;
using la::Index;
using la::Real;
using serve::ExtDictServer;
using serve::ServerConfig;
using sparsecoding::OmpConfig;
using util::Json;

using Clock = std::chrono::steady_clock;
using Pool = std::vector<std::vector<Real>>;

struct Options {
  bool quick = false;
  std::string out_dir = ".";
  std::string trace_path;  // empty: tracing off
};

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

// Waits (bounded, so a lost request cannot hang the bench) and reports
// whether the request was served.
bool resolved(std::future<serve::EncodeResult>& future) {
  using namespace std::chrono_literals;
  if (future.wait_for(30s) != std::future_status::ready) return false;
  try {
    (void)future.get();
    return true;
  } catch (...) {
    return false;
  }
}

// Deterministic pool of unit-scale gaussian signals; request i submits
// pool[i % pool_size], so every pass sees the same stream.
Pool make_signal_pool(Index m, int pool_size, unsigned seed) {
  la::Rng rng(seed);
  Pool pool(static_cast<std::size_t>(pool_size));
  for (auto& signal : pool) {
    signal.resize(static_cast<std::size_t>(m));
    rng.fill_gaussian(signal);
  }
  return pool;
}

// Closed loop: submit every request back to back, letting backpressure pace
// the client, then resolve them all.
struct Pass {
  double seconds = 0;
  int served = 0;
};

Pass closed_loop(ExtDictServer& server, const Pool& pool, int requests) {
  std::vector<std::future<serve::EncodeResult>> futures;
  futures.reserve(static_cast<std::size_t>(requests));
  const Clock::time_point start = Clock::now();
  for (int i = 0; i < requests; ++i) {
    futures.push_back(
        server.submit(pool[static_cast<std::size_t>(i) % pool.size()]));
  }
  Pass pass;
  for (auto& future : futures) pass.served += resolved(future) ? 1 : 0;
  pass.seconds = seconds_since(start);
  return pass;
}

ServerConfig batch_config(Index max_batch, const OmpConfig& omp) {
  return {.max_batch = max_batch,
          .max_delay_us = 200,
          .workers = 1,
          .queue_capacity = 256,
          .omp = omp};
}

// Serial closed loop, submit -> wait -> submit: a repeated signal can only
// hit once its first occurrence is cached, so the warm side scores every
// repeat. Returns the pass wall seconds.
double serial_pass_seconds(const la::Matrix& dict, const OmpConfig& omp,
                           const Pool& pool, int requests,
                           std::size_t cache_capacity) {
  ExtDictServer server(dict, {.max_batch = 8,
                              .max_delay_us = 50,
                              .workers = 2,
                              .queue_capacity = 256,
                              .omp = omp,
                              .cache_capacity = cache_capacity});
  const Clock::time_point start = Clock::now();
  for (int i = 0; i < requests; ++i) {
    auto future =
        server.submit(pool[static_cast<std::size_t>(i) % pool.size()]);
    (void)resolved(future);
  }
  return seconds_since(start);
}

constexpr int kSnapshotPeriodMs = 50;

// One closed-loop pass, optionally shadowed by a live snapshotter on the
// global registry. Returns the pass wall seconds.
double snapshotter_pass_seconds(const la::Matrix& dict, const OmpConfig& omp,
                                const Pool& pool, int requests,
                                const std::string& snapshot_path) {
  ExtDictServer server(dict, {.max_batch = 8,
                              .max_delay_us = 50,
                              .workers = 2,
                              .queue_capacity = 256,
                              .omp = omp});
  std::optional<util::TelemetrySnapshotter> snapshotter;
  if (!snapshot_path.empty()) {
    snapshotter.emplace(util::MetricsRegistry::global(), snapshot_path,
                        util::TelemetryOptions{.period_ms = kSnapshotPeriodMs});
  }
  return closed_loop(server, pool, requests).seconds;
}

// The one duel loop: `rounds` rounds of first() then second(), both in
// seconds, each round recording first / second. The verdict compares the
// median ratio (upper median; every duel runs an odd round count) with
// `floor`: above it for a speed-up, in (0, floor] for an overhead.
enum class Verdict { kAbove, kAtMost };

template <typename First, typename Second>
Json run_duel(const char* name, int rounds, double floor, Verdict verdict,
              First first, Second second, bool& all_ok) {
  std::vector<double> ratios;
  for (int r = 0; r < rounds; ++r) {
    const double a = first();
    const double b = second();
    ratios.push_back(b > 0 ? a / b : 0.0);
  }
  std::vector<double> sorted = ratios;
  std::sort(sorted.begin(), sorted.end());
  const double median = sorted[sorted.size() / 2];
  const bool ok = verdict == Verdict::kAbove
                      ? median > floor
                      : median > 0.0 && median <= floor;
  all_ok = all_ok && ok;

  Json ratio_json = Json::array();
  for (const double ratio : ratios) ratio_json.push_back(ratio);
  Json j = Json::object();
  j["rounds"] = static_cast<std::uint64_t>(rounds);
  j["ratios"] = std::move(ratio_json);
  j["median"] = median;
  j["floor"] = floor;
  j["ok"] = ok;
  std::printf("  %-11s median %.3fx over %d rounds (must be %s %.2f)%s\n",
              name, median, rounds,
              verdict == Verdict::kAbove ? ">" : "<=", floor,
              ok ? "" : "  [VIOLATION]");
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
                   "usage: run_server_bench [--quick] [--out DIR] "
                   "[--trace FILE]\n");
      return 2;
    }
  }

  std::printf("run_server_bench (%s mode)\n", options.quick ? "quick" : "full");

  // Workload: a fixed-seed dictionary and signal pool, encoded under a hard
  // sparsity cap so every request costs the same deterministic atom count —
  // the clean setting for comparing scheduler configurations.
  const Index m = 48, l = 96;
  const OmpConfig omp{.tolerance = 0.0, .max_atoms = 8};
  la::Rng rng(17);
  const la::Matrix dict = rng.gaussian_matrix(m, l, true);
  const Pool pool = make_signal_pool(m, 256, 18);

  util::TraceRecorder& trace = util::TraceRecorder::global();
  // The traced pass records four per-request lifecycle instants on top of
  // the batch spans; the default 16K ring would overflow at the full-mode
  // request count. Raised before any thread records its first event, so
  // every lazily-created ring gets the larger capacity.
  trace.set_capacity(std::size_t{1} << 17);

  Json doc = Json::object();
  doc["schema_version"] = 2;
  doc["benchmark"] = "bench/run_server_bench serving timing duels";
  doc["mode"] = options.quick ? "quick" : "full";
  Json workload = Json::object();
  workload["signal_dim"] = static_cast<std::uint64_t>(m);
  workload["atoms"] = static_cast<std::uint64_t>(l);
  workload["tolerance"] = omp.tolerance;
  workload["max_atoms"] = static_cast<std::uint64_t>(omp.max_atoms);
  workload["signal_pool"] = static_cast<std::uint64_t>(pool.size());
  workload["seeds"] = "dict=17 signals=18";
  doc["workload"] = std::move(workload);

  bool all_ok = true;
  Json duels = Json::object();

  const int batch_requests = options.quick ? 2000 : 8000;
  // Seconds per served request, so batch-1 / batch-32 is the batch-32 over
  // batch-1 throughput ratio.
  const auto batch_pass = [&](Index max_batch) {
    ExtDictServer server(dict, batch_config(max_batch, omp));
    const Pass pass = closed_loop(server, pool, batch_requests);
    return pass.served > 0 ? pass.seconds / pass.served : 0.0;
  };
  duels["batch"] = run_duel(
      "batch", 7, 1.0, Verdict::kAbove, [&] { return batch_pass(1); },
      [&] { return batch_pass(32); }, all_ok);

  // Repeats must dominate for the cache duel to mean anything: a 32-signal
  // slice of the pool, so the warm side hits on all but the first occurrence
  // of each signal.
  const Pool cache_pool(pool.begin(), pool.begin() + 32);
  const int cache_requests = options.quick ? 256 : 2048;
  duels["cache"] = run_duel(
      "cache", options.quick ? 3 : 5, 1.0, Verdict::kAbove,
      [&] {
        return serial_pass_seconds(dict, omp, cache_pool, cache_requests, 0);
      },
      [&] {
        return serial_pass_seconds(dict, omp, cache_pool, cache_requests,
                                   2 * cache_pool.size());
      },
      all_ok);

  const std::string snapshot_path =
      options.out_dir + "/telemetry_overhead.jsonl";
  const int calibration_requests = 600;
  const double request_seconds =
      snapshotter_pass_seconds(dict, omp, pool, calibration_requests, "") /
      calibration_requests;
  const double periods = options.quick ? 4 : 10;
  const int snapshot_requests = static_cast<int>(std::ceil(
      periods * kSnapshotPeriodMs * 1e-3 / std::max(request_seconds, 1e-9)));
  duels["snapshotter"] = run_duel(
      "snapshotter", options.quick ? 3 : 5, 1.15, Verdict::kAtMost,
      [&] {
        return snapshotter_pass_seconds(dict, omp, pool, snapshot_requests,
                                        snapshot_path);
      },
      [&] {
        return snapshotter_pass_seconds(dict, omp, pool, snapshot_requests,
                                        "");
      },
      all_ok);
  duels["snapshotter"]["requests_per_pass"] =
      static_cast<std::uint64_t>(snapshot_requests);
  doc["duels"] = std::move(duels);

  Json summary = Json::object();
  summary["all_ok"] = all_ok;
  doc["summary"] = std::move(summary);
  int rc = write_file(options.out_dir + "/BENCH_serve.json", doc);

  if (!options.trace_path.empty()) {
    trace.set_enabled(true);
    {
      ExtDictServer server(dict, batch_config(32, omp));
      (void)closed_loop(server, pool, batch_requests);
    }
    trace.set_enabled(false);
    trace.set_metadata("mode", options.quick ? "quick" : "full");
    if (write_file(options.trace_path, trace.to_chrome_json()) != 0) rc = 1;
    const std::uint64_t dropped = trace.dropped_events();
    std::printf("trace: %llu events recorded, %llu dropped\n",
                static_cast<unsigned long long>(trace.recorded_events()),
                static_cast<unsigned long long>(dropped));
    if (dropped != 0) {
      std::fprintf(stderr,
                   "error: trace dropped %llu events — raise the ring "
                   "capacity before trusting the timeline\n",
                   static_cast<unsigned long long>(dropped));
      rc = 1;
    }
  }

  if (!all_ok) {
    std::fprintf(stderr,
                 "error: a serving duel missed its floor (see the \"duels\" "
                 "section of BENCH_serve.json)\n");
    return 1;
  }
  return rc;
}
