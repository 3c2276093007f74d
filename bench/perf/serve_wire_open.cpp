// serve_wire_open: the online path end to end — wire → queue → batch
// encode → reply. A net::Daemon on 127.0.0.1 serves the first 1024 columns
// of a light-field matrix (M = 1600); an open-loop Poisson generator
// drives it over 2 connections through a fixed ladder of offered rates,
// timing each request from its scheduled send, and then through a capacity
// rung offered far faster than the server can answer. Every signal is unique
// (a held-out column plus seeded noise), so every cache lookup misses and
// inserts. Batches widen with load, so a batching change should move the
// upper rungs and the capacity and leave rung 1 alone.

#include <array>
#include <cmath>
#include <optional>

#include "wire.hpp"
#include "net/daemon.hpp"
#include "perf.hpp"
#include "util/metrics.hpp"
#include "util/trace.hpp"

namespace perf {

namespace {

namespace net = extdict::net;
namespace serve = extdict::serve;

struct WireShape {
  Index views, patch, scene, atoms, pool;
  std::array<double, 4> rates_rps;  ///< the frozen rung ladder
  /// Offered rate of the capacity rung: about 5x what the server answers
  /// today, so it stays saturated through large speed-ups.
  double capacity_rate_rps;
};

// Shares of the window: a warm-up at rung 1's rate, the ladder, then the
// capacity rung. Rung 1, where latency is read, gets the most. The capacity
// rung's share sets how many requests it offers; answering them takes
// several times longer than offering them.
constexpr double kWarmupShare = 0.1;
constexpr std::array<double, 4> kRungShare{0.5, 0.1, 0.1, 0.05};
constexpr double kCapacityShare = 0.08;

// Rung 1's latency quantiles are the median over this many equal time
// slices of each slice's quantile, so a stall of the shared machine that
// spans a few slices does not move them (Phase::slices).
constexpr int kSlices = 10;

// p99 above this misses the latency limit (slo_rps is where it crosses).
constexpr double kSloMs = 25;
constexpr int kConnections = 2;
constexpr Real kNoiseStddev = 0.0005;  // per entry; signals have unit norm
constexpr std::size_t kTraceCapacity = std::size_t{1} << 17;

// The offered rate at which p99 crosses the SLO, interpolated in log(p99)
// between the last rung that meets it and the first that does not. A rung
// with a growing backlog misses regardless of its p99. Sets `capped` when
// every rung meets the SLO (the ladder's top is then a lower bound).
double slo_rps(const std::vector<RungStats>& rungs, double slo_ms, bool& capped) {
  capped = false;
  const auto meets = [&](const RungStats& r) {
    return r.sustained && r.p99_ms <= slo_ms;
  };
  std::size_t miss = 0;
  while (miss < rungs.size() && meets(rungs[miss])) ++miss;
  if (miss == rungs.size()) {
    capped = true;
    return rungs.back().rate_rps;
  }
  if (miss == 0) {
    return rungs[0].rate_rps * std::min(1.0, slo_ms / rungs[0].p99_ms);
  }
  const RungStats& lo = rungs[miss - 1];
  const RungStats& hi = rungs[miss];
  const double t =
      hi.p99_ms <= slo_ms
          ? 1.0
          : std::log(slo_ms / lo.p99_ms) / std::log(hi.p99_ms / lo.p99_ms);
  return lo.rate_rps + std::clamp(t, 0.0, 1.0) * (hi.rate_rps - lo.rate_rps);
}

class ServeWireOpen final : public Workload {
 public:
  explicit ServeWireOpen(const Options& options)
      : options_(options),
        shape_(options.smoke
                   ? WireShape{3, 4, 48, 96, 256, {100, 200, 300, 400}, 2000}
                   : WireShape{5, 8, 96, 1024, 4096, {500, 1000, 1500, 2000}, 10000}) {}

  void setup() override {
    daemon_.reset();
    const Matrix data = light_field(shape_.views, shape_.patch, shape_.scene,
                                    shape_.atoms + shape_.pool, options_.seed);
    dictionary_ = column_range(data, 0, shape_.atoms);
    pool_ = column_range(data, shape_.atoms, shape_.pool);
    signals_.emplace(pool_, options_.seed + 1, kNoiseStddev);
    daemon_ = std::make_unique<net::Daemon>(std::make_shared<serve::ExtDictServer>(
        dictionary_, paper_server_config(4096)));
    runs_.clear();
    next_key_ = 0;
  }

  Phase measure(double seconds, bool traced) override {
    const TraceCapacity capacity(traced, kTraceCapacity);
    std::vector<Rung> rungs{{shape_.rates_rps[0], kWarmupShare * seconds, false}};
    double capacity_start_s = kWarmupShare * seconds;
    for (std::size_t r = 0; r < shape_.rates_rps.size(); ++r) {
      rungs.push_back({shape_.rates_rps[r], kRungShare[r] * seconds, true});
      capacity_start_s += rungs.back().seconds;
    }
    rungs.push_back({shape_.capacity_rate_rps, kCapacityShare * seconds, true});

    before_ = ServeCounters::of(*daemon_);
    OpenLoopResult run =
        run_open_loop(daemon_->port(), rungs, *signals_,
                      options_.seed + 7 * runs_.size(), next_key_, kConnections, kSloMs);
    after_ = ServeCounters::of(*daemon_);
    next_key_ += run.records.size();

    // The capacity rung offers far more than the server can take, so from
    // its start until the backlog has drained the server runs saturated: the
    // replies per second over that stretch are its capacity. verify() fails
    // the run if the rung was ever answered as fast as it was offered.
    Phase phase;
    std::uint64_t saturated_ok = 0;
    double last_s = capacity_start_s;
    const double rung1_start_s = kWarmupShare * seconds;
    const double slice_s = kRungShare[0] * seconds / kSlices;
    for (const WireRecord& r : run.records) {
      ++phase.attempted;
      const bool ok = r.done_s >= 0 && r.status == net::WireStatus::kOk;
      if (!ok) ++phase.failed;
      // Latency is reported at rung 1 (record rung 0 is the warm-up).
      if (ok && r.rung == 1) {
        phase.latencies_ms.push_back((r.done_s - r.scheduled_s) * 1e3);
        phase.slices.push_back(std::min(
            kSlices - 1, static_cast<int>((r.scheduled_s - rung1_start_s) / slice_s)));
      }
      if (ok && r.done_s >= capacity_start_s) {
        ++saturated_ok;
        last_s = std::max(last_s, r.done_s);
      }
    }
    phase.throughput = static_cast<double>(saturated_ok) / (last_s - capacity_start_s);
    capacity_saturated_ = capacity_saturated_ && !run.rungs.back().sustained;
    phase.info["capacity_rung_saturated"] = !run.rungs.back().sustained;
    phase.info["capacity_rate_rps"] = shape_.capacity_rate_rps;
    const std::vector<RungStats> ladder_stats(run.rungs.begin(), run.rungs.end() - 1);
    bool capped = false;
    phase.info["slo_rps"] = slo_rps(ladder_stats, kSloMs, capped);
    phase.info["slo_rps_capped"] = capped;
    phase.info["slo_ms"] = kSloMs;
    Json ladder = Json::array();
    for (const RungStats& rung : run.rungs) ladder.push_back(rung.to_json());
    phase.info["rungs"] = std::move(ladder);
    runs_.push_back(std::move(run));
    return phase;
  }

  void verify(Gates& gates) override {
    daemon_->stop(serve::StopMode::kDrain);
    gate_wire_run(*daemon_, runs_, *signals_, gates);
    gate_encode_flops(dictionary_, daemon_->server()->config().omp, pool_, 64,
                      gates);
    // A sustained capacity rung would make throughput_per_s the offered rate,
    // silently capping any speed-up beyond it. Smoke shapes encode so fast
    // that no rate a test can offer saturates them.
    if (!options_.smoke) {
      gates.check("capacity_rung_saturated", capacity_saturated_,
                  "the capacity rung's " +
                      std::to_string(std::lround(shape_.capacity_rate_rps)) +
                      " req/s must outpace the server, or throughput_per_s "
                      "reads the offered rate (raise the rung)");
    }
  }

  void observe_layers(const Phase& /*traced*/, Metrics& layers,
                      Gates& /*gates*/) override {
    const OpenLoopResult& run = runs_.back();
    layers.merge_missing(wire_layer_metrics(
        run, before_, after_, daemon_->server()->config().workers));
    std::vector<double> queue_s, encode_s;
    for (const WireRecord& r : run.records) {
      if (r.done_s < 0 || r.status != net::WireStatus::kOk) continue;
      queue_s.push_back(static_cast<double>(r.queue_us) / 1e6);
      encode_s.push_back(static_cast<double>(r.encode_us) / 1e6);
    }
    layers.set("split.residual_pct", serve_split_residual_pct(queue_s, encode_s),
               "%");
  }

  [[nodiscard]] LayerInputs layer_inputs() const override {
    return LayerInputs{&dictionary_, nullptr, &pool_, &pool_,
                       paper_server_config(0).omp};
  }

 private:
  Options options_;
  WireShape shape_;
  Matrix dictionary_;
  Matrix pool_;
  std::optional<RequestSignals> signals_;
  std::unique_ptr<net::Daemon> daemon_;
  std::vector<OpenLoopResult> runs_;
  std::uint64_t next_key_ = 0;
  bool capacity_saturated_ = true;  ///< in every window so far
  ServeCounters before_, after_;  ///< across the latest window
};

}  // namespace

std::unique_ptr<Workload> make_serve_wire_open(const Options& options) {
  return std::make_unique<ServeWireOpen>(options);
}

}  // namespace perf
