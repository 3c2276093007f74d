#pragma once

// Open-loop wire load generator: Poisson arrivals over a few TCP
// connections to a net::Daemon, one sender and one receiver thread per
// connection, speaking the raw frame codec (append_request / decode_reply).
// Each request is timed from its scheduled send time, so a stall in the
// sender or the server is charged to every request it delays.

#include <cstdint>
#include <span>
#include <vector>

#include "net/daemon.hpp"
#include "net/protocol.hpp"
#include "perf.hpp"

namespace perf {

/// Deterministic unique request signals: request k is pool column
/// perm[k mod P] plus noise vector (k / P) mod B of a seeded bank, so every
/// signal is distinct for k < P·B and reproducible from k alone (the
/// correctness gate rebuilds sampled signals to re-encode them).
class RequestSignals {
 public:
  RequestSignals(const Matrix& pool, std::uint64_t seed, Real noise_stddev);
  void make(std::uint64_t k, std::span<Real> out) const;
  [[nodiscard]] Index rows() const { return pool_->rows(); }

 private:
  static constexpr Index kBank = 64;
  const Matrix* pool_;
  Matrix noise_;
  std::vector<Index> perm_;
};

struct Rung {
  double rate_rps = 0;  ///< offered rate summed over connections
  double seconds = 0;
  bool recorded = true;  ///< false for the warm-up rung
};

/// One request as the generator saw it. Times are seconds since the run's
/// origin; `done_s < 0` means no reply arrived.
struct WireRecord {
  int rung = 0;
  double scheduled_s = 0;
  double sent_s = -1;
  double done_s = -1;
  extdict::net::WireStatus status = extdict::net::WireStatus::kOk;
  std::uint64_t queue_us = 0;
  std::uint64_t encode_us = 0;
  std::uint32_t batch_columns = 0;
  std::uint64_t key = 0;  ///< the request's RequestSignals index
};

/// A reply kept for the correctness gate (every 64th request).
struct SampledReply {
  std::uint64_t key = 0;
  std::uint64_t epoch = 0;
  extdict::sparsecoding::SparseCode code;
};

struct RungStats {
  int rung = 0;  ///< index in the ladder (WireRecord::rung)
  double rate_rps = 0;
  double seconds = 0;
  std::uint64_t offered = 0;
  std::uint64_t ok = 0;
  std::uint64_t failed = 0;
  std::uint64_t outstanding_at_end = 0;  ///< sent by the rung's end, unanswered
  double completed_rps = 0;  ///< OK replies arriving during the rung, per second
  double p50_ms = 0;
  double p99_ms = 0;
  double lag_p99_ms = 0;
  /// Completions kept up with arrivals: no failures and no backlog beyond
  /// 1% of the rung plus what the SLO window itself holds.
  bool sustained = false;
  [[nodiscard]] Json to_json() const;
};

struct OpenLoopResult {
  std::vector<WireRecord> records;  ///< every request, all connections
  std::vector<SampledReply> samples;
  std::vector<RungStats> rungs;     ///< recorded rungs, in order
  std::uint64_t transport_errors = 0;
  double wall_s = 0;
};

/// Runs the rung ladder against 127.0.0.1:`port` over `connections`
/// connections (one sender + one receiver thread each). Request keys start
/// at `key_base`, so successive runs against one server never repeat a
/// signal. The generator's own send and decode calls carry trace spans,
/// recorded while tracing is on.
[[nodiscard]] OpenLoopResult run_open_loop(std::uint16_t port,
                                           const std::vector<Rung>& rungs,
                                           const RequestSignals& signals,
                                           std::uint64_t seed,
                                           std::uint64_t key_base,
                                           int connections, double slo_ms);

/// The monotone books of a daemon and the server behind it.
struct ServeCounters {
  extdict::serve::ServerStats server;
  extdict::net::DaemonStats daemon;
  extdict::serve::EncodeCacheStats cache;
  std::size_t live_epochs = 1;
  [[nodiscard]] static ServeCounters of(const extdict::net::Daemon& daemon);
};

/// serve.*, net.* and loadgen.* layer metrics of one open-loop run (with at
/// least one recorded rung), from its reply headers and the counter deltas
/// across it.
[[nodiscard]] Metrics wire_layer_metrics(const OpenLoopResult& run,
                                         const ServeCounters& before,
                                         const ServeCounters& after,
                                         int workers);

/// Gates: the daemon and server books balance, every request sent got an
/// OK reply, and each sampled reply equals a direct BatchOmp::encode of its
/// signal on the (never extended) epoch 0.
void gate_wire_run(const extdict::net::Daemon& daemon,
                   const std::vector<OpenLoopResult>& runs,
                   const RequestSignals& signals, Gates& gates);

}  // namespace perf
