#include "wire.hpp"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <random>
#include <string>
#include <thread>

#include "la/random.hpp"
#include "net/socket.hpp"
#include "util/trace.hpp"

namespace perf {

namespace net = extdict::net;

RequestSignals::RequestSignals(const Matrix& pool, std::uint64_t seed,
                               Real noise_stddev)
    : pool_(&pool), noise_(pool.rows(), kBank) {
  extdict::la::Rng rng(seed);
  rng.fill_gaussian(std::span<Real>(noise_.data(),
                                    static_cast<std::size_t>(noise_.size())),
                    0, noise_stddev);
  perm_ = rng.permutation(pool.cols());
}

void RequestSignals::make(std::uint64_t k, std::span<Real> out) const {
  const auto p = static_cast<std::uint64_t>(pool_->cols());
  const auto column = pool_->col(perm_[k % p]);
  const auto noise = noise_.col(static_cast<Index>((k / p) % kBank));
  for (std::size_t i = 0; i < out.size(); ++i) out[i] = column[i] + noise[i];
}

Json RungStats::to_json() const {
  Json j = Json::object();
  j["rung"] = rung;
  j["rate_rps"] = rate_rps;
  j["seconds"] = seconds;
  j["offered"] = offered;
  j["ok"] = ok;
  j["failed"] = failed;
  j["outstanding_at_end"] = outstanding_at_end;
  j["completed_rps"] = completed_rps;
  j["p50_ms"] = p50_ms;
  j["p99_ms"] = p99_ms;
  j["lag_p99_ms"] = lag_p99_ms;
  j["sustained"] = sustained;
  return j;
}

namespace {

struct Connection {
  net::Socket socket;
  std::vector<WireRecord> records;
  std::vector<SampledReply> samples;
  std::atomic<std::uint64_t> transport_errors{0};
};

constexpr std::uint64_t kSampleEvery = 64;

void send_loop(Connection& conn, const RequestSignals& signals,
               Clock::time_point t0) {
  std::vector<Real> signal(static_cast<std::size_t>(signals.rows()));
  std::vector<std::uint8_t> frame_bytes;
  net::RequestFrame frame;
  for (std::size_t j = 0; j < conn.records.size(); ++j) {
    WireRecord& record = conn.records[j];
    signals.make(record.key, signal);
    frame.request_id = j;
    frame.signal = signal;
    frame_bytes.clear();
    net::append_request(frame_bytes, frame);
    std::this_thread::sleep_until(
        t0 + std::chrono::duration_cast<Clock::duration>(
                 std::chrono::duration<double>(record.scheduled_s)));
    record.sent_s = seconds_since(t0);
    bool written = false;
    {
      const extdict::util::TraceScope span("perf.wire.send");
      written = net::write_all(conn.socket.fd(), frame_bytes.data(),
                               frame_bytes.size());
    }
    if (!written) {
      record.sent_s = -1;
      conn.transport_errors.fetch_add(1, std::memory_order_relaxed);
      conn.socket.shutdown_both();  // unblocks the receiver
      return;
    }
  }
}

void receive_loop(Connection& conn, Clock::time_point t0) {
  std::vector<std::uint8_t> rx;
  std::vector<std::uint8_t> scratch(std::size_t{1} << 16);
  std::size_t next = 0;
  while (next < conn.records.size()) {
    std::size_t got = 0;
    try {
      got = net::read_some(conn.socket.fd(), scratch.data(), scratch.size());
    } catch (const net::NetError&) {
      got = 0;
    }
    if (got == 0) break;  // peer closed or the sender gave up
    rx.insert(rx.end(), scratch.begin(),
              scratch.begin() + static_cast<std::ptrdiff_t>(got));
    std::size_t head = 0;
    while (next < conn.records.size()) {
      const extdict::util::TraceScope span("perf.wire.reply");
      net::ReplyDecode decoded =
          net::decode_reply(std::span<const std::uint8_t>(rx).subspan(head));
      if (decoded.status == net::DecodeStatus::kNeedMore) break;
      if (decoded.status == net::DecodeStatus::kMalformed ||
          decoded.frame.request_id != next) {
        conn.transport_errors.fetch_add(1, std::memory_order_relaxed);
        conn.socket.shutdown_both();
        return;
      }
      head += decoded.consumed;
      WireRecord& record = conn.records[next++];
      record.done_s = seconds_since(t0);
      record.status = decoded.frame.status;
      record.queue_us = decoded.frame.queue_micros;
      record.encode_us = decoded.frame.encode_micros;
      record.batch_columns = decoded.frame.batch_columns;
      if (record.key % kSampleEvery == 0 &&
          decoded.frame.status == net::WireStatus::kOk) {
        conn.samples.push_back(SampledReply{record.key,
                                            decoded.frame.dict_epoch,
                                            std::move(decoded.frame.code)});
      }
    }
    rx.erase(rx.begin(), rx.begin() + static_cast<std::ptrdiff_t>(head));
  }
}

RungStats rung_stats(const std::vector<WireRecord>& records, int rung,
                     const Rung& spec, double start_s, double slo_ms) {
  RungStats s;
  s.rung = rung;
  s.rate_rps = spec.rate_rps;
  s.seconds = spec.seconds;
  const double end_s = start_s + spec.seconds;
  std::vector<double> latency, lag;
  std::uint64_t completed = 0;
  for (const WireRecord& r : records) {
    if (r.done_s >= start_s && r.done_s < end_s && r.status == net::WireStatus::kOk) {
      ++completed;
    }
    if (r.rung != rung) continue;
    ++s.offered;
    if (r.sent_s >= 0) lag.push_back((r.sent_s - r.scheduled_s) * 1e3);
    if (r.done_s >= 0 && r.status == net::WireStatus::kOk) {
      ++s.ok;
      latency.push_back((r.done_s - r.scheduled_s) * 1e3);
    } else {
      ++s.failed;
    }
    if (r.sent_s >= 0 && r.sent_s <= end_s && (r.done_s < 0 || r.done_s > end_s)) {
      ++s.outstanding_at_end;
    }
  }
  s.completed_rps = static_cast<double>(completed) / spec.seconds;
  s.p50_ms = quantile(latency, 0.5);
  s.p99_ms = quantile(latency, 0.99);
  s.lag_p99_ms = quantile(lag, 0.99);
  const double allowance = 0.01 * static_cast<double>(s.offered) +
                           spec.rate_rps * slo_ms / 1e3 + 1;
  s.sustained = s.failed == 0 &&
                static_cast<double>(s.outstanding_at_end) <= allowance;
  return s;
}

}  // namespace

OpenLoopResult run_open_loop(std::uint16_t port, const std::vector<Rung>& rungs,
                             const RequestSignals& signals, std::uint64_t seed,
                             std::uint64_t key_base, int connections,
                             double slo_ms) {
  std::vector<std::unique_ptr<Connection>> conns;
  std::vector<double> rung_start;
  double start = 0;
  for (const Rung& rung : rungs) {
    rung_start.push_back(start);
    start += rung.seconds;
  }
  // Schedules first, then the global request index k = j * connections + c
  // that picks each signal. Each rung gets exactly rate x seconds arrivals
  // per connection share, placed as sorted uniform draws: a Poisson process
  // conditioned on its count, so every seed offers the same load.
  for (int c = 0; c < connections; ++c) {
    auto conn = std::make_unique<Connection>();
    std::mt19937_64 rng(seed * 0x9e3779b97f4a7c15ULL + static_cast<std::uint64_t>(c));
    for (std::size_t r = 0; r < rungs.size(); ++r) {
      std::uniform_real_distribution<double> at(rung_start[r],
                                                rung_start[r] + rungs[r].seconds);
      std::vector<double> times(static_cast<std::size_t>(
          std::lround(rungs[r].rate_rps * rungs[r].seconds / connections)));
      for (double& t : times) t = at(rng);
      std::sort(times.begin(), times.end());
      for (const double t : times) {
        WireRecord record;
        record.rung = static_cast<int>(r);
        record.scheduled_s = t;
        record.key = key_base +
                     conn->records.size() * static_cast<std::uint64_t>(connections) +
                     static_cast<std::uint64_t>(c);
        conn->records.push_back(record);
      }
    }
    conn->socket = net::connect_to("127.0.0.1", port);
    conns.push_back(std::move(conn));
  }

  // The origin sits a little ahead so every thread is parked before the
  // first scheduled send.
  const auto t0 = Clock::now() + std::chrono::milliseconds(20);
  std::vector<std::thread> threads;
  for (auto& conn : conns) {
    threads.emplace_back(send_loop, std::ref(*conn), std::cref(signals), t0);
    threads.emplace_back(receive_loop, std::ref(*conn), t0);
  }
  for (auto& t : threads) t.join();

  OpenLoopResult result;
  result.wall_s = seconds_since(t0);
  for (auto& conn : conns) {
    result.transport_errors += conn->transport_errors.load();
    result.records.insert(result.records.end(), conn->records.begin(),
                          conn->records.end());
    for (auto& s : conn->samples) result.samples.push_back(std::move(s));
    conn->socket.close();
  }
  for (std::size_t r = 0; r < rungs.size(); ++r) {
    if (rungs[r].recorded) {
      result.rungs.push_back(rung_stats(result.records, static_cast<int>(r),
                                        rungs[r], rung_start[r], slo_ms));
    }
  }
  return result;
}

ServeCounters ServeCounters::of(const net::Daemon& daemon) {
  const auto& server = *daemon.server();
  return ServeCounters{server.stats(), daemon.stats(), server.cache_stats(),
                       server.registry()->live_epochs()};
}

Metrics wire_layer_metrics(const OpenLoopResult& run, const ServeCounters& before,
                           const ServeCounters& after, int workers) {
  // Per-request splits come from the first recorded rung, where the
  // end-to-end latency is read; busy time and batching span the whole run.
  const RungStats& reference = run.rungs.front();
  std::vector<double> queue, encode, overhead;
  double busy_s = 0;
  for (const WireRecord& r : run.records) {
    if (r.done_s < 0 || r.status != net::WireStatus::kOk) continue;
    const double queue_ms = static_cast<double>(r.queue_us) / 1e3;
    const double encode_ms = static_cast<double>(r.encode_us) / 1e3;
    // Every column of a batch reports the batch's encode window.
    if (r.batch_columns > 0) busy_s += encode_ms / 1e3 / r.batch_columns;
    if (r.rung != reference.rung) continue;
    queue.push_back(queue_ms);
    encode.push_back(encode_ms);
    overhead.push_back((r.done_s - r.sent_s) * 1e3 - queue_ms - encode_ms);
  }
  const auto delta = [](std::uint64_t a, std::uint64_t b) {
    return static_cast<double>(a - b);
  };
  const double batches = delta(after.server.batches, before.server.batches);
  const double lookups = delta(after.cache.hits + after.cache.misses,
                               before.cache.hits + before.cache.misses);
  const double frames =
      delta(after.daemon.frames_received, before.daemon.frames_received);

  Metrics m;
  m.set("serve.queue.p50_ms", quantile(queue, 0.5), "ms");
  m.set("serve.queue.p99_ms", quantile(queue, 0.99), "ms");
  m.set("serve.encode.p50_ms", quantile(encode, 0.5), "ms");
  m.set("serve.encode.p99_ms", quantile(encode, 0.99), "ms");
  m.set("serve.batch_cols.mean",
        batches > 0 ? delta(after.server.columns_encoded,
                            before.server.columns_encoded) / batches
                    : 0,
        "count");
  m.set("serve.busy_frac", busy_s / (workers * run.wall_s), "ratio");
  m.set("serve.cache.hit_ratio",
        lookups > 0 ? delta(after.cache.hits, before.cache.hits) / lookups : 0,
        "ratio");
  m.set("serve.cache.evictions",
        delta(after.cache.evictions, before.cache.evictions), "count");
  m.set("serve.registry.live_epochs_max",
        static_cast<double>(std::max(before.live_epochs, after.live_epochs)),
        "count");
  m.set("net.overhead.p50_ms", quantile(overhead, 0.5), "ms");
  m.set("net.overhead.p99_ms", quantile(overhead, 0.99), "ms");
  m.set("net.bytes_per_req",
        frames > 0 ? (delta(after.daemon.bytes_rx, before.daemon.bytes_rx) +
                      delta(after.daemon.bytes_tx, before.daemon.bytes_tx)) /
                         frames
                   : 0,
        "B");
  m.set("loadgen.lag.p99_ms", reference.lag_p99_ms, "ms");
  return m;
}

void gate_wire_run(const net::Daemon& daemon,
                   const std::vector<OpenLoopResult>& runs,
                   const RequestSignals& signals, Gates& gates) {
  const net::DaemonStats d = daemon.stats();
  gates.check("daemon_identities",
              d.frames_received == d.invalid_payloads + d.submitted &&
                  d.replies_sent + d.reply_write_failures == d.frames_received,
              "frames " + std::to_string(d.frames_received) + ", submitted " +
                  std::to_string(d.submitted) + ", replies " +
                  std::to_string(d.replies_sent) + ", write failures " +
                  std::to_string(d.reply_write_failures));
  const std::string violation =
      server_identity_violation(daemon.server()->stats());
  gates.check("server_identities", violation.empty(),
              violation.empty() ? "ServerStats books balance" : violation);

  std::uint64_t sent = 0, ok = 0, transport = 0;
  for (const OpenLoopResult& run : runs) {
    transport += run.transport_errors;
    for (const WireRecord& r : run.records) {
      if (r.sent_s >= 0) ++sent;
      if (r.done_s >= 0 && r.status == net::WireStatus::kOk) ++ok;
    }
  }
  gates.check("no_lost_or_failed_replies",
              transport == 0 && ok == sent && d.replies_sent == sent &&
                  d.frames_received == sent,
              std::to_string(ok) + " OK replies for " + std::to_string(sent) +
                  " requests sent, " + std::to_string(transport) +
                  " transport errors");

  const auto epoch = daemon.server()->registry()->current();
  const auto& omp = daemon.server()->config().omp;
  std::vector<Real> signal(static_cast<std::size_t>(signals.rows()));
  std::uint64_t checked = 0, mismatched = 0;
  for (const OpenLoopResult& run : runs) {
    for (const SampledReply& sample : run.samples) {
      signals.make(sample.key, signal);
      ++checked;
      if (sample.epoch != epoch->id ||
          !same_code(epoch->coder.encode(signal, omp), sample.code, 1e-12)) {
        ++mismatched;
      }
    }
  }
  gates.check("sampled_codes_match_direct_encode",
              checked > 0 && mismatched == 0,
              std::to_string(mismatched) + " of " + std::to_string(checked) +
                  " sampled replies differ from BatchOmp::encode");
}

}  // namespace perf
