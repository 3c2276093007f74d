#include "net/daemon.hpp"

#include <poll.h>
#include <unistd.h>

#include <cerrno>
#include <cmath>
#include <cstring>
#include <exception>
#include <utility>

#include "util/trace.hpp"

namespace extdict::net {

namespace {

using Clock = std::chrono::steady_clock;

/// Maps a resolved future to its wire image — the status table documented
/// at WireStatus. Exercised for every admitted frame, including pre-failed
/// ones (the daemon seeds InvalidRequest futures for non-finite payloads),
/// so the mapping lives in exactly one place.
ReplyFrame reply_from_future(std::uint64_t wire_id,
                             std::future<serve::EncodeResult>&& future) {
  ReplyFrame reply;
  reply.request_id = wire_id;
  try {
    serve::EncodeResult result = future.get();
    reply.status = WireStatus::kOk;
    reply.code = std::move(result.code);
    reply.queue_micros =
        static_cast<std::uint64_t>(result.queue_seconds * 1e6);
    reply.encode_micros =
        static_cast<std::uint64_t>(result.encode_seconds * 1e6);
    reply.dict_epoch = result.dict_epoch;
    reply.batch_columns = static_cast<std::uint32_t>(result.batch_columns);
    reply.cache_hit = result.cache_hit;
  } catch (const serve::RequestRejected&) {
    reply.status = WireStatus::kRejected;
  } catch (const serve::RequestShed&) {
    reply.status = WireStatus::kShed;
  } catch (const serve::ServerStopped&) {
    reply.status = WireStatus::kStopped;
  } catch (const serve::InvalidRequest&) {
    reply.status = WireStatus::kInvalid;
  } catch (const std::exception&) {
    reply.status = WireStatus::kEncodeFailed;
  }
  return reply;
}

util::MetricsRegistry::Counter& counter(std::string_view name) {
  return util::MetricsRegistry::global().counter(name);
}

}  // namespace

std::array<int, 2> Daemon::make_wake_pipe() {
  std::array<int, 2> fds{-1, -1};
  if (::pipe(fds.data()) != 0) {
    throw NetError(std::string("extdict::net: pipe: ") + std::strerror(errno));
  }
  return fds;
}

Daemon::Daemon(std::shared_ptr<serve::ExtDictServer> server,
               DaemonConfig config)
    : config_(config),
      server_(std::move(server)),
      listener_(listen_on(config_.bind_address, config_.port,
                          kListenBacklog)),
      port_(local_port(listener_)),
      wake_pipe_(make_wake_pipe()),
      pending_(kReplyQueueCapacity, serve::BackpressurePolicy::kBlock),
      connections_gauge_(
          util::MetricsRegistry::global().gauge("net.connections")),
      wire_latency_(util::MetricsRegistry::global().distribution(
          "net.latency.wire_seconds")),
      connections_accepted_(counter("net.connections.accepted")),
      connections_refused_(counter("net.connections.refused")),
      frames_received_(counter("net.frames.rx")),
      malformed_closes_(counter("net.malformed")),
      replies_sent_(counter("net.replies.tx")),
      reply_write_failures_(counter("net.reply_write_failures")),
      bytes_rx_(counter("net.bytes.rx")),
      bytes_tx_(counter("net.bytes.tx")) {
  if (!server_) {
    throw std::invalid_argument("extdict::net::Daemon: null server");
  }
  poll_thread_ = std::thread([this] { poll_loop(); });
  writer_thread_ = std::thread([this] { writer_loop(); });
}

Daemon::~Daemon() {
  stop(serve::StopMode::kDrain);
  ::close(wake_pipe_[0]);
  ::close(wake_pipe_[1]);
}

void Daemon::wake_poll_thread() noexcept {
  const std::uint8_t byte = 0;
  // A full pipe means a wake byte is already pending — the poll thread will
  // see it; EINTR on a one-byte pipe write is not retried for the same
  // reason (stop() stores `stopping_` before writing, so any wake works).
  (void)!::write(wake_pipe_[1], &byte, 1);
}

void Daemon::poll_loop() {
  std::vector<pollfd> fds;
  std::vector<std::uint8_t> scratch(std::size_t{1} << 16);
  for (;;) {
    fds.clear();
    fds.push_back({wake_pipe_[0], POLLIN, 0});
    fds.push_back({listener_.fd(), POLLIN, 0});
    for (const auto& conn : conns_) {
      fds.push_back({conn->socket.fd(), POLLIN, 0});
    }

    if (::poll(fds.data(), static_cast<nfds_t>(fds.size()), -1) < 0) {
      if (errno == EINTR) continue;
      break;  // poll itself broke — shut the wire path down
    }

    if (fds[0].revents != 0) {
      std::uint8_t drain[16];
      (void)!::read(wake_pipe_[0], drain, sizeof(drain));
      if (stopping_.load(std::memory_order_acquire)) break;
    }

    std::size_t index = 1;
    if (fds[index].revents != 0) {
      if (auto accepted = accept_on(listener_, kSendTimeoutMs)) {
        if (conns_.size() < kMaxConnections) {
          connections_accepted_.add(1);
          connections_gauge_.add(1);
          conns_.push_back(std::make_shared<Connection>(std::move(*accepted)));
        } else {
          // Over the cap the arrival is refused outright (immediate close,
          // which the peer sees as EOF/RST on its first read) rather than
          // parked half-alive — the same fail-fast shape as kReject.
          connections_refused_.add(1);
        }
      }
    }
    ++index;

    // Snapshot: conns_ may shrink while handling, so walk by stable index
    // against the pollfd snapshot taken above.
    std::vector<std::shared_ptr<Connection>> keep;
    keep.reserve(conns_.size());
    for (std::size_t c = 0; c < conns_.size(); ++c, ++index) {
      const std::shared_ptr<Connection>& conn = conns_[c];
      bool alive = true;
      if (index < fds.size() && fds[index].revents != 0) {
        std::size_t got = 0;
        try {
          got = read_some(conn->socket.fd(), scratch.data(), scratch.size());
        } catch (const NetError&) {
          got = 0;  // reset by peer — same exit as clean EOF
        }
        if (got == 0) {
          alive = false;  // peer closed; pending replies fail their writes
        } else {
          bytes_rx_.add(got);
          conn->rx.insert(conn->rx.end(), scratch.begin(),
                          scratch.begin() + static_cast<std::ptrdiff_t>(got));
          if (!drain_frames(conn)) {
            malformed_closes_.add(1);
            conn->socket.shutdown_both();
            alive = false;
          }
        }
      }
      if (alive) {
        keep.push_back(conn);
      } else {
        connections_gauge_.sub(1);
      }
    }
    conns_ = std::move(keep);
  }
  // Admissions end here: close the listener and stop reading. Connections
  // stay open so the writer can flush every pending reply; stop() closes
  // them after the writer drains.
  listener_.close();
}

bool Daemon::drain_frames(const std::shared_ptr<Connection>& conn) {
  std::size_t head = 0;
  for (;;) {
    RequestDecode decoded = decode_request(
        std::span<const std::uint8_t>(conn->rx).subspan(head));
    if (decoded.status == DecodeStatus::kMalformed) return false;
    if (decoded.status == DecodeStatus::kNeedMore) break;
    head += decoded.consumed;
    dispatch(conn, std::move(decoded.frame));
  }
  if (head > 0) {
    conn->rx.erase(conn->rx.begin(),
                   conn->rx.begin() + static_cast<std::ptrdiff_t>(head));
  }
  return true;
}

void Daemon::dispatch(const std::shared_ptr<Connection>& conn,
                      RequestFrame frame) {
  frames_received_.add(1);
  PendingReply pending;
  pending.conn = conn;
  pending.wire_id = frame.request_id;
  pending.received_at = Clock::now();

  bool finite = true;
  for (const Real v : frame.signal) {
    if (!std::isfinite(v)) {
      finite = false;
      break;
    }
  }
  if (!finite) {
    // Refused at the boundary (not submitted): the in-process outcome for a
    // non-finite signal depends on whether the build carries the contracts
    // layer; the wire contract must not. Seed the documented error so the
    // writer's status mapping stays the single source of truth.
    invalid_payloads_.fetch_add(1, std::memory_order_relaxed);
    std::promise<serve::EncodeResult> refused;
    pending.future = refused.get_future();
    refused.set_exception(std::make_exception_ptr(serve::InvalidRequest(
        "extdict::net: non-finite signal refused at the wire boundary")));
  } else {
    submitted_.fetch_add(1, std::memory_order_relaxed);
    serve::ExtDictServer::SubmitTicket ticket =
        server_->submit_traced(frame.signal, frame.options);
    pending.server_id = ticket.request_id;
    pending.future = std::move(ticket.future);
    if (ticket.request_id != serve::kNoRequestId) {
      util::TraceRecorder::global().instant("net.request.accept", "req",
                                            ticket.request_id);
    }
  }
  // kBlock + post-join close (see the member comment) make this push
  // infallible: backpressure blocks, it never drops.
  (void)pending_.push(std::move(pending));
}

void Daemon::writer_loop() {
  std::vector<std::uint8_t> buffer;
  while (auto item = pending_.pop()) {
    // Futures resolve in batch order, which tracks arrival order; waiting
    // on the FIFO head keeps one writer sufficient and replies ordered per
    // connection.
    ReplyFrame reply = reply_from_future(item->wire_id,
                                         std::move(item->future));
    buffer.clear();
    append_reply(buffer, reply);
    if (item->server_id != serve::kNoRequestId) {
      util::TraceRecorder::global().instant("net.request.reply", "req",
                                            item->server_id);
    }
    if (write_all(item->conn->socket.fd(), buffer.data(), buffer.size())) {
      replies_sent_.add(1);
      bytes_tx_.add(buffer.size());
      wire_latency_.observe(
          std::chrono::duration<double>(Clock::now() - item->received_at)
              .count());
    } else {
      reply_write_failures_.add(1);
    }
  }
}

void Daemon::stop(serve::StopMode mode) {
  const util::MutexLock lock(stop_mu_);
  if (stopped_) return;
  stopping_.store(true, std::memory_order_release);
  wake_poll_thread();
  // Joining under stop_mu_ is the shutdown contract (the ExtDictServer
  // pattern): concurrent stops and the destructor all return only after the
  // complete shutdown. Neither loop thread touches stop_mu_, so the joins
  // only serialize the stoppers.
  // extdict-analyze: allow(blocking-while-locked) shutdown join, by contract
  poll_thread_.join();
  // Admissions are closed; every admitted frame has a PendingReply queued.
  // Resolve them all: kDrain serves the backlog, kDiscard fails it with
  // ServerStopped — either way the writer can finish every future.get().
  // extdict-analyze: allow(blocking-while-locked) shutdown drain, by contract
  server_->stop(mode);
  pending_.close();  // writer drains the remainder, then exits
  // extdict-analyze: allow(blocking-while-locked) shutdown join, by contract
  writer_thread_.join();
  for (const auto& conn : conns_) {
    conn->socket.shutdown_both();
    connections_gauge_.sub(1);
  }
  conns_.clear();
  stopped_ = true;
}

DaemonStats Daemon::stats() const noexcept {
  DaemonStats s;
  s.connections_accepted = connections_accepted_.value();
  s.connections_refused = connections_refused_.value();
  s.frames_received = frames_received_.value();
  s.malformed_closes = malformed_closes_.value();
  s.invalid_payloads = invalid_payloads_.load(std::memory_order_relaxed);
  s.submitted = submitted_.load(std::memory_order_relaxed);
  s.replies_sent = replies_sent_.value();
  s.reply_write_failures = reply_write_failures_.value();
  s.bytes_rx = bytes_rx_.value();
  s.bytes_tx = bytes_tx_.value();
  return s;
}

}  // namespace extdict::net
