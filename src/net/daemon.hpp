#pragma once

#include <array>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <future>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "net/protocol.hpp"
#include "net/socket.hpp"
#include "serve/queue.hpp"
#include "serve/server.hpp"
#include "util/metrics.hpp"
#include "util/sync.hpp"

namespace extdict::net {

struct DaemonConfig {
  std::string bind_address = "127.0.0.1";
  std::uint16_t port = 0;  ///< 0 picks an ephemeral port; read it via port()
};

inline constexpr int kListenBacklog = 64;
/// Pending-reply FIFO capacity. The poll thread blocks pushing into a full
/// FIFO, which stops it reading — backpressure propagates to every client
/// through TCP flow control, exactly the network-transparent contract.
inline constexpr std::size_t kReplyQueueCapacity = 1024;
inline constexpr std::size_t kMaxConnections = 256;  ///< arrivals beyond this are refused
/// SO_SNDTIMEO per connection: a stalled peer fails its reply write after
/// this long instead of wedging the single reply writer forever.
inline constexpr int kSendTimeoutMs = 10000;

/// Monotone wire-side accounting, one cell per admission/egress outcome.
/// Identities once the daemon has stopped (pinned by tests and the bench):
///   frames_received == invalid_payloads + submitted
///   replies_sent + reply_write_failures == frames_received
/// Server-side buckets for submitted frames live in ServerStats — the two
/// books join on `submitted` (every submitted frame is one submit() call).
struct DaemonStats {
  std::uint64_t connections_accepted = 0;
  std::uint64_t connections_refused = 0;  ///< over kMaxConnections
  std::uint64_t frames_received = 0;      ///< complete, well-formed requests
  std::uint64_t malformed_closes = 0;     ///< connections dropped on bad bytes
  std::uint64_t invalid_payloads = 0;     ///< non-finite signals, refused here
  std::uint64_t submitted = 0;            ///< frames handed to submit()
  std::uint64_t replies_sent = 0;
  std::uint64_t reply_write_failures = 0;  ///< peer gone / send timeout
  std::uint64_t bytes_rx = 0;
  std::uint64_t bytes_tx = 0;
};

/// TCP front end for one `serve::ExtDictServer` (ARCHITECTURE.md §5): a
/// poll(2) event-loop thread accepts connections, reassembles request
/// frames from the byte stream, and feeds them into the server's
/// submit/future path; a single writer thread completes replies in arrival
/// order as the futures resolve. One writer means no interleaved writes and
/// per-connection replies in request order — the price is cross-connection
/// head-of-line blocking on a stalled peer, bounded by SO_SNDTIMEO.
///
/// Backpressure is network-transparent: kReject / kShedOldest / invalid
/// outcomes come back as distinct wire statuses (WireStatus), and kBlock
/// blocks the poll thread inside submit(), which stops it reading — TCP
/// flow control pushes the queue-full signal all the way to the clients.
/// Malformed byte streams (bad magic/version, oversized declared lengths)
/// close the connection; well-formed but unservable frames (wrong shape,
/// non-finite payload) get a kInvalid reply and the connection lives on.
/// Non-finite payloads are refused at this boundary deliberately, so the
/// remote outcome does not depend on whether the build has the contracts
/// layer (EXTDICT_CHECKS) that would trip inside the encoder.
///
/// `stop(mode)` gives daemon shutdown the same guarantees as
/// `ExtDictServer::stop`: admissions close first (listener + reads), then
/// the server stops with `mode` (kDrain serves the backlog, kDiscard fails
/// it with ServerStopped), and the writer drains the pending-reply FIFO —
/// every frame ever admitted gets exactly one reply (or one counted write
/// failure if its peer vanished). Idempotent; the destructor drains.
///
/// Observability: `net.connections` gauge, `net.bytes.{rx,tx}` +
/// `net.{frames.rx,replies.tx,malformed}` counters, windowed + cumulative
/// `net.latency.wire_seconds` (frame fully received → reply written), and
/// `net.request.{accept,reply}` trace instants carrying the server-assigned
/// request id so tools/analyze_trace.py joins them to the serve.request.*
/// waterfall.
class Daemon {
 public:
  /// Binds and starts serving immediately. `server` must be non-null; the
  /// daemon shares ownership (the CLI configures telemetry/cache on the
  /// server before wrapping it). Throws NetError if the bind fails.
  explicit Daemon(std::shared_ptr<serve::ExtDictServer> server,
                  DaemonConfig config = {});

  /// Drains and stops (serve::StopMode::kDrain semantics).
  ~Daemon();

  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;

  /// Idempotent; concurrent calls serialize and all return after shutdown
  /// completes. The first caller's mode wins (the ExtDictServer contract).
  void stop(serve::StopMode mode = serve::StopMode::kDrain);

  [[nodiscard]] std::uint16_t port() const noexcept { return port_; }
  [[nodiscard]] const std::shared_ptr<serve::ExtDictServer>& server()
      const noexcept {
    return server_;
  }
  [[nodiscard]] DaemonStats stats() const noexcept;

 private:
  /// Per-connection state. Owned by the poll thread (buffer, lifecycle);
  /// the writer thread only issues send() syscalls on the fd, which needs
  /// no user-space lock (see Socket). shared_ptr keeps the socket alive
  /// until the last pending reply for it has been written.
  struct Connection {
    explicit Connection(Socket s) : socket(std::move(s)) {}
    Socket socket;
    std::vector<std::uint8_t> rx;  ///< reassembly buffer (poll thread only)
  };

  /// One admitted frame waiting for its reply. FIFO order == arrival order,
  /// so each connection sees replies in the order it sent requests.
  struct PendingReply {
    std::shared_ptr<Connection> conn;
    std::uint64_t wire_id = 0;    ///< client's request id, echoed back
    std::uint64_t server_id = serve::kNoRequestId;  ///< for trace joining
    std::future<serve::EncodeResult> future;
    std::chrono::steady_clock::time_point received_at;
  };

  void poll_loop();
  void writer_loop();
  /// Decodes + dispatches every complete frame in `conn->rx`. Returns false
  /// when the stream is malformed and the connection must be dropped.
  [[nodiscard]] bool drain_frames(const std::shared_ptr<Connection>& conn);
  void dispatch(const std::shared_ptr<Connection>& conn, RequestFrame frame);
  void wake_poll_thread() noexcept;

  [[nodiscard]] static std::array<int, 2> make_wake_pipe();

  const DaemonConfig config_;
  const std::shared_ptr<serve::ExtDictServer> server_;
  // Closed by the poll thread on shutdown; accessed by no one else after
  // the constructor.
  // extdict-analyze: allow(guarded-by) poll-thread-owned after construction
  Socket listener_;
  const std::uint16_t port_;
  const std::array<int, 2> wake_pipe_;  ///< [read end, write end]

  // Internally synchronized: BoundedQueue owns its mutex (a leaf lock). The
  // poll thread pushes (kBlock: a full FIFO throttles reads), the writer
  // pops; stop() closes it only after the poll thread has been joined, so a
  // push can never land on a closed FIFO and lose its reply.
  // extdict-analyze: allow(guarded-by) BoundedQueue is internally synchronized
  serve::BoundedQueue<PendingReply> pending_;

  std::atomic<bool> stopping_{false};

  // Poll-thread-owned while running; stop() touches it only after joining
  // the poll thread (the join is the synchronization point).
  // extdict-analyze: allow(guarded-by) poll-thread-owned; stop() reads after join
  std::vector<std::shared_ptr<Connection>> conns_;

  // Written only by the constructor (pre-publication) and joined by stop()
  // under stop_mu_ — the ExtDictServer::workers_ pattern.
  std::thread poll_thread_ EXTDICT_GUARDED_BY(stop_mu_);
  std::thread writer_thread_ EXTDICT_GUARDED_BY(stop_mu_);

  // NOT a leaf lock (documented exception to the util/sync.hpp policy):
  // stop() holds it across thread joins, ExtDictServer::stop, and the
  // pending-FIFO close so concurrent stops serialize on the complete
  // shutdown. Neither worker thread ever touches stop_mu_, so the joins
  // only serialize the stoppers. Outgoing ordering edges: the wrapped
  // server's stop_mu_ (and transitively its queue mutex), plus this
  // daemon's own pending-FIFO mutex on close.
  // extdict-analyze: non-leaf(Daemon::stop_mu_ -> ExtDictServer::stop_mu_)
  // extdict-analyze: non-leaf(Daemon::stop_mu_ -> BoundedQueue::mu_)
  util::Mutex stop_mu_;
  bool stopped_ EXTDICT_GUARDED_BY(stop_mu_) = false;

  // Registry cells, resolved once here so neither loop thread takes the
  // registry's name-map lock. The gauge is ungated by the enabled switch so
  // +/- pairs stay balanced, matching the serve.* gauges.
  util::Gauge& connections_gauge_;
  util::MetricsRegistry::Distribution& wire_latency_;

  // stats() cells; all but two are paired with their net.* counter.
  util::Tally connections_accepted_, connections_refused_, frames_received_,
      malformed_closes_, replies_sent_, reply_write_failures_, bytes_rx_,
      bytes_tx_;
  std::atomic<std::uint64_t> invalid_payloads_{0}, submitted_{0};
};

}  // namespace extdict::net
