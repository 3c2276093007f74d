// extdict-lint: allow(orphan-module) the remote client behind `extdict_cli serve --connect`, which the CI daemon smoke step drives
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "net/protocol.hpp"
#include "net/socket.hpp"
#include "serve/server.hpp"

namespace extdict::net {

/// A kEncodeFailed reply: the daemon admitted the frame but the encode side
/// threw something outside the serve:: taxonomy. Thrown by Client::encode so
/// the remote error surface is exactly the in-process one plus this class.
class RemoteEncodeFailed : public serve::ServeError {
 public:
  using serve::ServeError::ServeError;
};

/// One remote outcome, status + payload — the non-throwing result shape.
/// `status == WireStatus::kOk` iff `result` is meaningful; on every other
/// status `result` is default-constructed and `status` carries the
/// backpressure outcome the wire delivered.
struct RemoteResult {
  WireStatus status = WireStatus::kOk;
  serve::EncodeResult result;
  [[nodiscard]] bool ok() const noexcept { return status == WireStatus::kOk; }
};

/// Thin synchronous client for one net::Daemon connection. NOT thread-safe:
/// one Client per thread (connections are cheap; the daemon accepts many).
/// Transport-level failures — refused connection, mid-reply disconnect,
/// malformed reply bytes — throw NetError; serving-level outcomes come back
/// as WireStatus (try_encode) or as the matching serve:: exception (encode),
/// so swapping an in-process server for a remote one does not change a
/// caller's error handling.
class Client {
 public:
  /// Connects immediately; throws NetError on failure.
  Client(const std::string& host, std::uint16_t port);

  Client(Client&&) noexcept = default;
  Client& operator=(Client&&) noexcept = default;

  /// One round trip, non-throwing on serving-level outcomes: sends the
  /// request, blocks for the reply, returns its status verbatim. Throws
  /// NetError only for transport/protocol failures.
  [[nodiscard]] RemoteResult try_encode(
      std::span<const serve::Real> signal,
      const serve::EncodeOptions& options = {});

  /// One round trip with the in-process error surface: returns the
  /// EncodeResult on kOk and otherwise throws the serve:: exception the
  /// status maps to (InvalidRequest, RequestRejected, RequestShed,
  /// ServerStopped) or RemoteEncodeFailed.
  [[nodiscard]] serve::EncodeResult encode(
      std::span<const serve::Real> signal,
      const serve::EncodeOptions& options = {});

  /// Pipelined burst: writes all requests back-to-back, then reads all
  /// replies — one network round trip of latency for the whole batch, which
  /// is what lets the daemon's micro-batcher see a full window. Results come
  /// back in request order (the daemon's reply FIFO guarantees it); request
  /// ids are checked against the echo. Throws NetError on transport failure.
  [[nodiscard]] std::vector<RemoteResult> encode_many(
      std::span<const std::vector<serve::Real>> signals,
      const serve::EncodeOptions& options = {});

  /// Half-closes the write side so the daemon sees EOF; the object stays
  /// valid for reading already-pipelined replies. Destruction closes fully.
  void shutdown_writes() noexcept { socket_.shutdown_both(); }

 private:
  [[nodiscard]] ReplyFrame read_reply(std::uint64_t expected_id);

  Socket socket_;
  std::uint64_t next_id_ = 1;
  std::vector<std::uint8_t> tx_;  ///< serialization scratch, reused
  std::vector<std::uint8_t> rx_;  ///< reply reassembly buffer
};

/// Maps a non-kOk wire status to the serve:: exception a caller of
/// ExtDictServer::submit would have seen — the throwing half of the
/// network-transparency contract. kOk is a precondition violation.
[[noreturn]] void throw_wire_status(WireStatus status);

}  // namespace extdict::net
