#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <future>
#include <memory>
#include <span>
#include <stdexcept>
#include <thread>
#include <vector>

#include "la/matrix.hpp"
#include "la/types.hpp"
#include "serve/dict_registry.hpp"
#include "serve/encode_cache.hpp"
#include "serve/queue.hpp"
#include "sparsecoding/batch_omp.hpp"
#include "util/metrics.hpp"
#include "util/sync.hpp"

namespace extdict::serve {

using la::Index;
using la::Real;

/// Base class of the serving layer's documented rejection errors. Every
/// submitted future resolves with a value or with exactly one of these (or
/// `InvalidRequest`) — a future left dangling is a server bug, and the load
/// bench treats it as one.
class ServeError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// The queue was full under BackpressurePolicy::kReject.
class RequestRejected final : public ServeError {
 public:
  RequestRejected() : ServeError("extdict::serve: queue full, request rejected") {}
};

/// The request was evicted by a newer arrival under kShedOldest.
class RequestShed final : public ServeError {
 public:
  RequestShed() : ServeError("extdict::serve: request shed under load") {}
};

/// The server stopped before the request could be (or was) encoded.
class ServerStopped final : public ServeError {
 public:
  ServerStopped() : ServeError("extdict::serve: server stopped") {}
};

/// Malformed request (zero-length or wrong-M signal). Derives from
/// std::invalid_argument to match the library's shape-contract convention.
class InvalidRequest final : public std::invalid_argument {
 public:
  using std::invalid_argument::invalid_argument;
};

/// Per-request overrides of the server's default stopping rule. Negative
/// means "server default"; `max_atoms == 0` means uncapped (min(M, L), the
/// OmpConfig convention).
struct EncodeOptions {
  Real tolerance = -1;  ///< the paper's ε; < 0 → ServerConfig::omp.tolerance
  Index max_atoms = -1;  ///< sparsity cap; < 0 → ServerConfig::omp.max_atoms
};

/// "No id was assigned": requests failed before admission (shape validation
/// rejects them ahead of id assignment) report this from `submit_traced`.
inline constexpr std::uint64_t kNoRequestId = ~std::uint64_t{0};

/// One served sparse code plus its latency attribution: how long the request
/// sat queued before its batch formed, how long the shared Batch-OMP window
/// ran, and how many columns shared that window.
struct EncodeResult {
  sparsecoding::SparseCode code;
  std::uint64_t request_id = 0;
  Index batch_columns = 0;   ///< columns encoded in this request's batch (0 on a cache hit)
  double queue_seconds = 0;  ///< submit → batch flush (0 on a cache hit)
  double encode_seconds = 0; ///< the batch's shared encode window (0 on a cache hit)
  std::uint64_t dict_epoch = 0;  ///< registry epoch the code was computed against
  bool cache_hit = false;    ///< served from the encode cache, no solver run
};

struct ServerConfig {
  Index max_batch = 64;           ///< flush when this many columns collected
  std::uint64_t max_delay_us = 200;  ///< ... or this long after the first one
  int workers = 2;                ///< batch-encode worker threads
  std::size_t queue_capacity = 1024;
  BackpressurePolicy backpressure = BackpressurePolicy::kBlock;
  sparsecoding::OmpConfig omp;    ///< default ε / sparsity cap
  /// Encode-cache entry budget; 0 disables the cache entirely (every
  /// request runs Batch-OMP, the pre-cache behaviour).
  std::size_t cache_capacity = 0;
};

enum class StopMode {
  kDrain,   ///< stop admissions, serve everything queued, then join
  kDiscard  ///< stop admissions, fail queued requests with ServerStopped
};

/// Monotone request accounting, snapshot via `ExtDictServer::stats()`.
/// Identities once the server has stopped (every future resolved):
///   submitted == accepted + invalid + rejected + stopped + cache_hits
///   accepted  == served + encode_failed + shed + discarded
///   columns_encoded == served + encode_failed
/// A client sees a value future for every `served` OR `cache_hits` request;
/// every other bucket resolves with its documented error.
struct ServerStats {
  std::uint64_t submitted = 0;  ///< submit() calls
  std::uint64_t invalid = 0;    ///< failed shape validation
  std::uint64_t rejected = 0;   ///< kReject on a full queue
  std::uint64_t stopped = 0;    ///< refused because the server was stopping
  std::uint64_t cache_hits = 0; ///< resolved from the encode cache, never queued
  std::uint64_t accepted = 0;   ///< entered the queue
  std::uint64_t shed = 0;       ///< evicted under kShedOldest
  std::uint64_t discarded = 0;  ///< failed by a kDiscard stop
  std::uint64_t served = 0;     ///< futures resolved with a batch-encoded value
  std::uint64_t encode_failed = 0;  ///< encode threw (e.g. non-finite signal)
  std::uint64_t batches = 0;
  std::uint64_t columns_encoded = 0;
  std::uint64_t max_batch_columns = 0;  ///< largest batch observed
};

/// Persistent, thread-safe sparse-coding server: serves a `DictRegistry`
/// epoch (dictionary + resident Batch-OMP Gram), accepts encode requests
/// from any number of client threads, and drives them through a
/// micro-batching scheduler — a worker flushes a batch at `max_batch`
/// columns or `max_delay_us` after the batch's first arrival, whichever
/// comes first — so concurrent requests share one Batch-OMP window (one
/// scheduler wakeup, one OpenMP parallel region) instead of paying the
/// per-invocation setup each.
///
/// Caching: with `cache_capacity > 0`, `submit` consults a content-addressed
/// `EncodeCache` (key = signal bits · dict epoch · effective ε/max_atoms)
/// before enqueueing; a hit resolves the future immediately — no queue, no
/// solver — and workers insert every successful batch encode keyed by the
/// epoch it was computed against. An extension flips the epoch, so stale
/// entries simply stop matching and age out of the LRU.
///
/// Extension: workers pin `registry->current()` once per batch; a
/// `DictRegistry::extend` published mid-batch takes effect from the next
/// batch. Requests therefore always get a code consistent with one epoch,
/// and `EncodeResult::dict_epoch` says which.
///
/// Shutdown is deterministic: `stop(kDrain)` (also the destructor) serves
/// everything queued then joins; `stop(kDiscard)` fails queued requests with
/// `ServerStopped`; either way every future ever returned by `submit`
/// resolves. Submissions racing a stop resolve with `ServerStopped`.
///
/// Observability: per-batch `serve.batch.collect` / `serve.batch.encode`
/// trace spans (columns + summed queue-wait args), per-request
/// `serve.request.{submit,cache_hit,enqueue,dequeue,resolve}` trace instants
/// carrying the request id (`req` arg — `tools/analyze_trace.py` groups them
/// into a per-request waterfall), `serve.*` counters, live gauges
/// (`serve.queue.depth`, `serve.inflight`, `serve.workers.busy` — tracked at
/// the push/pop/resolve transitions, never sampled under race), windowed +
/// cumulative `serve.latency.{queue,encode,total}_seconds` histograms
/// (`encode` is each column's own encode time) plus
/// `serve.latency.batch_encode_seconds` (the batch's encode window each
/// column waited through, = `EncodeResult::encode_seconds`) in the global
/// registry — `stats()` is the server's own (always-on) accounting.
/// The gauges reconcile with the monotone identities at quiescence:
///   queue.depth == accepted − served − encode_failed − shed − discarded
///                  − inflight
/// (transient skews bounded by in-transition requests while running).
///
/// Lock ordering: the queue's mutex, the metrics registry's, the encode
/// cache's per-shard mutexes, and `DictRegistry::mu_` are all leaves;
/// `stop_mu_` (here) and `DictRegistry::extend_mu_` are the two documented
/// exceptions to the leaf policy (see their declarations).
class ExtDictServer {
 public:
  /// Takes the dictionary by value: the server builds a private registry
  /// (epoch 0) around its copy, so callers can drop theirs.
  explicit ExtDictServer(la::Matrix dictionary, ServerConfig config = {});

  /// Serves a shared registry: the caller (or another server) may extend it
  /// while this server runs. `registry` must be non-null and outlives
  /// nothing — the server holds a shared_ptr.
  explicit ExtDictServer(std::shared_ptr<DictRegistry> registry,
                         ServerConfig config = {});

  /// Drains and stops (StopMode::kDrain semantics).
  ~ExtDictServer();

  ExtDictServer(const ExtDictServer&) = delete;
  ExtDictServer& operator=(const ExtDictServer&) = delete;

  /// Queues one signal for encoding. Always returns a future that will
  /// resolve: with an EncodeResult, or with InvalidRequest (bad shape),
  /// RequestRejected / RequestShed (backpressure), or ServerStopped.
  /// Blocks only under BackpressurePolicy::kBlock on a full queue.
  [[nodiscard]] std::future<EncodeResult> submit(
      std::span<const Real> signal, const EncodeOptions& options = {});

  /// `submit` plus the id the request was assigned, known before the future
  /// resolves. Transports that keep their own per-request telemetry (the
  /// src/net/ daemon joins its net.request.* trace instants to this id's
  /// serve.request.* waterfall) need the id at admission time, not at
  /// resolution. `request_id` is kNoRequestId when the request failed shape
  /// validation — ids are assigned only to well-formed requests, so the
  /// in-process trace stream is unchanged.
  struct SubmitTicket {
    std::future<EncodeResult> future;
    std::uint64_t request_id = kNoRequestId;
  };
  [[nodiscard]] SubmitTicket submit_traced(std::span<const Real> signal,
                                           const EncodeOptions& options = {});

  /// Idempotent; concurrent calls serialize and all return after shutdown
  /// completes. The first caller's mode wins.
  void stop(StopMode mode = StopMode::kDrain);

  [[nodiscard]] bool accepting() const noexcept {
    return accepting_.load(std::memory_order_relaxed);
  }

  [[nodiscard]] ServerStats stats() const noexcept;

  /// Encode-cache accounting; all zeros when the cache is disabled.
  [[nodiscard]] EncodeCacheStats cache_stats() const noexcept {
    return cache_ ? cache_->stats() : EncodeCacheStats{};
  }

  /// The registry this server serves from (never null); extending it takes
  /// effect from the next batch, with no serving interruption.
  [[nodiscard]] const std::shared_ptr<DictRegistry>& registry() const noexcept {
    return registry_;
  }

  [[nodiscard]] Index signal_dim() const noexcept {
    return registry_->signal_dim();
  }
  /// Atom count of the registry's current epoch (grows across extensions).
  [[nodiscard]] Index atom_count() const { return registry_->atom_count(); }
  [[nodiscard]] const ServerConfig& config() const noexcept { return config_; }

 private:
  struct Request {
    std::vector<Real> signal;
    EncodeOptions options;
    std::promise<EncodeResult> promise;
    std::chrono::steady_clock::time_point submitted_at;
    std::uint64_t id = 0;
  };

  void worker_loop();
  void encode_batch(std::vector<Request>& batch);
  [[nodiscard]] sparsecoding::OmpConfig effective_config(
      const EncodeOptions& options) const noexcept;

  /// Clamps max_batch ≥ 1 and workers ≥ 1 so `config_` can stay const (and
  /// lock-free to read) for the server's whole lifetime.
  [[nodiscard]] static ServerConfig sanitized(ServerConfig config) noexcept;

  const ServerConfig config_;
  // Set once in the constructor, immutable after: the shared_ptr itself is
  // const, the registry is internally synchronized.
  const std::shared_ptr<DictRegistry> registry_;
  // Null when cache_capacity == 0; EncodeCache is internally synchronized
  // (per-shard leaf mutexes).
  const std::unique_ptr<EncodeCache> cache_;
  // Internally synchronized: BoundedQueue owns its mutex (a leaf lock).
  // extdict-analyze: allow(guarded-by) BoundedQueue is internally synchronized
  BoundedQueue<Request> queue_;
  // Written only by the constructor (pre-publication) and joined by stop()
  // under stop_mu_; clang TSA exempts constructor bodies, so the annotation
  // holds for every post-publication access.
  std::vector<std::thread> workers_ EXTDICT_GUARDED_BY(stop_mu_);

  std::atomic<bool> accepting_{true};
  std::atomic<std::uint64_t> next_id_{0};

  // Registry cells, resolved once here so no request path takes the
  // registry's name-map lock. Process-wide names — concurrent servers sum
  // into the same cells. The gauges are deliberately ungated by the
  // registry's enabled switch: the +/- pairs must stay balanced across
  // mid-run toggles or the levels would drift.
  util::Gauge& queue_depth_gauge_;
  util::Gauge& inflight_gauge_;
  util::Gauge& busy_workers_gauge_;
  util::MetricsRegistry::Distribution& queue_latency_;
  util::MetricsRegistry::Distribution& encode_latency_;
  util::MetricsRegistry::Distribution& batch_encode_latency_;
  util::MetricsRegistry::Distribution& total_latency_;

  // NOT a leaf lock (documented exception to the util/sync.hpp policy):
  // stop() holds it across queue close and worker join so concurrent stops
  // serialize on the complete shutdown. No other path acquires both, and
  // workers never touch stop_mu_. The one outgoing ordering edge — the
  // queue's mutex (close / close_and_drain) — is declared below;
  // `tools/extdict-analyze.py` fails the build if the extracted lock-order
  // graph ever grows an edge not declared here.
  // extdict-analyze: non-leaf(ExtDictServer::stop_mu_ -> BoundedQueue::mu_)
  util::Mutex stop_mu_;
  bool stopped_ EXTDICT_GUARDED_BY(stop_mu_) = false;

  // stats() cells, each paired with its serve.* counter.
  util::Tally submitted_, invalid_, rejected_, stopped_rejects_, cache_hits_,
      accepted_, shed_, discarded_, served_, encode_failed_, batches_,
      columns_encoded_;
  std::atomic<std::uint64_t> max_batch_columns_{0};
};

}  // namespace extdict::serve
