#include "serve/server.hpp"

#include <algorithm>
#include <exception>
#include <string>
#include <utility>

#include "util/metrics.hpp"
#include "util/trace.hpp"

namespace extdict::serve {

namespace {

using Clock = std::chrono::steady_clock;

constexpr std::size_t kCacheShards = 8;  ///< independent LRU shards (lock striping)

double seconds_between(Clock::time_point from, Clock::time_point to) {
  return std::chrono::duration<double>(to - from).count();
}

void fail(std::promise<EncodeResult>& promise, std::exception_ptr error) {
  promise.set_exception(std::move(error));
}

util::MetricsRegistry::Counter& counter(std::string_view name) {
  return util::MetricsRegistry::global().counter(name);
}

util::Gauge& gauge(std::string_view name) {
  return util::MetricsRegistry::global().gauge(name);
}

util::MetricsRegistry::Distribution& distribution(std::string_view name) {
  return util::MetricsRegistry::global().distribution(name);
}

}  // namespace

ServerConfig ExtDictServer::sanitized(ServerConfig config) noexcept {
  config.max_batch = std::max<Index>(1, config.max_batch);
  config.workers = std::max(1, config.workers);
  return config;
}

ExtDictServer::ExtDictServer(la::Matrix dictionary, ServerConfig config)
    : ExtDictServer(std::make_shared<DictRegistry>(std::move(dictionary),
                                                   config.omp),
                    config) {}

ExtDictServer::ExtDictServer(std::shared_ptr<DictRegistry> registry,
                             ServerConfig config)
    : config_(sanitized(config)),
      registry_(std::move(registry)),
      cache_(config_.cache_capacity > 0
                 ? std::make_unique<EncodeCache>(config_.cache_capacity,
                                                 kCacheShards)
                 : nullptr),
      queue_(config.queue_capacity, config.backpressure),
      queue_depth_gauge_(gauge("serve.queue.depth")),
      inflight_gauge_(gauge("serve.inflight")),
      busy_workers_gauge_(gauge("serve.workers.busy")),
      queue_latency_(distribution("serve.latency.queue_seconds")),
      encode_latency_(distribution("serve.latency.encode_seconds")),
      batch_encode_latency_(distribution("serve.latency.batch_encode_seconds")),
      total_latency_(distribution("serve.latency.total_seconds")),
      submitted_(counter("serve.submitted")),
      invalid_(counter("serve.invalid")),
      rejected_(counter("serve.rejected")),
      stopped_rejects_(counter("serve.stopped_rejects")),
      cache_hits_(counter("serve.cache_hits")),
      accepted_(counter("serve.accepted")),
      shed_(counter("serve.shed")),
      discarded_(counter("serve.discarded")),
      served_(counter("serve.served")),
      encode_failed_(counter("serve.encode_failures")),
      batches_(counter("serve.batches")),
      columns_encoded_(counter("serve.columns")) {
  if (!registry_) {
    throw std::invalid_argument("ExtDictServer: null dictionary registry");
  }
  workers_.reserve(static_cast<std::size_t>(config_.workers));
  for (int w = 0; w < config_.workers; ++w) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

ExtDictServer::~ExtDictServer() { stop(StopMode::kDrain); }

sparsecoding::OmpConfig ExtDictServer::effective_config(
    const EncodeOptions& options) const noexcept {
  sparsecoding::OmpConfig config = config_.omp;
  if (options.tolerance >= 0) config.tolerance = options.tolerance;
  if (options.max_atoms >= 0) config.max_atoms = options.max_atoms;
  return config;
}

std::future<EncodeResult> ExtDictServer::submit(std::span<const Real> signal,
                                                const EncodeOptions& options) {
  return submit_traced(signal, options).future;
}

ExtDictServer::SubmitTicket ExtDictServer::submit_traced(
    std::span<const Real> signal, const EncodeOptions& options) {
  submitted_.add(1);

  if (signal.empty() ||
      static_cast<Index>(signal.size()) != registry_->signal_dim()) {
    invalid_.add(1);
    std::promise<EncodeResult> promise;
    SubmitTicket ticket{promise.get_future(), kNoRequestId};
    fail(promise, std::make_exception_ptr(InvalidRequest(
                      "extdict::serve: signal has " +
                      std::to_string(signal.size()) + " entries but the "
                      "dictionary has " +
                      std::to_string(registry_->signal_dim()) + " rows")));
    return ticket;
  }

  Request request;
  request.signal.assign(signal.begin(), signal.end());
  request.options = options;
  request.submitted_at = Clock::now();
  request.id = next_id_.fetch_add(1, std::memory_order_relaxed);
  SubmitTicket ticket{request.promise.get_future(), request.id};
  util::TraceRecorder::global().instant("serve.request.submit", "req",
                                        request.id);

  if (!accepting()) {
    stopped_rejects_.add(1);
    fail(request.promise, std::make_exception_ptr(ServerStopped()));
    return ticket;
  }

  if (cache_) {
    // Content-addressed fast path: an identical request (signal bits,
    // current epoch, effective stopping rule) already encoded resolves
    // here — no queue, no Batch-OMP, no locks beyond one cache shard.
    const sparsecoding::OmpConfig effective = effective_config(options);
    EncodeCacheKey key;
    key.signal = request.signal;  // copy: the miss path still needs it
    key.dict_epoch = registry_->current_epoch();
    key.tolerance = effective.tolerance;
    key.max_atoms = effective.max_atoms;
    if (auto code = cache_->lookup(key)) {
      cache_hits_.add(1);
      util::TraceRecorder::global().instant("serve.request.cache_hit", "req",
                                            request.id);
      EncodeResult result;
      result.code = std::move(*code);
      result.request_id = request.id;
      result.dict_epoch = key.dict_epoch;
      result.cache_hit = true;
      request.promise.set_value(std::move(result));
      return ticket;
    }
  }

  const std::uint64_t request_id = request.id;
  auto outcome = queue_.push(std::move(request));
  switch (outcome.status) {
    case PushStatus::kAccepted:
      accepted_.add(1);
      queue_depth_gauge_.add(1);
      util::TraceRecorder::global().instant("serve.request.enqueue", "req",
                                            request_id);
      if (outcome.shed.has_value()) {
        shed_.add(1);
        queue_depth_gauge_.sub(1);  // the shed victim left the queue
        util::TraceRecorder::global().instant("serve.request.shed", "req",
                                              outcome.shed->id);
        fail(outcome.shed->promise, std::make_exception_ptr(RequestShed()));
      }
      break;
    case PushStatus::kRejected:
      // push() did not consume the request — its promise is still ours.
      rejected_.add(1);
      fail(request.promise, std::make_exception_ptr(RequestRejected()));
      break;
    case PushStatus::kClosed:
      stopped_rejects_.add(1);
      fail(request.promise, std::make_exception_ptr(ServerStopped()));
      break;
  }
  return ticket;
}

void ExtDictServer::worker_loop() {
  for (;;) {
    std::vector<Request> batch;
    {
      util::TraceScope collect("serve.batch.collect");
      auto first = queue_.pop();
      if (!first.has_value()) {
        collect.set_end_arg("columns", 0);
        return;  // closed and drained
      }
      // Depth/in-flight transition tracked at the pop itself (not sampled):
      // a popped request leaves the queue and is in flight until its promise
      // resolves in encode_batch.
      queue_depth_gauge_.sub(1);
      inflight_gauge_.add(1);
      util::TraceRecorder::global().instant("serve.request.dequeue", "req",
                                            first->id);
      batch.push_back(std::move(*first));
      if (config_.max_batch > 1) {
        const auto deadline = Clock::now() + std::chrono::microseconds(
                                                 config_.max_delay_us);
        while (static_cast<Index>(batch.size()) < config_.max_batch) {
          auto next = queue_.pop_until(deadline);
          if (!next.has_value()) break;  // flush: timeout (or drained)
          queue_depth_gauge_.sub(1);
          inflight_gauge_.add(1);
          util::TraceRecorder::global().instant("serve.request.dequeue", "req",
                                                next->id);
          batch.push_back(std::move(*next));
        }
      }
      collect.set_end_arg("columns", batch.size());
    }
    encode_batch(batch);
  }
}

void ExtDictServer::encode_batch(std::vector<Request>& batch) {
  const util::GaugeGuard busy(busy_workers_gauge_);
  const Index columns = static_cast<Index>(batch.size());
  const auto flush_at = Clock::now();

  // Queue wait ends at batch flush, shared by every column of the batch.
  std::vector<double> queue_seconds(batch.size());
  std::uint64_t queue_us_total = 0;
  for (std::size_t i = 0; i < batch.size(); ++i) {
    queue_seconds[i] = seconds_between(batch[i].submitted_at, flush_at);
    queue_us_total += static_cast<std::uint64_t>(queue_seconds[i] * 1e6);
  }

  util::TraceScope trace("serve.batch.encode", "columns",
                         static_cast<std::uint64_t>(columns));
  trace.set_end_arg("queue_us", queue_us_total);

  // Pin one epoch for the whole batch: an extension published mid-batch
  // takes effect from the next batch, and this shared_ptr keeps the pinned
  // epoch's dictionary/Gram alive until the batch drains.
  const std::shared_ptr<const DictEpoch> epoch = registry_->current();

  std::vector<sparsecoding::SparseCode> codes(batch.size());
  std::vector<std::exception_ptr> errors(batch.size());
  std::vector<double> column_seconds(batch.size());
  // extdict-lint: allow(per-column-encode-loop) per-request stopping rules and per-column failures; one block product per micro-batch is ROADMAP item 2's server part
#pragma omp parallel for schedule(dynamic, 1) default(none) \
    shared(batch, codes, errors, column_seconds, columns, epoch) if (columns > 1)
  for (Index j = 0; j < columns; ++j) {
    const auto i = static_cast<std::size_t>(j);
    const auto started = Clock::now();
    try {
      codes[i] = epoch->coder.encode(batch[i].signal,
                                     effective_config(batch[i].options));
    } catch (...) {
      // E.g. a non-finite signal tripping EXTDICT_CHECK_FINITE in a checked
      // build: the error belongs to this request's future, not the worker.
      errors[i] = std::current_exception();
    }
    column_seconds[i] = seconds_between(started, Clock::now());
  }
  const double encode_s = seconds_between(flush_at, Clock::now());

  batches_.add(1);
  columns_encoded_.add(static_cast<std::uint64_t>(columns));
  std::uint64_t seen = max_batch_columns_.load(std::memory_order_relaxed);
  while (seen < static_cast<std::uint64_t>(columns) &&
         !max_batch_columns_.compare_exchange_weak(
             seen, static_cast<std::uint64_t>(columns),
             std::memory_order_relaxed)) {
  }

  for (std::size_t i = 0; i < batch.size(); ++i) {
    queue_latency_.observe(queue_seconds[i]);
    encode_latency_.observe(column_seconds[i]);
    batch_encode_latency_.observe(encode_s);
    total_latency_.observe(queue_seconds[i] + encode_s);
    util::TraceRecorder::global().instant("serve.request.resolve", "req",
                                          batch[i].id);
    if (errors[i]) {
      encode_failed_.add(1);
      inflight_gauge_.sub(1);
      fail(batch[i].promise, std::move(errors[i]));
      continue;
    }
    if (cache_) {
      // Keyed by the PINNED epoch: the code is only valid against the
      // dictionary that produced it. If an extension flipped mid-batch the
      // entry is immediately stale for new lookups — correct, not a leak.
      EncodeCacheKey key;
      key.signal = std::move(batch[i].signal);  // request is done with it
      key.dict_epoch = epoch->id;
      const sparsecoding::OmpConfig effective =
          effective_config(batch[i].options);
      key.tolerance = effective.tolerance;
      key.max_atoms = effective.max_atoms;
      cache_->insert(key, codes[i]);
    }
    EncodeResult result;
    result.code = std::move(codes[i]);
    result.request_id = batch[i].id;
    result.batch_columns = columns;
    result.queue_seconds = queue_seconds[i];
    result.encode_seconds = encode_s;
    result.dict_epoch = epoch->id;
    served_.add(1);
    inflight_gauge_.sub(1);
    batch[i].promise.set_value(std::move(result));
  }
}

void ExtDictServer::stop(StopMode mode) {
  const util::MutexLock lock(stop_mu_);
  if (stopped_) return;
  accepting_.store(false, std::memory_order_relaxed);
  if (mode == StopMode::kDrain) {
    queue_.close();
  } else {
    auto leftovers = queue_.close_and_drain();
    for (auto& request : leftovers) {
      discarded_.add(1);
      queue_depth_gauge_.sub(1);  // discarded requests leave the queue too
      fail(request.promise, std::make_exception_ptr(ServerStopped()));
    }
  }
  // Joining under stop_mu_ is the shutdown contract: concurrent stop() calls
  // (and the destructor racing an explicit stop) must all return only after
  // every worker has exited. Workers never touch stop_mu_, so this cannot
  // deadlock — it only serializes the stoppers.
  // extdict-analyze: allow(blocking-while-locked) shutdown join, by contract
  for (auto& worker : workers_) worker.join();
  stopped_ = true;
}

ServerStats ExtDictServer::stats() const noexcept {
  ServerStats s;
  s.submitted = submitted_.value();
  s.invalid = invalid_.value();
  s.rejected = rejected_.value();
  s.stopped = stopped_rejects_.value();
  s.cache_hits = cache_hits_.value();
  s.accepted = accepted_.value();
  s.shed = shed_.value();
  s.discarded = discarded_.value();
  s.served = served_.value();
  s.encode_failed = encode_failed_.value();
  s.batches = batches_.value();
  s.columns_encoded = columns_encoded_.value();
  s.max_batch_columns = max_batch_columns_.load(std::memory_order_relaxed);
  return s;
}

}  // namespace extdict::serve
