// ExtDictServer contracts: served codes match direct Batch-OMP, per-request
// stopping rules are honored, malformed signals fail their own future (never
// the server), backpressure policies reject/shed deterministically, and both
// stop modes resolve every outstanding future.

#include "serve/server.hpp"

#include <gtest/gtest.h>

#include <chrono>
#include <cmath>
#include <future>
#include <limits>
#include <thread>
#include <vector>

#include "la/random.hpp"
#include "util/contracts.hpp"
#include "util/metrics.hpp"

namespace extdict::serve {
namespace {

using la::Matrix;
using la::Rng;
using la::Vector;
using sparsecoding::BatchOmp;
using sparsecoding::OmpConfig;
using sparsecoding::SparseCode;
using namespace std::chrono_literals;

Matrix test_dictionary(Index m, Index l, unsigned seed = 7) {
  Rng rng(seed);
  return rng.gaussian_matrix(m, l, true);
}

std::vector<Vector> test_signals(Index m, int count, unsigned seed = 11) {
  Rng rng(seed);
  std::vector<Vector> signals;
  signals.reserve(static_cast<std::size_t>(count));
  for (int i = 0; i < count; ++i) {
    Vector x(m);
    rng.fill_gaussian(x);
    signals.push_back(std::move(x));
  }
  return signals;
}

void expect_codes_equal(const SparseCode& got, const SparseCode& want) {
  ASSERT_EQ(got.entries.size(), want.entries.size());
  for (std::size_t k = 0; k < got.entries.size(); ++k) {
    EXPECT_EQ(got.entries[k].first, want.entries[k].first);
    EXPECT_NEAR(got.entries[k].second, want.entries[k].second, 1e-12);
  }
  EXPECT_NEAR(got.residual_norm, want.residual_norm, 1e-12);
}

void expect_accounting_identities(const ServerStats& s) {
  EXPECT_EQ(s.submitted,
            s.accepted + s.invalid + s.rejected + s.stopped + s.cache_hits);
  EXPECT_EQ(s.accepted, s.served + s.encode_failed + s.shed + s.discarded);
  EXPECT_EQ(s.columns_encoded, s.served + s.encode_failed);
}

TEST(ExtDictServer, ServedCodesMatchDirectBatchOmp) {
  const Index m = 24, l = 48;
  Matrix dict = test_dictionary(m, l);
  const OmpConfig omp{.tolerance = 0.1};
  BatchOmp direct(dict, omp);

  ExtDictServer server(dict, {.max_batch = 8,
                              .max_delay_us = 2000,
                              .workers = 2,
                              .omp = omp});
  const auto signals = test_signals(m, 40);
  std::vector<std::future<EncodeResult>> futures;
  futures.reserve(signals.size());
  for (const auto& x : signals) futures.push_back(server.submit(x));

  for (std::size_t i = 0; i < signals.size(); ++i) {
    const EncodeResult result = futures[i].get();
    expect_codes_equal(result.code, direct.encode(signals[i]));
    EXPECT_GE(result.batch_columns, 1);
    EXPECT_GE(result.queue_seconds, 0.0);
    EXPECT_GE(result.encode_seconds, 0.0);
  }
  server.stop();
  const ServerStats s = server.stats();
  EXPECT_EQ(s.submitted, signals.size());
  EXPECT_EQ(s.served, signals.size());
  expect_accounting_identities(s);
}

TEST(ExtDictServer, PerRequestStoppingRulesAreHonored) {
  const Index m = 24, l = 48;
  Matrix dict = test_dictionary(m, l);
  const OmpConfig loose{.tolerance = 0.5};
  ExtDictServer server(dict, {.max_batch = 4, .workers = 1, .omp = loose});
  BatchOmp reference(dict, loose);
  const auto signals = test_signals(m, 6);

  // Tighter ε than the server default → more atoms, smaller residual.
  const EncodeOptions tight_eps{.tolerance = 0.05};
  // Hard sparsity cap overriding the default rule.
  const EncodeOptions capped{.tolerance = 0.0, .max_atoms = 3};

  for (const auto& x : signals) {
    const SparseCode via_eps = server.submit(x, tight_eps).get().code;
    expect_codes_equal(via_eps,
                       reference.encode(x, {.tolerance = 0.05}));

    const SparseCode via_cap = server.submit(x, capped).get().code;
    EXPECT_LE(via_cap.nnz(), 3);
    expect_codes_equal(
        via_cap, reference.encode(x, {.tolerance = 0.0, .max_atoms = 3}));

    // Defaulted options reproduce the server-wide rule exactly.
    expect_codes_equal(server.submit(x).get().code, reference.encode(x));
  }
}

TEST(ExtDictServer, MicroBatchesFormUnderConcurrentSubmission) {
  const Index m = 16, l = 32;
  ExtDictServer server(test_dictionary(m, l),
                       {.max_batch = 32,
                        .max_delay_us = 200000,  // generous: no flaky flushes
                        .workers = 1, .omp = {}});
  const auto signals = test_signals(m, 16);
  std::vector<std::future<EncodeResult>> futures;
  for (const auto& x : signals) futures.push_back(server.submit(x));
  Index widest = 0;
  for (auto& f : futures) widest = std::max(widest, f.get().batch_columns);
  // All 16 arrive well inside the 200ms window after the worker picks up the
  // first, so at least one multi-column batch must have formed.
  EXPECT_GE(widest, 2);
  server.stop();
  EXPECT_EQ(server.stats().max_batch_columns,
            static_cast<std::uint64_t>(widest));
  EXPECT_LT(server.stats().batches, 16u);
}

TEST(ExtDictServer, MalformedSignalsFailTheirOwnFutureOnly) {
  const Index m = 16, l = 32;
  ExtDictServer server(test_dictionary(m, l), {.max_batch = 4, .workers = 1, .omp = {}});

  const std::vector<Real> empty;
  EXPECT_THROW(server.submit(empty).get(), InvalidRequest);
  const std::vector<Real> wrong_m(static_cast<std::size_t>(m) + 3, 0.5);
  EXPECT_THROW(server.submit(wrong_m).get(), InvalidRequest);

  // The server keeps serving valid requests afterwards.
  const auto signals = test_signals(m, 4);
  for (const auto& x : signals) {
    EXPECT_NO_THROW(server.submit(x).get());
  }
  server.stop();
  const ServerStats s = server.stats();
  EXPECT_EQ(s.invalid, 2u);
  EXPECT_EQ(s.served, 4u);
  expect_accounting_identities(s);
}

TEST(ExtDictServer, NonFiniteSignalFailsItsFutureInCheckedBuilds) {
  if (!util::checks_enabled()) {
    GTEST_SKIP() << "EXTDICT_CHECKS off: finite-entry contract not armed";
  }
  const Index m = 16, l = 32;
  ExtDictServer server(test_dictionary(m, l), {.max_batch = 2, .workers = 1, .omp = {}});
  std::vector<Real> bad(static_cast<std::size_t>(m), 1.0);
  bad[3] = std::numeric_limits<Real>::quiet_NaN();
  EXPECT_THROW(server.submit(bad).get(), util::ContractViolation);
  // The worker survived the throw and still serves.
  const auto signals = test_signals(m, 2);
  for (const auto& x : signals) EXPECT_NO_THROW(server.submit(x).get());
  server.stop();
  const ServerStats s = server.stats();
  EXPECT_EQ(s.encode_failed, 1u);
  expect_accounting_identities(s);
}

// A workload whose first request occupies the single worker long enough to
// deterministically fill the tiny queue behind it: ε = 0 on a gaussian
// signal never converges, so Batch-OMP runs all min(M, L) iterations.
class BackpressureFixture : public ::testing::Test {
 protected:
  static constexpr Index kM = 256;
  static constexpr Index kL = 384;

  ServerConfig slow_config(BackpressurePolicy policy) const {
    return {.max_batch = 1,
            .workers = 1,
            .queue_capacity = 2,
            .backpressure = policy,
            .omp = {.tolerance = 0.0}};
  }
};

TEST_F(BackpressureFixture, RejectPolicyFailsOverflowFutures) {
  ExtDictServer server(test_dictionary(kM, kL),
                       slow_config(BackpressurePolicy::kReject));
  const auto signals = test_signals(kM, 8);
  std::vector<std::future<EncodeResult>> futures;
  // First request is picked up by the worker; the next two fill the queue;
  // later ones race the (slow) first encode and mostly reject.
  for (const auto& x : signals) futures.push_back(server.submit(x));

  std::uint64_t served = 0, rejected = 0;
  for (auto& f : futures) {
    try {
      (void)f.get();
      ++served;
    } catch (const RequestRejected&) {
      ++rejected;
    }
  }
  server.stop();
  const ServerStats s = server.stats();
  EXPECT_EQ(served + rejected, signals.size());
  EXPECT_EQ(s.served, served);
  EXPECT_EQ(s.rejected, rejected);
  EXPECT_GE(rejected, 1u);  // capacity 2 + 1 in flight < 8 submitted
  expect_accounting_identities(s);
}

TEST_F(BackpressureFixture, ShedOldestEvictsQueuedFutures) {
  ExtDictServer server(test_dictionary(kM, kL),
                       slow_config(BackpressurePolicy::kShedOldest));
  const auto signals = test_signals(kM, 8);
  std::vector<std::future<EncodeResult>> futures;
  for (const auto& x : signals) futures.push_back(server.submit(x));

  std::uint64_t served = 0, shed = 0;
  for (auto& f : futures) {
    try {
      (void)f.get();
      ++served;
    } catch (const RequestShed&) {
      ++shed;
    }
  }
  server.stop();
  const ServerStats s = server.stats();
  EXPECT_EQ(served + shed, signals.size());
  EXPECT_EQ(s.accepted, signals.size());  // shed requests were accepted first
  EXPECT_EQ(s.shed, shed);
  EXPECT_GE(shed, 1u);
  expect_accounting_identities(s);
}

TEST_F(BackpressureFixture, DrainStopServesEverythingQueued) {
  ExtDictServer server(test_dictionary(kM, kL),
                       slow_config(BackpressurePolicy::kBlock));
  const auto signals = test_signals(kM, 3);
  std::vector<std::future<EncodeResult>> futures;
  for (const auto& x : signals) futures.push_back(server.submit(x));
  server.stop(StopMode::kDrain);  // in-flight + 2 queued all get served
  for (auto& f : futures) EXPECT_NO_THROW((void)f.get());
  const ServerStats s = server.stats();
  EXPECT_EQ(s.served, signals.size());
  expect_accounting_identities(s);
}

TEST_F(BackpressureFixture, DiscardStopFailsQueuedDeterministically) {
  ExtDictServer server(test_dictionary(kM, kL),
                       slow_config(BackpressurePolicy::kBlock));
  const auto signals = test_signals(kM, 3);
  std::vector<std::future<EncodeResult>> futures;
  for (const auto& x : signals) futures.push_back(server.submit(x));
  server.stop(StopMode::kDiscard);
  std::uint64_t served = 0, discarded = 0;
  for (auto& f : futures) {
    try {
      (void)f.get();
      ++served;
    } catch (const ServerStopped&) {
      ++discarded;
    }
  }
  const ServerStats s = server.stats();
  EXPECT_EQ(served + discarded, signals.size());
  EXPECT_EQ(s.served, served);
  EXPECT_EQ(s.discarded, discarded);
  expect_accounting_identities(s);
}

TEST(ExtDictServer, SubmitAfterStopResolvesWithServerStopped) {
  const Index m = 16, l = 32;
  ExtDictServer server(test_dictionary(m, l), {.workers = 1, .omp = {}});
  server.stop();
  EXPECT_FALSE(server.accepting());
  const auto signals = test_signals(m, 1);
  EXPECT_THROW(server.submit(signals[0]).get(), ServerStopped);
  const ServerStats s = server.stats();
  EXPECT_EQ(s.stopped, 1u);
  expect_accounting_identities(s);
}

TEST(ExtDictServer, StopIsIdempotentAcrossModes) {
  ExtDictServer server(test_dictionary(16, 32), {.workers = 2, .omp = {}});
  server.stop(StopMode::kDrain);
  server.stop(StopMode::kDiscard);  // no-op: already stopped
  server.stop(StopMode::kDrain);
  SUCCEED();
}

TEST(ExtDictServer, DestructorDrainsOutstandingFutures) {
  const Index m = 16, l = 32;
  const auto signals = test_signals(m, 12);
  std::vector<std::future<EncodeResult>> futures;
  {
    ExtDictServer server(test_dictionary(m, l),
                         {.max_batch = 4, .workers = 2, .omp = {}});
    for (const auto& x : signals) futures.push_back(server.submit(x));
  }  // destructor == stop(kDrain)
  for (auto& f : futures) EXPECT_NO_THROW((void)f.get());
}

TEST(ExtDictServer, ConfigClampsDegenerateValues) {
  ExtDictServer server(test_dictionary(8, 16),
                       {.max_batch = 0, .workers = 0, .queue_capacity = 0, .omp = {}});
  EXPECT_EQ(server.config().max_batch, 1);
  EXPECT_EQ(server.config().workers, 1);
  const auto signals = test_signals(8, 3);
  for (const auto& x : signals) EXPECT_NO_THROW(server.submit(x).get());
}

TEST(ExtDictServer, LatencyHistogramsLandInGlobalRegistry) {
  util::MetricsRegistry& metrics = util::MetricsRegistry::global();
  metrics.set_enabled(true);
  const std::uint64_t before =
      metrics.histogram("serve.latency.total_seconds").count();
  const Index m = 16, l = 32;
  ExtDictServer server(test_dictionary(m, l), {.max_batch = 4, .workers = 1, .omp = {}});
  const auto signals = test_signals(m, 5);
  for (const auto& x : signals) (void)server.submit(x).get();
  server.stop();
  EXPECT_EQ(metrics.histogram("serve.latency.total_seconds").count(),
            before + signals.size());
}

TEST(ExtDictServer, EncodeLatencyIsPerColumnAndBatchWindowIsSeparate) {
  // serve.latency.encode_seconds is each column's own encode time, inside
  // its batch's window; serve.latency.batch_encode_seconds is that window,
  // once per column, and equals what EncodeResult::encode_seconds reports.
  util::MetricsRegistry& metrics = util::MetricsRegistry::global();
  metrics.set_enabled(true);
  const auto& encode = metrics.histogram("serve.latency.encode_seconds");
  const auto& window = metrics.histogram("serve.latency.batch_encode_seconds");
  const std::uint64_t encode_count = encode.count();
  const std::uint64_t window_count = window.count();
  const double encode_sum = encode.sum();
  const double window_sum = window.sum();

  const Index m = 16, l = 32;
  ExtDictServer server(test_dictionary(m, l),
                       {.max_batch = 8, .max_delay_us = 2000, .workers = 1, .omp = {}});
  const auto signals = test_signals(m, 24);
  std::vector<std::future<EncodeResult>> futures;
  for (const auto& x : signals) futures.push_back(server.submit(x));
  double reported = 0;
  for (auto& f : futures) reported += f.get().encode_seconds;
  server.stop();

  EXPECT_EQ(encode.count(), encode_count + signals.size());
  EXPECT_EQ(window.count(), window_count + signals.size());
  EXPECT_LE(encode.sum() - encode_sum, window.sum() - window_sum);
  EXPECT_NEAR(window.sum() - window_sum, reported, 1e-9);
}

TEST(ExtDictServer, GaugesDrainToTheirPriorLevels) {
  // Queue depth, in-flight, busy workers, and cache occupancy are tracked
  // levels (every + has a -), so a drained-and-destroyed server returns
  // each gauge to exactly where it found it — even when other tests' live
  // servers share the process-wide names.
  util::MetricsRegistry& metrics = util::MetricsRegistry::global();
  metrics.set_enabled(true);
  const std::int64_t depth_before = metrics.gauge("serve.queue.depth").value();
  const std::int64_t inflight_before = metrics.gauge("serve.inflight").value();
  const std::int64_t busy_before = metrics.gauge("serve.workers.busy").value();
  const std::int64_t entries_before =
      metrics.gauge("serve.cache.entries").value();
  const std::int64_t bytes_before =
      metrics.gauge("serve.cache.resident_bytes").value();

  const Index m = 16, l = 32;
  {
    ExtDictServer server(test_dictionary(m, l),
                         {.max_batch = 4,
                          .workers = 2,
                          .omp = {},
                          .cache_capacity = 64});
    const auto signals = test_signals(m, 24);
    std::vector<std::future<EncodeResult>> futures;
    futures.reserve(signals.size());
    for (const auto& x : signals) futures.push_back(server.submit(x));
    for (auto& f : futures) (void)f.get();

    // While the cache is live its occupancy gauges carry the entries.
    EXPECT_EQ(metrics.gauge("serve.cache.entries").value(),
              entries_before +
                  static_cast<std::int64_t>(server.cache_stats().entries));
    server.stop();
    EXPECT_EQ(metrics.gauge("serve.queue.depth").value(), depth_before);
    EXPECT_EQ(metrics.gauge("serve.inflight").value(), inflight_before);
    EXPECT_EQ(metrics.gauge("serve.workers.busy").value(), busy_before);
  }
  // Destruction returns the cache occupancy too.
  EXPECT_EQ(metrics.gauge("serve.cache.entries").value(), entries_before);
  EXPECT_EQ(metrics.gauge("serve.cache.resident_bytes").value(), bytes_before);
}

TEST(ExtDictServer, DiscardedRequestsLeaveTheDepthGauge) {
  util::MetricsRegistry& metrics = util::MetricsRegistry::global();
  metrics.set_enabled(true);
  const std::int64_t depth_before = metrics.gauge("serve.queue.depth").value();
  const Index m = 16, l = 32;
  ExtDictServer server(test_dictionary(m, l),
                       {.max_batch = 1,
                        .max_delay_us = 200000,
                        .workers = 1,
                        .queue_capacity = 64,
                        .omp = {}});
  const auto signals = test_signals(m, 32);
  std::vector<std::future<EncodeResult>> futures;
  futures.reserve(signals.size());
  for (const auto& x : signals) futures.push_back(server.submit(x));
  server.stop(StopMode::kDiscard);
  for (auto& f : futures) {
    try {
      (void)f.get();
    } catch (const ServerStopped&) {
      // discarded — expected for whatever was still queued
    }
  }
  const ServerStats s = server.stats();
  expect_accounting_identities(s);
  // Whether served or discarded, every accepted request left the queue.
  EXPECT_EQ(metrics.gauge("serve.queue.depth").value(), depth_before);
}

}  // namespace
}  // namespace extdict::serve
