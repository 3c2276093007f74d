// Serving-layer race hunt, designed for the tsan preset (alongside
// tsan_stress_test): many producer threads hammer a small queue under every
// backpressure policy, stops race in-flight submissions, and the monotone
// accounting identities must balance exactly — a lost or double-resolved
// future shows up as a mismatch even when TSan is not watching.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <future>
#include <memory>
#include <thread>
#include <vector>

#include "la/random.hpp"
#include "serve/server.hpp"

namespace extdict::serve {
namespace {

using la::Matrix;
using la::Rng;
using la::Vector;
using namespace std::chrono_literals;

constexpr Index kM = 16;
constexpr Index kL = 32;
constexpr int kProducers = 6;
constexpr int kRequestsPerProducer = 40;

struct Outcomes {
  std::atomic<std::uint64_t> served{0};
  std::atomic<std::uint64_t> rejected{0};
  std::atomic<std::uint64_t> shed{0};
  std::atomic<std::uint64_t> stopped{0};
  std::atomic<std::uint64_t> invalid{0};
  std::atomic<std::uint64_t> failed{0};
  std::atomic<std::uint64_t> unresolved{0};

  std::uint64_t total() const {
    return served + rejected + shed + stopped + invalid + failed;
  }
};

void resolve(std::future<EncodeResult> future, Outcomes& out) {
  try {
    (void)future.get();
    out.served.fetch_add(1);
  } catch (const RequestRejected&) {
    out.rejected.fetch_add(1);
  } catch (const RequestShed&) {
    out.shed.fetch_add(1);
  } catch (const ServerStopped&) {
    out.stopped.fetch_add(1);
  } catch (const InvalidRequest&) {
    out.invalid.fetch_add(1);
  } catch (...) {
    out.failed.fetch_add(1);
  }
}

void hammer(ExtDictServer& server, Outcomes& out, unsigned seed) {
  Rng rng(seed);
  Vector signal(kM);
  for (int i = 0; i < kRequestsPerProducer; ++i) {
    rng.fill_gaussian(signal);
    auto future = server.submit(signal);
    if (future.wait_for(5s) != std::future_status::ready) {
      out.unresolved.fetch_add(1);
      continue;
    }
    resolve(std::move(future), out);
  }
}

void run_policy_storm(BackpressurePolicy policy) {
  Rng rng(21);
  ExtDictServer server(rng.gaussian_matrix(kM, kL, true),
                       {.max_batch = 8,
                        .max_delay_us = 100,
                        .workers = 2,
                        .queue_capacity = 4,
                        .backpressure = policy, .omp = {}});
  Outcomes out;
  std::vector<std::thread> producers;
  for (int p = 0; p < kProducers; ++p) {
    producers.emplace_back(
        [&server, &out, p] { hammer(server, out, 100u + static_cast<unsigned>(p)); });
  }
  for (auto& t : producers) t.join();
  server.stop();

  constexpr std::uint64_t kTotal =
      static_cast<std::uint64_t>(kProducers) * kRequestsPerProducer;
  EXPECT_EQ(out.unresolved.load(), 0u);
  EXPECT_EQ(out.total(), kTotal);
  const ServerStats s = server.stats();
  EXPECT_EQ(s.submitted, kTotal);
  EXPECT_EQ(s.submitted,
            s.accepted + s.invalid + s.rejected + s.stopped + s.cache_hits);
  EXPECT_EQ(s.accepted, s.served + s.encode_failed + s.shed + s.discarded);
  EXPECT_EQ(s.columns_encoded, s.served + s.encode_failed);
  EXPECT_EQ(s.served, out.served.load());
  EXPECT_EQ(s.rejected, out.rejected.load());
  EXPECT_EQ(s.shed, out.shed.load());
}

TEST(ServeStress, BlockPolicyStorm) {
  run_policy_storm(BackpressurePolicy::kBlock);
}

TEST(ServeStress, RejectPolicyStorm) {
  run_policy_storm(BackpressurePolicy::kReject);
}

TEST(ServeStress, ShedOldestPolicyStorm) {
  run_policy_storm(BackpressurePolicy::kShedOldest);
}

// Producers fire-and-collect while the main thread stops the server mid-storm.
// Every future must still resolve (value or a documented serve error), and the
// books must balance whichever instant the stop landed.
void run_stop_race(StopMode mode) {
  Rng rng(22);
  ExtDictServer server(rng.gaussian_matrix(kM, kL, true),
                       {.max_batch = 4,
                        .max_delay_us = 200,
                        .workers = 2,
                        .queue_capacity = 8,
                        .backpressure = BackpressurePolicy::kReject, .omp = {}});
  Outcomes out;
  std::atomic<std::uint64_t> submitted{0};
  std::vector<std::thread> producers;
  for (int p = 0; p < kProducers; ++p) {
    producers.emplace_back([&, p] {
      Rng local(200u + static_cast<unsigned>(p));
      Vector signal(kM);
      for (int i = 0; i < kRequestsPerProducer; ++i) {
        local.fill_gaussian(signal);
        auto future = server.submit(signal);
        submitted.fetch_add(1);
        if (future.wait_for(5s) != std::future_status::ready) {
          out.unresolved.fetch_add(1);
          continue;
        }
        resolve(std::move(future), out);
      }
    });
  }
  std::this_thread::sleep_for(2ms);
  server.stop(mode);
  for (auto& t : producers) t.join();

  EXPECT_EQ(out.unresolved.load(), 0u);
  EXPECT_EQ(out.total(), submitted.load());
  const ServerStats s = server.stats();
  EXPECT_EQ(s.submitted, submitted.load());
  EXPECT_EQ(s.submitted,
            s.accepted + s.invalid + s.rejected + s.stopped + s.cache_hits);
  EXPECT_EQ(s.accepted, s.served + s.encode_failed + s.shed + s.discarded);
  if (mode == StopMode::kDrain) {
    EXPECT_EQ(s.discarded, 0u);
  }
  // Post-stop, out.stopped aggregates ServerStopped from both refused
  // submissions and (under kDiscard) discarded queue entries.
  EXPECT_EQ(out.stopped.load(), s.stopped + s.discarded);
}

TEST(ServeStress, DrainStopRacesProducers) { run_stop_race(StopMode::kDrain); }

TEST(ServeStress, DiscardStopRacesProducers) {
  run_stop_race(StopMode::kDiscard);
}

// Epoch flips under full concurrent load: producers hammer a cached server
// drawing from a small signal pool (so hits and misses interleave) while a
// flipper thread extends the registry repeatedly. Every future resolves,
// every accounting identity balances at the end, epochs observed by served
// results are monotone within each producer, and old epochs drain.
TEST(ServeStress, EpochFlipsUnderLoadKeepIdentities) {
  Rng rng(24);
  const Matrix dict = rng.gaussian_matrix(kM, kL, true);
  auto registry = std::make_shared<DictRegistry>(
      dict, sparsecoding::OmpConfig{.tolerance = 0.0, .max_atoms = 4});
  ExtDictServer server(registry, {.max_batch = 8,
                                  .max_delay_us = 100,
                                  .workers = 2,
                                  .queue_capacity = 32,
                                  .omp = {.tolerance = 0.0, .max_atoms = 4},
                                  .cache_capacity = 64});

  // Small shared pool → plenty of bit-identical resubmissions (cache
  // traffic) racing the flips.
  std::vector<Vector> pool(8, Vector(kM));
  {
    Rng pool_rng(25);
    for (auto& signal : pool) pool_rng.fill_gaussian(signal);
  }

  constexpr int kFlips = 4;
  Outcomes out;
  std::atomic<bool> max_epoch_regressed{false};
  std::vector<std::thread> producers;
  for (int p = 0; p < kProducers; ++p) {
    producers.emplace_back([&, p] {
      std::uint64_t last_epoch = 0;
      for (int i = 0; i < kRequestsPerProducer; ++i) {
        auto future = server.submit(
            pool[static_cast<std::size_t>(p + i) % pool.size()]);
        if (future.wait_for(5s) != std::future_status::ready) {
          out.unresolved.fetch_add(1);
          continue;
        }
        try {
          const EncodeResult result = future.get();
          // A producer's observed epoch may lag the registry (pinned
          // batches, cached codes) but must never run backwards.
          if (result.dict_epoch < last_epoch) max_epoch_regressed = true;
          last_epoch = std::max(last_epoch, result.dict_epoch);
          out.served.fetch_add(1);
        } catch (const ServeError&) {
          out.stopped.fetch_add(1);
        } catch (...) {
          out.failed.fetch_add(1);
        }
      }
    });
  }
  std::thread flipper([&] {
    Rng flip_rng(26);
    for (int f = 0; f < kFlips; ++f) {
      std::this_thread::sleep_for(1ms);
      registry->extend(flip_rng.gaussian_matrix(kM, 2, true));
    }
  });
  flipper.join();
  for (auto& t : producers) t.join();
  server.stop();

  constexpr std::uint64_t kTotal =
      static_cast<std::uint64_t>(kProducers) * kRequestsPerProducer;
  EXPECT_EQ(out.unresolved.load(), 0u);
  EXPECT_EQ(out.failed.load(), 0u);
  EXPECT_EQ(out.total(), kTotal);
  EXPECT_FALSE(max_epoch_regressed.load());
  EXPECT_EQ(registry->current_epoch(), static_cast<std::uint64_t>(kFlips));
  EXPECT_EQ(registry->atom_count(), kL + 2 * kFlips);

  const ServerStats s = server.stats();
  EXPECT_EQ(s.submitted, kTotal);
  EXPECT_EQ(s.submitted,
            s.accepted + s.invalid + s.rejected + s.stopped + s.cache_hits);
  EXPECT_EQ(s.accepted, s.served + s.encode_failed + s.shed + s.discarded);
  EXPECT_EQ(s.columns_encoded, s.served + s.encode_failed);
  EXPECT_EQ(s.served + s.cache_hits, out.served.load());
  EXPECT_EQ(s.encode_failed, 0u);

  // The cache's own books: every lookup is a hit or a miss, and with the
  // server stopped no batch pins a retired epoch, so only the serving one
  // is alive.
  const EncodeCacheStats c = server.cache_stats();
  EXPECT_EQ(c.hits, s.cache_hits);
  EXPECT_EQ(c.hits + c.misses, s.submitted);
  EXPECT_EQ(registry->live_epochs(), 1u);
}

// Concurrent stop() calls from several threads while producers run: stop is
// idempotent and serializing, nothing deadlocks, everything resolves.
TEST(ServeStress, ConcurrentStopsSerialize) {
  Rng rng(23);
  ExtDictServer server(rng.gaussian_matrix(kM, kL, true),
                       {.max_batch = 4,
                        .workers = 2,
                        .queue_capacity = 8,
                        .backpressure = BackpressurePolicy::kReject, .omp = {}});
  Outcomes out;
  std::vector<std::thread> producers;
  for (int p = 0; p < 3; ++p) {
    producers.emplace_back(
        [&server, &out, p] { hammer(server, out, 300u + static_cast<unsigned>(p)); });
  }
  std::vector<std::thread> stoppers;
  for (int t = 0; t < 3; ++t) {
    stoppers.emplace_back([&server] {
      std::this_thread::sleep_for(1ms);
      server.stop(StopMode::kDrain);
    });
  }
  for (auto& t : stoppers) t.join();
  for (auto& t : producers) t.join();
  EXPECT_FALSE(server.accepting());
  EXPECT_EQ(out.unresolved.load(), 0u);
  const ServerStats s = server.stats();
  EXPECT_EQ(s.submitted,
            s.accepted + s.invalid + s.rejected + s.stopped + s.cache_hits);
  EXPECT_EQ(s.accepted, s.served + s.encode_failed + s.shed + s.discarded);
}

}  // namespace
}  // namespace extdict::serve
