// TelemetrySnapshotter contracts: the JSONL stream is schema-stable and
// parseable line by line, seq is contiguous from 0, wall_ms never runs
// backwards, stop() writes one final sample and is idempotent, the
// exporter runs clean alongside concurrent metric writers (TSan covers
// this test like every other), and a live server's snapshots reconcile
// with its accounting across an epoch flip.

#include "util/telemetry.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <future>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "la/random.hpp"
#include "serve/server.hpp"
#include "util/json.hpp"
#include "util/metrics.hpp"

namespace extdict::util {
namespace {

// Unique temp path per test; removed on destruction so reruns start clean.
class TempFile {
 public:
  explicit TempFile(const std::string& tag)
      : path_(std::string(::testing::TempDir()) + "extdict_telemetry_" + tag +
              ".jsonl") {
    std::remove(path_.c_str());
  }
  ~TempFile() { std::remove(path_.c_str()); }
  [[nodiscard]] const std::string& path() const { return path_; }

 private:
  std::string path_;
};

std::vector<Json> read_records(const std::string& path) {
  std::vector<Json> records;
  std::ifstream in(path);
  std::string line;
  while (std::getline(in, line)) {
    if (!line.empty()) records.push_back(Json::parse(line));
  }
  return records;
}

TEST(TelemetrySnapshotter, WritesParseableOrderedRecords) {
  using namespace std::chrono_literals;
  const TempFile file("ordered");
  MetricsRegistry registry;
  registry.add("pass.counter", 7);
  registry.gauge("pass.level").set(3);
  registry.observe("pass.lat", 1e-3);
  {
    TelemetrySnapshotter snapshotter(registry, file.path(),
                                     TelemetryOptions{.period_ms = 5});
    EXPECT_TRUE(snapshotter.ok());
    while (snapshotter.snapshots_written() < 3) {
      std::this_thread::sleep_for(1ms);
    }
    snapshotter.stop();
    const std::uint64_t written = snapshotter.snapshots_written();
    EXPECT_GE(written, 3u);
    snapshotter.stop();  // idempotent: no crash, no extra records
    EXPECT_EQ(snapshotter.snapshots_written(), written);
  }

  const std::vector<Json> records = read_records(file.path());
  ASSERT_GE(records.size(), 3u);
  double last_wall = -1.0;
  for (std::size_t i = 0; i < records.size(); ++i) {
    const Json& record = records[i];
    EXPECT_EQ(record.at("seq").as_u64(), i);
    EXPECT_GE(record.at("wall_ms").as_double(), last_wall);
    last_wall = record.at("wall_ms").as_double();
    // Schema-stable, insertion-ordered record shape.
    const auto& members = record.as_object();
    ASSERT_EQ(members.size(), 5u);
    EXPECT_EQ(members[0].first, "seq");
    EXPECT_EQ(members[1].first, "wall_ms");
    EXPECT_EQ(members[2].first, "counters");
    EXPECT_EQ(members[3].first, "gauges");
    EXPECT_EQ(members[4].first, "window_quantiles");
    EXPECT_EQ(record.at("counters").at("pass.counter").as_u64(), 7u);
    EXPECT_DOUBLE_EQ(record.at("gauges").at("pass.level").as_double(), 3.0);
    EXPECT_EQ(
        record.at("window_quantiles").at("pass.lat").at("cumulative_count")
            .as_u64(),
        1u);
  }
}

TEST(TelemetrySnapshotter, DestructionStopsAndFlushes) {
  const TempFile file("dtor");
  MetricsRegistry registry;
  registry.add("c", 1);
  {
    const TelemetrySnapshotter snapshotter(registry, file.path(),
                                           TelemetryOptions{.period_ms = 1});
    // No explicit stop(): the destructor must join and flush.
  }
  const std::vector<Json> records = read_records(file.path());
  // The worker writes one final sample on the stop signal even when the
  // period never elapsed.
  ASSERT_GE(records.size(), 1u);
  EXPECT_EQ(records.front().at("seq").as_u64(), 0u);
  EXPECT_EQ(records.front().at("counters").at("c").as_u64(), 1u);
}

TEST(TelemetrySnapshotter, ReportsUnwritablePath) {
  MetricsRegistry registry;
  TelemetrySnapshotter snapshotter(
      registry, "/nonexistent-dir-for-telemetry-test/out.jsonl",
      TelemetryOptions{.period_ms = 5});
  EXPECT_FALSE(snapshotter.ok());
  snapshotter.stop();  // still clean to stop
  EXPECT_EQ(snapshotter.snapshots_written(), 0u);
}

TEST(TelemetrySnapshotter, RunsCleanUnderConcurrentMetricWriters) {
  using namespace std::chrono_literals;
  const TempFile file("race");
  MetricsRegistry registry;
  std::atomic<bool> stop{false};
  std::vector<std::thread> writers;
  writers.reserve(4);
  for (int t = 0; t < 4; ++t) {
    writers.emplace_back([&registry, &stop, t] {
      Gauge& level = registry.gauge("race.level");
      while (!stop.load(std::memory_order_relaxed)) {
        registry.add("race.counter", 1);
        const GaugeGuard guard(level);
        registry.observe("race.lat", (t + 1) * 1e-5);
      }
    });
  }
  std::uint64_t written = 0;
  {
    TelemetrySnapshotter snapshotter(registry, file.path(),
                                     TelemetryOptions{.period_ms = 2});
    while (snapshotter.snapshots_written() < 5) {
      std::this_thread::sleep_for(1ms);
    }
    snapshotter.stop();
    written = snapshotter.snapshots_written();
  }
  stop.store(true, std::memory_order_relaxed);
  for (auto& t : writers) t.join();

  const std::vector<Json> records = read_records(file.path());
  EXPECT_EQ(records.size(), written);
  // Counters are monotone across snapshots even under contention.
  std::uint64_t last = 0;
  for (const Json& record : records) {
    const std::uint64_t now = record.at("counters").at("race.counter").as_u64();
    EXPECT_GE(now, last);
    last = now;
  }
}

std::int64_t record_counter(const Json& record, const char* name) {
  const Json* cell = record.at("counters").find(name);
  return cell == nullptr ? 0 : static_cast<std::int64_t>(cell->as_u64());
}

std::int64_t record_gauge(const Json& record, const char* name) {
  const Json* cell = record.at("gauges").find(name);
  return cell == nullptr ? 0 : static_cast<std::int64_t>(cell->as_double());
}

// The per-snapshot serving identity: everything accepted is resolved
// (served / encode-failed / shed / discarded), still queued, or in flight.
std::int64_t snapshot_residual(const Json& record) {
  const std::int64_t open = record_counter(record, "serve.accepted") -
                            record_counter(record, "serve.served") -
                            record_counter(record, "serve.encode_failures") -
                            record_counter(record, "serve.shed") -
                            record_counter(record, "serve.discarded");
  return record_gauge(record, "serve.queue.depth") +
         record_gauge(record, "serve.inflight") - open;
}

// A cached server under load while the global registry is sampled: k
// snapshots, an extension, k more, then a drain. Counters and gauges are
// sampled a few instructions apart from the racing mutators, so a live
// snapshot may be off by a bounded transient: the submitter moves the depth
// gauge one request ahead of serve.accepted, and a worker takes each column
// off serve.inflight before it adds the whole batch to serve.served, so it
// can skew by max_batch. With 1 submitter, 2 workers and max_batch 4 that
// is at most 9; the 12 allowed leaves headroom, and the paced submits keep
// the sampler's own read window from adding churn on top. The drained final
// snapshot must be exact. Snapshot count, not wall time, paces the phases,
// so the test holds under TSan too.
TEST(TelemetrySnapshotter, ReconcilesWithServerAcrossEpochFlip) {
  using namespace std::chrono_literals;
  constexpr std::uint64_t kSnapshotsPerEpoch = 5;
  constexpr std::int64_t kTolerance = 12;
  constexpr std::size_t kPool = 8, kChunk = 16;
  const TempFile file("reconcile");
  const la::Index m = 24, l = 48;
  la::Rng rng(71);
  const sparsecoding::OmpConfig omp{.tolerance = 0.0, .max_atoms = 4};

  // Counters start from zero so the snapshots reconcile against the gauge
  // levels; the registry is created afterwards so its epoch gauges stand.
  MetricsRegistry& metrics = MetricsRegistry::global();
  metrics.reset();
  metrics.set_enabled(true);
  auto registry = std::make_shared<serve::DictRegistry>(
      rng.gaussian_matrix(m, l, true), omp);

  std::vector<la::Vector> pool(kPool, la::Vector(m));
  for (auto& signal : pool) rng.fill_gaussian(signal);
  la::Vector fresh(m);

  std::uint64_t submitted = 0, client_served = 0;
  std::uint64_t written = 0;
  serve::ServerStats stats;
  {
    serve::ExtDictServer server(registry, {.max_batch = 4,
                                           .max_delay_us = 200,
                                           .workers = 2,
                                           .queue_capacity = 256,
                                           .omp = omp,
                                           .cache_capacity = 4 * kPool});
    TelemetrySnapshotter snapshotter(metrics, file.path(),
                                     TelemetryOptions{.period_ms = 5});
    ASSERT_TRUE(snapshotter.ok());

    // Chunks of asynchronous submits 100 us apart, then their resolution:
    // even requests repeat the pool (cache hits once warm), odd ones are
    // fresh signals (always queued), so both the hit path and the queue
    // stay busy.
    const auto load_until = [&](std::uint64_t snapshots) {
      while (snapshotter.snapshots_written() < snapshots) {
        std::vector<std::future<serve::EncodeResult>> futures;
        for (std::size_t i = 0; i < kChunk; ++i, ++submitted) {
          if (submitted % 2 == 0) {
            futures.push_back(server.submit(pool[(submitted / 2) % kPool]));
          } else {
            rng.fill_gaussian(fresh);
            futures.push_back(server.submit(fresh));
          }
          std::this_thread::sleep_for(100us);
        }
        for (auto& future : futures) {
          ASSERT_EQ(future.wait_for(30s), std::future_status::ready);
          (void)future.get();
          ++client_served;
        }
      }
    };
    load_until(kSnapshotsPerEpoch);
    registry->extend(rng.gaussian_matrix(m, 4, true));
    load_until(snapshotter.snapshots_written() + kSnapshotsPerEpoch);
    server.stop();  // drain: the final snapshot must reconcile exactly
    snapshotter.stop();
    written = snapshotter.snapshots_written();
    stats = server.stats();
  }

  const std::vector<Json> records = read_records(file.path());
  ASSERT_EQ(records.size(), written);
  ASSERT_GE(records.size(), 2 * kSnapshotsPerEpoch + 1);
  std::size_t first_flipped = records.size();
  for (std::size_t i = 0; i < records.size(); ++i) {
    const Json& record = records[i];
    EXPECT_EQ(record.at("seq").as_u64(), i);
    EXPECT_LE(std::abs(snapshot_residual(record)), kTolerance) << "seq " << i;
    const std::int64_t epoch = record_gauge(record, "serve.registry.epoch");
    if (first_flipped == records.size() && epoch >= 1) first_flipped = i;
    EXPECT_EQ(epoch, i < first_flipped ? 0 : 1) << "seq " << i;
  }
  const Json& last = records.back();
  EXPECT_EQ(snapshot_residual(last), 0);
  EXPECT_EQ(record_gauge(last, "serve.queue.depth"), 0);
  EXPECT_EQ(record_gauge(last, "serve.inflight"), 0);
  // The flip shows as an interior step of the epoch gauge.
  EXPECT_GT(first_flipped, 0u);
  EXPECT_LT(first_flipped, records.size() - 1);
  EXPECT_EQ(registry->current_epoch(), 1u);

  EXPECT_EQ(stats.submitted, submitted);
  EXPECT_EQ(stats.submitted, stats.accepted + stats.invalid + stats.rejected +
                                 stats.stopped + stats.cache_hits);
  EXPECT_EQ(stats.accepted,
            stats.served + stats.encode_failed + stats.shed + stats.discarded);
  EXPECT_EQ(stats.served + stats.cache_hits, client_served);
}

}  // namespace
}  // namespace extdict::util
