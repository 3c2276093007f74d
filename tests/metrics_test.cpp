// The observability layer's contracts: counters and spans are safe under
// concurrent writers, JSON emission is deterministic and round-trips, and
// the dist_gram phase spans partition each rank's wall time end to end.

#include "util/metrics.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <thread>
#include <vector>

#include "core/dist_gram.hpp"
#include "la/random.hpp"
#include "util/json.hpp"

namespace extdict::util {
namespace {

TEST(Metrics, CountersAccumulateAcrossConcurrentWriters) {
  MetricsRegistry registry;
  constexpr int kThreads = 8;
  constexpr int kAddsPerThread = 10000;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&registry] {
      // Half through the name-resolving convenience path, half through a
      // resolved cell — both must be race-free (tsan covers this test).
      MetricsRegistry::Counter& cell = registry.counter("shared");
      for (int i = 0; i < kAddsPerThread; ++i) {
        if (i % 2 == 0) {
          registry.add("shared", 1);
        } else {
          cell.add(1);
        }
        registry.record_span("phase", 1e-9);
        registry.update_max("peak", static_cast<std::uint64_t>(i));
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(registry.value("shared"),
            static_cast<std::uint64_t>(kThreads) * kAddsPerThread);
  EXPECT_EQ(registry.span_count("phase"),
            static_cast<std::uint64_t>(kThreads) * kAddsPerThread);
  EXPECT_EQ(registry.value("peak"), kAddsPerThread - 1);
}

TEST(Metrics, HandlesStayValidAcrossReset) {
  MetricsRegistry registry;
  MetricsRegistry::Counter& cell = registry.counter("kept");
  cell.add(5);
  registry.reset();
  EXPECT_EQ(registry.value("kept"), 0u);
  cell.add(2);  // the reference still points at the live cell
  EXPECT_EQ(registry.value("kept"), 2u);
}

TEST(Metrics, DisabledRegistryDropsConvenienceMutations) {
  MetricsRegistry registry;
  registry.set_enabled(false);
  registry.add("c", 10);
  registry.record_span("s", 1.0);
  registry.update_max("m", 7);
  EXPECT_EQ(registry.value("c"), 0u);
  EXPECT_EQ(registry.span_count("s"), 0u);
  EXPECT_EQ(registry.value("m"), 0u);
  registry.set_enabled(true);
  registry.add("c", 3);
  EXPECT_EQ(registry.value("c"), 3u);
}

TEST(Metrics, HandlesHonourTheSwitchLikeTheNameKeyedCalls) {
  // Hot paths record through handles resolved once; each drops exactly what
  // its name-keyed shorthand drops while the registry is disabled — the
  // switch run_benchmarks' instrumentation_overhead toggles.
  MetricsRegistry registry;
  MetricsRegistry::Counter& counter = registry.counter("c");
  MetricsRegistry::Counter& peak = registry.counter("m");
  MetricsRegistry::Span& span = registry.span("s");
  MetricsRegistry::Distribution& latency = registry.distribution("h");
  Tally tally(registry.counter("t"));

  registry.set_enabled(false);
  counter.add(10);
  registry.add("c", 10);
  peak.update_max(9);
  registry.update_max("m", 9);
  span.record(1.0);
  registry.record_span("s", 1.0);
  latency.observe(1e-3);
  registry.observe("h", 1e-3);
  tally.add(4);
  EXPECT_EQ(registry.value("c"), 0u);
  EXPECT_EQ(registry.value("m"), 0u);
  EXPECT_EQ(registry.span_count("s"), 0u);
  EXPECT_EQ(registry.histogram("h").count(), 0u);
  EXPECT_EQ(registry.value("t"), 0u);
  EXPECT_EQ(tally.value(), 4u);  // the component's own total is always on

  registry.set_enabled(true);
  counter.add(2);
  registry.add("c", 3);
  peak.update_max(7);
  registry.update_max("m", 5);
  span.record(0.5);
  registry.record_span("s", 0.25);
  latency.observe(1e-3);
  registry.observe("h", 2e-3);
  tally.add(1);
  EXPECT_EQ(registry.value("c"), 5u);
  EXPECT_EQ(registry.value("m"), 7u);
  EXPECT_EQ(registry.span_count("s"), 2u);
  EXPECT_DOUBLE_EQ(registry.span_seconds("s"), 0.75);
  EXPECT_EQ(registry.histogram("h").count(), 2u);
  EXPECT_EQ(latency.window_count(), 2u);  // one cell feeds both views
  EXPECT_EQ(registry.value("t"), 1u);
  EXPECT_EQ(tally.value(), 5u);
}

TEST(Metrics, JsonSnapshotRoundTrips) {
  MetricsRegistry registry;
  registry.add("b.flops", 123456789);
  registry.add("a.words", 42);
  registry.record_span("solve", 0.25);
  registry.record_span("solve", 0.5);
  registry.gauge("q.depth").set(3);
  registry.observe("lat.total", 1e-3);

  const Json snapshot = registry.to_json();
  const Json reparsed = Json::parse(snapshot.dump(2));
  EXPECT_TRUE(reparsed.at("enabled").as_bool());
  EXPECT_EQ(reparsed.at("snapshot_seq").as_u64(), 1u);
  EXPECT_EQ(reparsed.at("counters").at("a.words").as_u64(), 42u);
  EXPECT_EQ(reparsed.at("counters").at("b.flops").as_u64(), 123456789u);
  EXPECT_EQ(reparsed.at("spans").at("solve").at("count").as_u64(), 2u);
  EXPECT_DOUBLE_EQ(reparsed.at("spans").at("solve").at("seconds").as_double(),
                   registry.span_seconds("solve"));
  EXPECT_DOUBLE_EQ(reparsed.at("gauges").at("q.depth").at("value").as_double(),
                   3.0);
  EXPECT_EQ(
      reparsed.at("window_quantiles").at("lat.total").at("cumulative")
          .at("count").as_u64(),
      1u);
  // Deterministic up to the monotone snapshot_seq: same state, same bytes
  // once the sequence number is overwritten.
  Json second = registry.to_json();
  EXPECT_EQ(second.at("snapshot_seq").as_u64(), 2u);
  second["snapshot_seq"] = std::uint64_t{1};
  EXPECT_EQ(snapshot.dump(2), second.dump(2));
  // Lexicographic key order in the snapshot.
  const auto& counters = snapshot.at("counters").as_object();
  ASSERT_EQ(counters.size(), 2u);
  EXPECT_EQ(counters[0].first, "a.words");
  EXPECT_EQ(counters[1].first, "b.flops");
}

TEST(Metrics, SnapshotSeqSurvivesResetButStateClears) {
  MetricsRegistry registry;
  registry.add("c", 1);
  registry.gauge("g").set(9);
  (void)registry.to_json();
  (void)registry.to_json();
  registry.reset();
  const Json after = registry.to_json();
  // The sequence keeps climbing across reset() so consumers can order
  // dumps and detect the reset; the state itself is cleared.
  EXPECT_EQ(after.at("snapshot_seq").as_u64(), 3u);
  EXPECT_EQ(registry.value("c"), 0u);
  EXPECT_EQ(registry.gauge("g").value(), 0);
}

TEST(Histogram, ExactMomentsAndSaturatingBuckets) {
  Histogram h;
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.quantile(0.5), 0.0);

  h.record(1e-3);
  h.record(2e-3);
  h.record(4e-3);
  EXPECT_EQ(h.count(), 3u);
  EXPECT_DOUBLE_EQ(h.sum(), 7e-3);
  EXPECT_DOUBLE_EQ(h.min(), 1e-3);
  EXPECT_DOUBLE_EQ(h.max(), 4e-3);

  // Out-of-range values keep the exact moments; only buckets saturate.
  h.record(0.0);      // below range → first bucket
  h.record(1e9);      // above range → last bucket
  EXPECT_EQ(h.count(), 5u);
  EXPECT_DOUBLE_EQ(h.min(), 0.0);
  EXPECT_DOUBLE_EQ(h.max(), 1e9);
}

TEST(Histogram, QuantilesLandWithinBucketResolution) {
  // 1000 evenly spread values in (0, 1]: the q-quantile is ~q, and a
  // log-spaced bucket is at most a 10^0.1 ≈ 1.26x band, so assert to ~30%.
  Histogram h;
  for (int i = 1; i <= 1000; ++i) h.record(i * 1e-3);
  for (const double q : {0.5, 0.9, 0.95, 0.99}) {
    const double estimate = h.quantile(q);
    EXPECT_GE(estimate, q * 0.7) << "q=" << q;
    EXPECT_LE(estimate, q * 1.3) << "q=" << q;
  }
  // Extremes stay clamped inside the exact observed [min, max].
  EXPECT_GE(h.quantile(0.0), 1e-3);
  EXPECT_LE(h.quantile(0.0), 2e-3);
  EXPECT_DOUBLE_EQ(h.quantile(1.0), 1.0);
}

TEST(Histogram, SubRangeObservationsDoNotInflateLowQuantiles) {
  // Regression: bucket 0 absorbs every observation below kFirstLower, and
  // the quantile interpolation used to take kFirstLower (1e-9) as the
  // bucket's base — with sub-range observations the low quantiles came
  // back ≈1e-9 even when nearly all mass sat at 1e-12. The base is now
  // floored at the exact observed min.
  Histogram h;
  for (int i = 0; i < 100; ++i) h.record(1e-12);
  h.record(1.0);  // keeps the final [min, max] clamp from hiding the bug
  EXPECT_DOUBLE_EQ(h.min(), 1e-12);
  const double median = h.quantile(0.5);
  EXPECT_GE(median, 1e-12);
  EXPECT_LT(median, 1e-10);  // the old interpolation returned ≈1.1e-9

  // Non-positive observations make the log base unusable: interpolation
  // falls back to linear and stays inside bucket 0.
  Histogram z;
  for (int i = 0; i < 100; ++i) z.record(0.0);
  z.record(1.0);
  const double zero_median = z.quantile(0.5);
  EXPECT_GE(zero_median, 0.0);
  EXPECT_LE(zero_median, Histogram::bucket_upper(0));
}

TEST(Histogram, MergeCombinesCellsExactly) {
  Histogram a, b;
  for (int i = 0; i < 100; ++i) a.record(1e-4);
  for (int i = 0; i < 300; ++i) b.record(1e-2);
  a.merge_from(b);
  EXPECT_EQ(a.count(), 400u);
  EXPECT_NEAR(a.sum(), 100 * 1e-4 + 300 * 1e-2, 1e-12);
  EXPECT_DOUBLE_EQ(a.min(), 1e-4);
  EXPECT_DOUBLE_EQ(a.max(), 1e-2);
  // 3/4 of the mass sits at 1e-2, so the median follows it.
  EXPECT_GT(a.quantile(0.5), 1e-3);
}

TEST(Histogram, RecordIsExactUnderConcurrentWriters) {
  Histogram h;
  constexpr int kThreads = 8;
  constexpr int kPerThread = 20000;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&h, t] {
      for (int i = 0; i < kPerThread; ++i) {
        h.record((t + 1) * 1e-6);
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(h.count(), static_cast<std::uint64_t>(kThreads) * kPerThread);
  EXPECT_DOUBLE_EQ(h.min(), 1e-6);
  EXPECT_DOUBLE_EQ(h.max(), kThreads * 1e-6);
  double expected_sum = 0;
  for (int t = 0; t < kThreads; ++t) expected_sum += (t + 1) * 1e-6 * kPerThread;
  EXPECT_NEAR(h.sum(), expected_sum, expected_sum * 1e-9);
}

TEST(Histogram, JsonSnapshotIsDeterministicAndSchemaStable) {
  Histogram a, b;
  for (const double v : {1e-3, 2e-3, 5e-2, 5e-2, 1.5}) {
    a.record(v);
    b.record(v);
  }
  EXPECT_EQ(a.to_json().dump(2), b.to_json().dump(2));
  const Json j = Json::parse(a.to_json().dump());
  EXPECT_EQ(j.at("count").as_u64(), 5u);
  EXPECT_DOUBLE_EQ(j.at("min").as_double(), 1e-3);
  EXPECT_DOUBLE_EQ(j.at("max").as_double(), 1.5);
  const auto& buckets = j.at("buckets").as_array();
  ASSERT_FALSE(buckets.empty());
  std::uint64_t total = 0;
  double last_le = 0;
  for (const auto& bucket : buckets) {
    EXPECT_GT(bucket.at("le").as_double(), last_le);  // ascending bounds
    last_le = bucket.at("le").as_double();
    total += bucket.at("count").as_u64();
  }
  EXPECT_EQ(total, 5u);  // non-empty buckets partition the observations
}

TEST(Metrics, RegistryHistogramsObserveResetAndEmit) {
  MetricsRegistry registry;
  registry.observe("lat", 1e-3);
  registry.observe("lat", 2e-3);
  EXPECT_EQ(registry.histogram("lat").count(), 2u);
  EXPECT_EQ(registry.histogram("never").count(), 0u);

  registry.set_enabled(false);
  registry.observe("lat", 5e-3);  // dropped by the gate
  EXPECT_EQ(registry.histogram("lat").count(), 2u);
  registry.set_enabled(true);

  const Json snapshot = registry.to_json();
  EXPECT_EQ(snapshot.at("histograms").at("lat").at("count").as_u64(), 2u);

  MetricsRegistry::Distribution& cell = registry.distribution("lat");
  registry.reset();
  EXPECT_EQ(registry.histogram("lat").count(), 0u);
  cell.observe(1.0);  // handle survives reset, like counter cells
  EXPECT_EQ(registry.histogram("lat").count(), 1u);
}

TEST(Gauge, SetAddSubTrackValueAndPeak) {
  Gauge g;
  EXPECT_EQ(g.value(), 0);
  EXPECT_EQ(g.peak(), 0);
  g.set(5);
  g.add(3);
  g.sub(6);
  EXPECT_EQ(g.value(), 2);
  EXPECT_EQ(g.peak(), 8);  // peak was the post-add level
  g.set(-4);               // levels may go transiently negative
  EXPECT_EQ(g.value(), -4);
  EXPECT_EQ(g.peak(), 8);  // a lower set never rewrites the peak
  g.reset();
  EXPECT_EQ(g.value(), 0);
  EXPECT_EQ(g.peak(), 0);
}

TEST(Gauge, GuardBalancesOnEveryPath) {
  Gauge g;
  {
    const GaugeGuard a(g);
    EXPECT_EQ(g.value(), 1);
    {
      const GaugeGuard b(g, 4);
      EXPECT_EQ(g.value(), 5);
      EXPECT_EQ(g.peak(), 5);
    }
    EXPECT_EQ(g.value(), 1);
  }
  EXPECT_EQ(g.value(), 0);
  EXPECT_EQ(g.peak(), 5);  // peaks persist after the level drains
}

TEST(Gauge, ConcurrentGuardsDrainToZero) {
  Gauge g;
  constexpr int kThreads = 8;
  constexpr int kPerThread = 5000;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&g] {
      for (int i = 0; i < kPerThread; ++i) {
        const GaugeGuard guard(g);
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(g.value(), 0);
  EXPECT_GE(g.peak(), 1);
  EXPECT_LE(g.peak(), kThreads);
}

TEST(Metrics, RegistryGaugesResolveMutateAndGate) {
  MetricsRegistry registry;
  registry.gauge("depth").set(7);
  registry.gauge("depth").add(2);
  registry.gauge("depth").sub(4);
  EXPECT_EQ(registry.gauge("depth").value(), 5);
  EXPECT_EQ(registry.gauge("never").value(), 0);

  registry.set_enabled(false);
  // Gauges ignore the switch so RAII +/- pairs never unbalance across a
  // mid-flight toggle.
  registry.gauge("depth").add(1);
  EXPECT_EQ(registry.gauge("depth").value(), 6);
  registry.set_enabled(true);
}

TEST(Histogram, MergeAcrossDisjointDecades) {
  // Merge sources whose observations occupy disjoint log decades: every
  // bucket, the exact moments, and the quantile envelope must all combine.
  Histogram lo, hi;
  for (int i = 0; i < 900; ++i) lo.record(1e-6);
  for (int i = 0; i < 100; ++i) hi.record(1e+2);
  lo.merge_from(hi);
  EXPECT_EQ(lo.count(), 1000u);
  EXPECT_DOUBLE_EQ(lo.min(), 1e-6);
  EXPECT_DOUBLE_EQ(lo.max(), 1e+2);
  EXPECT_NEAR(lo.sum(), 900 * 1e-6 + 100 * 1e+2, 1e-6);
  // 90% of the mass is tiny; p50 stays in the low decade, p99 in the high.
  EXPECT_LT(lo.quantile(0.50), 1e-5);
  EXPECT_GT(lo.quantile(0.99), 1e+1);
}

TEST(WindowedHistogram, RotationExpiresOldEpochs) {
  // Deterministic clock via the _at hooks: slot_millis=100, 5 slots, so the
  // live window at time T covers epochs [T/100 - 4, T/100].
  WindowedHistogram w(100);
  w.record_at(1e-3, 0);
  w.record_at(1e-3, 50);
  EXPECT_EQ(w.window_count_at(0), 2u);
  // Still inside the 5-slot window four epochs later.
  EXPECT_EQ(w.window_count_at(499), 2u);
  // One more epoch and the slot has aged out of the merge range.
  EXPECT_EQ(w.window_count_at(500), 0u);
  // The cumulative view never expires.
  EXPECT_EQ(w.cumulative().count(), 2u);

  // Writing into a recycled slot clears the stale epoch's contents.
  w.record_at(5e-3, 500);
  EXPECT_EQ(w.window_count_at(500), 1u);
  EXPECT_EQ(w.cumulative().count(), 3u);
}

TEST(WindowedHistogram, EmptyWindowQuantileClampsToZero) {
  WindowedHistogram w(100);
  EXPECT_EQ(w.window_count_at(0), 0u);
  EXPECT_DOUBLE_EQ(w.window_quantile_at(0.99, 0), 0.0);
  w.record_at(2.5, 0);
  // After everything expires the quantile is 0 again, not a stale value.
  EXPECT_DOUBLE_EQ(w.window_quantile_at(0.99, 10'000), 0.0);
}

TEST(WindowedHistogram, StationaryWindowMatchesCumulative) {
  // Under stationary load inside one window span, the windowed quantile and
  // the cumulative quantile see the same observations and must agree to the
  // histogram's documented log-bucket resolution (a 10^0.1 ≈ 1.26x band).
  WindowedHistogram w(1000);
  for (int i = 0; i < 1000; ++i) {
    w.record_at((i + 1) * 1e-4, i);  // all inside epoch 0
  }
  for (const double q : {0.5, 0.9, 0.99}) {
    const double windowed = w.window_quantile_at(q, 999);
    const double cumulative = w.cumulative().quantile(q);
    EXPECT_NEAR(windowed, cumulative, cumulative * 1e-12) << "q=" << q;
  }
  EXPECT_EQ(w.window_count_at(999), w.cumulative().count());
}

TEST(WindowedHistogram, RecordsRacingRotationStayTsanCleanAndCumulativeExact) {
  // Writers hammer a 1 ms slot clock (real time) while a reader keeps
  // merging the window: the all-atomic design must be race-free (TSan runs
  // this test) and the cumulative view must count every observation even
  // when rotation drops some from the live window.
  WindowedHistogram w(1);
  constexpr int kThreads = 4;
  constexpr int kPerThread = 20000;
  std::atomic<bool> stop{false};
  std::thread reader([&w, &stop] {
    while (!stop.load(std::memory_order_relaxed)) {
      (void)w.window_quantile(0.5);
      (void)w.window_count();
    }
  });
  std::vector<std::thread> writers;
  writers.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    writers.emplace_back([&w] {
      for (int i = 0; i < kPerThread; ++i) w.record(1e-4);
    });
  }
  for (auto& t : writers) t.join();
  stop.store(true, std::memory_order_relaxed);
  reader.join();
  EXPECT_EQ(w.cumulative().count(),
            static_cast<std::uint64_t>(kThreads) * kPerThread);
  EXPECT_LE(w.window_count(), w.cumulative().count());
}

TEST(Metrics, RegistryWindowedHistogramsObserveAndEmit) {
  MetricsRegistry registry;
  registry.observe("lat", 1e-3);
  registry.observe("lat", 2e-3);
  EXPECT_EQ(registry.histogram("lat").count(), 2u);

  registry.set_enabled(false);
  registry.observe("lat", 5e-3);  // dropped by the gate
  EXPECT_EQ(registry.histogram("lat").count(), 2u);
  registry.set_enabled(true);

  const Json snapshot = registry.to_json();
  const Json& cell = snapshot.at("window_quantiles").at("lat");
  EXPECT_EQ(cell.at("cumulative").at("count").as_u64(), 2u);
  EXPECT_EQ(cell.at("window").at("count").as_u64(), 2u);

  const Json sample = registry.telemetry_sample();
  EXPECT_EQ(sample.at("window_quantiles").at("lat").at("cumulative_count")
                .as_u64(),
            2u);

  registry.reset();
  EXPECT_EQ(registry.histogram("lat").count(), 0u);
}

TEST(Json, ParseDumpRoundTripsTrickyValues) {
  const char* text =
      R"({"s":"a\"b\\c\né","n":[0,-1,3.25,1e-3,9007199254740991],)"
      R"("b":[true,false,null],"o":{"nested":{"deep":1}}})";
  const Json j = Json::parse(text);
  EXPECT_EQ(j.at("s").as_string(), "a\"b\\c\né");
  EXPECT_EQ(j.at("n").as_array()[4].as_u64(), 9007199254740991ull);
  EXPECT_DOUBLE_EQ(j.at("n").as_array()[3].as_double(), 1e-3);
  EXPECT_TRUE(j.at("b").as_array()[2].is_null());
  // Round trip preserves everything, including insertion order.
  const Json again = Json::parse(j.dump());
  EXPECT_EQ(again.dump(), j.dump());
  EXPECT_EQ(j.at("o").at("nested").at("deep").as_u64(), 1u);
}

TEST(Json, RejectsMalformedInput) {
  EXPECT_THROW((void)Json::parse("{"), std::runtime_error);
  EXPECT_THROW((void)Json::parse("[1,]"), std::runtime_error);
  EXPECT_THROW((void)Json::parse("{\"a\":1} trailing"), std::runtime_error);
  EXPECT_THROW((void)Json::parse("\"unterminated"), std::runtime_error);
  EXPECT_THROW((void)Json::parse("tru"), std::runtime_error);
}

TEST(Metrics, DistGramSpansPartitionRankWallTime) {
  // End to end: run the distributed Gram update and check the emitted spans
  // against each other — per-phase spans nest inside the rank-total span,
  // and counts follow the run's shape exactly.
  using core::GramStrategy;
  using la::Index;
  using la::Real;

  MetricsRegistry& metrics = MetricsRegistry::global();
  metrics.reset();

  constexpr Index m = 32, l = 24, n = 128;
  constexpr int iterations = 4;
  const Index p = 4;
  la::Matrix d(m, l);
  la::Rng rng(11);
  rng.fill_gaussian(std::span<Real>(d.data(), static_cast<std::size_t>(d.size())));
  la::CscMatrix::Builder builder(l, n);
  for (Index j = 0; j < n; ++j) {
    builder.add(j % l, Real{1});
    builder.add((j * 5 + 1) % l, Real{-1});
    builder.commit_column();
  }
  const la::CscMatrix c = std::move(builder).build();
  const dist::Cluster cluster(dist::Topology{1, p});
  const la::Vector x0(static_cast<std::size_t>(n), Real{1});

  const auto result = core::dist_gram_apply(cluster, d, c, x0, iterations,
                                            GramStrategy::kPartitionedDictionary);

  EXPECT_EQ(metrics.span_count("dist_gram.rank"), static_cast<std::uint64_t>(p));
  EXPECT_EQ(metrics.span_count("dist_gram.update"),
            static_cast<std::uint64_t>(p) * iterations);
  EXPECT_EQ(metrics.span_count("dist_gram.normalize"),
            static_cast<std::uint64_t>(p) * iterations);
  EXPECT_EQ(metrics.span_count("dist_gram.gather"),
            static_cast<std::uint64_t>(p));
  EXPECT_EQ(metrics.value("dist_gram.update_flops"), result.update_flops);
  EXPECT_EQ(metrics.span_count("cluster.run"), 1u);

  const double rank_total = metrics.span_seconds("dist_gram.rank");
  const double phase_sum = metrics.span_seconds("dist_gram.update") +
                           metrics.span_seconds("dist_gram.normalize") +
                           metrics.span_seconds("dist_gram.gather");
  // The phases are disjoint sub-intervals of each rank body: their sum can
  // exceed the rank total only by clock resolution.
  EXPECT_LE(phase_sum, rank_total + 1e-3);
  // And they cover it up to per-rank setup (partition bookkeeping, buffer
  // allocation) — loose bound so scheduler noise cannot flake CI.
  EXPECT_GE(phase_sum, 0.1 * rank_total - 1e-3);
  // Each rank body runs inside the cluster.run wall interval.
  EXPECT_LE(rank_total,
            static_cast<double>(p) * metrics.span_seconds("cluster.run") + 1e-3);
}

}  // namespace
}  // namespace extdict::util
