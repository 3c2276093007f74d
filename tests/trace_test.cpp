// The tracer's contracts: concurrent per-thread writers lose nothing,
// ring overflow is counted deterministically (drop-newest, never clobber),
// the Chrome export round-trips through util::Json::parse with balanced
// begin/end nesting, and a real multi-rank dist_gram run emits its
// collectives on every rank lane.

#include "util/trace.hpp"

#include <gtest/gtest.h>

#include <chrono>
#include <cstdint>
#include <map>
#include <set>
#include <stack>
#include <string>
#include <thread>
#include <vector>

#include "core/dist_gram.hpp"
#include "la/random.hpp"
#include "util/json.hpp"
#include "util/metrics.hpp"

namespace extdict::util {
namespace {

const Json* find_key(const Json& object, std::string_view key) {
  for (const auto& [k, v] : object.as_object()) {
    if (k == key) return &v;
  }
  return nullptr;
}

TEST(Trace, ConcurrentWritersKeepAllEvents) {
  TraceRecorder recorder;
  recorder.set_enabled(true);
  constexpr int kThreads = 8;
  constexpr int kScopesPerThread = 250;  // 4 events per scope iteration
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&recorder, t] {
      recorder.set_thread_rank(t);
      for (int i = 0; i < kScopesPerThread; ++i) {
        const TraceScope scope(recorder, "work", "i",
                               static_cast<std::uint64_t>(i));
        recorder.instant("tick");
        recorder.counter("value", static_cast<std::uint64_t>(i));
      }
    });
  }
  for (auto& thread : threads) thread.join();

  EXPECT_EQ(recorder.recorded_events(),
            static_cast<std::uint64_t>(kThreads) * kScopesPerThread * 4);
  EXPECT_EQ(recorder.dropped_events(), 0u);
  const auto per_rank = recorder.rank_event_counts();
  ASSERT_EQ(per_rank.size(), static_cast<std::size_t>(kThreads));
  for (int t = 0; t < kThreads; ++t) {
    EXPECT_EQ(per_rank[static_cast<std::size_t>(t)].first, t);
    EXPECT_EQ(per_rank[static_cast<std::size_t>(t)].second,
              static_cast<std::uint64_t>(kScopesPerThread) * 4);
  }
}

TEST(Trace, RingOverflowIsCountedExactly) {
  TraceRecorder recorder;
  recorder.set_capacity(64);
  recorder.set_enabled(true);
  constexpr int kEvents = 200;
  for (int i = 0; i < kEvents; ++i) {
    recorder.instant("e", "i", static_cast<std::uint64_t>(i));
  }
  EXPECT_EQ(recorder.recorded_events(), 64u);
  EXPECT_EQ(recorder.dropped_events(), static_cast<std::uint64_t>(kEvents - 64));

  // Drop-newest: the surviving events are exactly the first 64, in order.
  const Json doc = recorder.to_chrome_json();
  std::uint64_t next = 0;
  for (const Json& event : doc.at("traceEvents").as_array()) {
    if (event.at("ph").as_string() != "i") continue;
    EXPECT_EQ(event.at("args").at("i").as_u64(), next);
    ++next;
  }
  EXPECT_EQ(next, 64u);

  // clear() resets both tallies; capacity survives.
  recorder.clear();
  EXPECT_EQ(recorder.recorded_events(), 0u);
  EXPECT_EQ(recorder.dropped_events(), 0u);
  recorder.instant("again");
  EXPECT_EQ(recorder.recorded_events(), 1u);
}

TEST(Trace, DisabledRecorderRecordsNothing) {
  TraceRecorder recorder;  // disabled by default
  recorder.instant("b");
  recorder.counter("c", 1);
  {
    const TraceScope scope(recorder, "scoped");
    // Enabling mid-scope must not record the latched-off scope's end.
    recorder.set_enabled(true);
  }
  EXPECT_EQ(recorder.recorded_events(), 0u);

  // Conversely a scope opened while enabled closes even if disabled mid-way.
  {
    const TraceScope scope(recorder, "balanced");
    recorder.set_enabled(false);
  }
  EXPECT_EQ(recorder.recorded_events(), 2u);
}

TEST(Trace, SpanScopeTimesSpanAndSliceWithOneClockPair) {
  // The span form adds one completion to the registry span, and its
  // duration is exactly the exported slice's end minus begin: both come
  // from the same two clock reads.
  MetricsRegistry registry;
  MetricsRegistry::Span& span = registry.span("test.phase");
  TraceRecorder& trace = TraceRecorder::global();
  trace.clear();
  trace.set_enabled(true);
  {
    const TraceScope phase(span, "test.phase", "iteration", 3);
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  trace.set_enabled(false);
  const Json doc = trace.to_chrome_json();
  trace.clear();

  EXPECT_EQ(registry.span_count("test.phase"), 1u);
  double begin_us = -1, end_us = -1;
  for (const Json& ev : doc.at("traceEvents").as_array()) {
    if (ev.at("name").as_string() != "test.phase") continue;
    const std::string& ph = ev.at("ph").as_string();
    if (ph == "B") begin_us = ev.at("ts").as_double();
    if (ph == "E") end_us = ev.at("ts").as_double();
  }
  ASSERT_GE(begin_us, 0.0);
  ASSERT_GT(end_us, begin_us);
  EXPECT_NEAR(registry.span_seconds("test.phase"), (end_us - begin_us) * 1e-6,
              1e-12);
  EXPECT_GE(registry.span_seconds("test.phase"), 1e-3);
}

TEST(Trace, SpanScopeLatchesTheRegistrySwitch) {
  MetricsRegistry registry;
  MetricsRegistry::Span& span = registry.span("test.gated");
  TraceRecorder& trace = TraceRecorder::global();
  trace.clear();
  trace.set_enabled(true);
  registry.set_enabled(false);
  {
    // Disabled at construction: neither the span nor the slice, even if
    // the registry is enabled before the scope closes.
    const TraceScope phase(span, "test.gated");
    registry.set_enabled(true);
  }
  EXPECT_EQ(registry.span_count("test.gated"), 0u);
  EXPECT_EQ(trace.recorded_events(), 0u);
  {
    // Enabled at construction: the scope closes whole.
    const TraceScope phase(span, "test.gated");
    registry.set_enabled(false);
  }
  EXPECT_EQ(registry.span_count("test.gated"), 1u);
  EXPECT_EQ(trace.recorded_events(), 2u);  // one balanced B/E pair
  trace.set_enabled(false);
  registry.set_enabled(true);
  {
    // Tracing off: the span alone.
    const TraceScope phase(span, "test.gated");
  }
  EXPECT_EQ(registry.span_count("test.gated"), 2u);
  EXPECT_EQ(trace.recorded_events(), 2u);
  trace.clear();
}

TEST(Trace, ChromeJsonRoundTripsAndIsWellFormed) {
  TraceRecorder recorder;
  recorder.set_enabled(true);
  recorder.set_thread_rank(3);
  {
    TraceScope outer(recorder, "phase", "words", 128);
    const TraceScope inner(recorder, "comm.send", "peer", 1);
    outer.set_end_arg("received", 64);
  }
  recorder.instant("marker");
  recorder.counter("series", 42);
  recorder.set_metadata("mode", Json("test"));

  const Json doc = recorder.to_chrome_json();
  const std::string dumped = doc.dump(2);
  const Json reparsed = Json::parse(dumped);

  // Deterministic: same recorded state, same bytes.
  EXPECT_EQ(recorder.to_chrome_json().dump(2), dumped);

  EXPECT_EQ(reparsed.at("displayTimeUnit").as_string(), "ms");
  const Json& other = reparsed.at("otherData");
  EXPECT_EQ(other.at("mode").as_string(), "test");
  EXPECT_EQ(other.at("recorded_events").as_u64(), 6u);
  EXPECT_EQ(other.at("dropped_events").as_u64(), 0u);
  EXPECT_EQ(other.at("rank_events").at("3").as_u64(), 6u);

  // Every event targets the tagged rank lane; B/E nesting balances; the
  // completion-time arg lands on the E event, metadata lanes come first.
  int begins = 0, ends = 0;
  bool saw_process_meta = false;
  std::stack<std::string> open;
  for (const Json& event : reparsed.at("traceEvents").as_array()) {
    const std::string& ph = event.at("ph").as_string();
    if (ph == "M") {
      EXPECT_EQ(begins + ends, 0) << "metadata after payload events";
      saw_process_meta |= event.at("name").as_string() == "process_name";
      continue;
    }
    EXPECT_EQ(event.at("pid").as_u64(), 3u);
    EXPECT_GE(event.at("ts").as_double(), 0.0);
    if (ph == "B") {
      ++begins;
      open.push(event.at("name").as_string());
    } else if (ph == "E") {
      ++ends;
      ASSERT_FALSE(open.empty());
      EXPECT_EQ(open.top(), event.at("name").as_string());
      open.pop();
      if (event.at("name").as_string() == "phase") {
        EXPECT_EQ(event.at("args").at("received").as_u64(), 64u);
      }
    } else if (ph == "i") {
      EXPECT_EQ(event.at("s").as_string(), "t");
    } else {
      EXPECT_EQ(ph, "C");
      EXPECT_EQ(event.at("args").at("value").as_u64(), 42u);
    }
  }
  EXPECT_TRUE(saw_process_meta);
  EXPECT_EQ(begins, 2);
  EXPECT_EQ(ends, 2);
  EXPECT_TRUE(open.empty());

  // Untag the main thread so later tests trace into the host lane again.
  recorder.set_thread_rank(TraceRecorder::kHostPid);
}

TEST(Trace, DistGramEmitsBalancedMultiRankTimeline) {
  using la::Index;
  using la::Real;

  TraceRecorder& trace = TraceRecorder::global();
  trace.clear();
  trace.set_enabled(true);

  constexpr Index m = 32, l = 24, n = 128;
  constexpr int iterations = 3;
  constexpr Index p = 4;
  la::Matrix d(m, l);
  la::Rng rng(11);
  rng.fill_gaussian(
      std::span<Real>(d.data(), static_cast<std::size_t>(d.size())));
  la::CscMatrix::Builder builder(l, n);
  for (Index j = 0; j < n; ++j) {
    builder.add(j % l, Real{1});
    builder.add((j * 5 + 1) % l, Real{-1});
    builder.commit_column();
  }
  const la::CscMatrix c = std::move(builder).build();
  const dist::Cluster cluster(dist::Topology{1, p});
  const la::Vector x0(static_cast<std::size_t>(n), Real{1});

  (void)core::dist_gram_apply(cluster, d, c, x0, iterations,
                              core::GramStrategy::kRootDictionary);
  trace.set_enabled(false);

  EXPECT_EQ(trace.dropped_events(), 0u);
  const Json doc = trace.to_chrome_json();
  trace.clear();

  // Per-lane stack replay: every B closes with a matching E, none dangle.
  std::map<std::pair<std::uint64_t, std::uint64_t>, std::stack<std::string>>
      stacks;
  std::map<std::string, std::set<std::uint64_t>> collective_ranks;
  std::set<std::uint64_t> update_ranks;
  for (const Json& event : doc.at("traceEvents").as_array()) {
    const std::string& ph = event.at("ph").as_string();
    if (ph == "M") continue;
    const auto lane = std::make_pair(event.at("pid").as_u64(),
                                     event.at("tid").as_u64());
    const std::string& name = event.at("name").as_string();
    if (ph == "B") {
      stacks[lane].push(name);
      if (name == "comm.reduce" || name == "comm.broadcast") {
        collective_ranks[name].insert(lane.first);
      }
      if (name == "dist_gram.update") update_ranks.insert(lane.first);
    } else if (ph == "E") {
      auto& stack = stacks[lane];
      ASSERT_FALSE(stack.empty())
          << "E " << name << " without B on rank " << lane.first;
      EXPECT_EQ(stack.top(), name);
      stack.pop();
    }
  }
  for (const auto& [lane, stack] : stacks) {
    EXPECT_TRUE(stack.empty())
        << "unclosed span on rank " << lane.first;
  }

  // Case 1 reduces and broadcasts every iteration: both collectives must
  // appear on every rank lane, as must the update phase itself.
  for (const char* name : {"comm.reduce", "comm.broadcast"}) {
    for (std::uint64_t r = 0; r < static_cast<std::uint64_t>(p); ++r) {
      EXPECT_TRUE(collective_ranks[name].count(r))
          << name << " missing on rank " << r;
    }
  }
  EXPECT_EQ(update_ranks.size(), static_cast<std::size_t>(p));

  // The rollup deltas surfaced per-rank totals in the metrics registry.
  const Json& rank_events = doc.at("otherData").at("rank_events");
  ASSERT_GE(rank_events.as_object().size(), static_cast<std::size_t>(p));
  for (std::uint64_t r = 0; r < static_cast<std::uint64_t>(p); ++r) {
    const Json* count = find_key(rank_events, std::to_string(r));
    ASSERT_NE(count, nullptr);
    EXPECT_GT(count->as_u64(), 0u);
    EXPECT_GT(MetricsRegistry::global().value("trace.events.rank" +
                                              std::to_string(r)),
              0u);
  }
}

}  // namespace
}  // namespace extdict::util
