#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <string_view>
#include <vector>

#include "util/json.hpp"
#include "util/metrics.hpp"
#include "util/sync.hpp"

namespace extdict::util {

/// Process-wide event tracer: the timeline half of the observability layer.
///
/// `MetricsRegistry` answers "how much, in total" (counters, span sums); the
/// `TraceRecorder` answers "when, on which rank" — every begin/end/instant/
/// counter event carries a steady-clock timestamp and lands in a per-thread
/// bounded ring buffer, and the exporter lays the buffers out as Chrome
/// trace-event JSON (one pid lane per emulated rank) that loads directly in
/// Perfetto (ui.perfetto.dev) or chrome://tracing. That is what turns one
/// run of Algorithm 2 into an inspectable multi-rank timeline: per-iteration
/// update/normalize phases, every reduce/broadcast with its payload size,
/// and the recv/barrier intervals where a rank sat waiting.
///
/// Contracts:
///   * **Hot path never allocates.** Events are fixed-size PODs written into
///     a buffer preallocated on the recording thread's first event (or at
///     `set_thread_rank`, which `dist::Cluster` calls at rank startup before
///     any metered phase). A full buffer drops the event and increments an
///     explicit per-thread dropped counter — recording never blocks, never
///     reallocates, never overwrites older events, so overflow accounting is
///     deterministic: the first `capacity` events of each thread survive.
///   * **Names and arg keys are borrowed, not copied.** Pass string literals
///     (or views that outlive the recorder); this is what keeps an event at
///     one clock read plus a handful of stores.
///   * **Disabled means free-ish.** The recorder starts disabled; every
///     public record call is then a single relaxed atomic load. `TraceScope`
///     latches the switch at construction, so toggling must happen outside
///     open scopes (the bench toggles around whole SPMD regions).
///   * **Thread safety.** Each ring buffer has exactly one writer (its
///     thread); the buffer list and metadata are behind a leaf `util::Mutex`.
///     Reading a snapshot (`to_chrome_json`, the event counts) while writers
///     are live is safe but sees a prefix; export after joining for a
///     complete trace. A non-global recorder must outlive every thread that
///     recorded into it.
class TraceRecorder {
 public:
  /// Default per-thread ring capacity, in events. One rank of a quick-mode
  /// Alg. 2 / LASSO / power-method run emits a few thousand events, so the
  /// default leaves an order of magnitude of headroom (zero drops — the
  /// bench and CI assert that) while bounding a traced run's memory.
  static constexpr std::size_t kDefaultCapacity = std::size_t{1} << 14;

  /// pid lane used for threads that never called `set_thread_rank` (the
  /// host process: benchmark drivers, serial solvers). Above any plausible
  /// rank count, and also the tag bound of dist::Communicator.
  static constexpr std::int32_t kHostPid = 1 << 20;

  TraceRecorder();
  ~TraceRecorder();
  TraceRecorder(const TraceRecorder&) = delete;
  TraceRecorder& operator=(const TraceRecorder&) = delete;

  void set_enabled(bool on) noexcept {
    enabled_.store(on, std::memory_order_relaxed);
  }
  [[nodiscard]] bool enabled() const noexcept {
    return enabled_.load(std::memory_order_relaxed);
  }

  /// Ring capacity (events) for thread buffers created after the call;
  /// existing buffers keep their size. Test hook for overflow accounting.
  void set_capacity(std::size_t events_per_thread) EXTDICT_EXCLUDES(mu_);

  /// Tags the calling thread's events with an emulated rank (the pid lane of
  /// the export) and preallocates its ring buffer when tracing is enabled.
  /// Call before the thread's first event — `dist::Cluster::run` does, at
  /// rank-thread startup. Untagged threads trace into the `kHostPid` lane.
  void set_thread_rank(std::int32_t rank) EXTDICT_EXCLUDES(mu_);
  [[nodiscard]] static std::int32_t thread_rank() noexcept;

  // -- recording (no-ops while disabled) -------------------------------------

  // Phases (begin/end pairs) are recorded by TraceScope only.

  /// Zero-duration marker (abort, iteration boundary, ...).
  void instant(std::string_view name, std::string_view key0 = {},
               std::uint64_t value0 = 0) EXTDICT_EXCLUDES(mu_);

  /// Sampled value series, rendered as a counter track.
  void counter(std::string_view name, std::uint64_t value)
      EXTDICT_EXCLUDES(mu_);

  // -- inspection / export ---------------------------------------------------

  [[nodiscard]] std::uint64_t recorded_events() const EXTDICT_EXCLUDES(mu_);
  [[nodiscard]] std::uint64_t dropped_events() const EXTDICT_EXCLUDES(mu_);

  /// (rank, recorded events) per pid lane, ascending by rank; untagged
  /// threads report under `kHostPid`. Feeds the Cluster run rollup so ring
  /// truncation is visible next to the metered counters.
  [[nodiscard]] std::vector<std::pair<std::int32_t, std::uint64_t>>
  rank_event_counts() const EXTDICT_EXCLUDES(mu_);

  /// Attaches a key/value to the export's `otherData` object (run
  /// parameters for tools/analyze_trace.py). Replaces an existing key.
  void set_metadata(std::string_view key, Json value) EXTDICT_EXCLUDES(mu_);

  /// Deterministic Chrome trace-event JSON document:
  ///   {"displayTimeUnit": "ms",
  ///    "otherData": {metadata..., recorded/dropped/per-rank totals},
  ///    "traceEvents": [process/thread metadata, then per-buffer events in
  ///                    record order]}
  /// pid = rank (kHostPid for untagged threads), tid = buffer registration
  /// index, ts = microseconds since the recorder epoch. The same recorded
  /// state always serialises to the same bytes.
  [[nodiscard]] Json to_chrome_json() const EXTDICT_EXCLUDES(mu_);

  /// Zeroes every buffer's event count and dropped counter (capacity and
  /// registration stay). Callers quiesce writers first, as with export.
  void clear() EXTDICT_EXCLUDES(mu_);

  /// The library-wide recorder every subsystem traces into.
  [[nodiscard]] static TraceRecorder& global();

 private:
  friend class TraceScope;

  enum class EventKind : unsigned char { kBegin, kEnd, kInstant, kCounter };

  /// Fixed-size record; name/keys are borrowed views (see class comment).
  struct Event {
    EventKind kind;
    std::uint64_t ts_ns;
    std::string_view name;
    std::string_view key0, key1;
    std::uint64_t value0, value1;
  };

  struct ThreadBuffer;

  [[nodiscard]] ThreadBuffer& thread_buffer() EXTDICT_EXCLUDES(mu_);
  /// Appends one event stamped `at`, whatever the enabled switch says: the
  /// public calls check it first, and TraceScope closes what it opened.
  void record(EventKind kind, std::chrono::steady_clock::time_point at,
              std::string_view name, std::string_view key0,
              std::uint64_t value0, std::string_view key1 = {},
              std::uint64_t value1 = 0) EXTDICT_EXCLUDES(mu_);

  std::atomic<bool> enabled_{false};
  const std::chrono::steady_clock::time_point epoch_;
  const std::uint64_t id_;  ///< distinguishes address-reused recorders in TLS

  // Leaf lock (policy: util/sync.hpp): guards registration and metadata
  // only; event writes go to the owning thread's buffer without it.
  mutable Mutex mu_;
  std::vector<std::unique_ptr<ThreadBuffer>> buffers_ EXTDICT_GUARDED_BY(mu_);
  std::size_t capacity_ EXTDICT_GUARDED_BY(mu_) = kDefaultCapacity;
  Json::Object metadata_ EXTDICT_GUARDED_BY(mu_);
};

/// RAII phase scope, the one instrumentation primitive: a trace slice
/// (begin at construction, end at scope exit) and, in the span form, one
/// completion of a registry span — both timed by the same two clock reads,
/// so the span's seconds are exactly the slice's end minus begin.
///
/// Each switch is latched once, at construction. A disabled recorder costs
/// one relaxed load and nothing else. In the span form the registry's switch
/// gates the whole scope: a registry disabled at construction records
/// neither the span nor the slice. Names are borrowed views (use literals)
/// that must outlive the recorder, like every event name.
class TraceScope {
 public:
  TraceScope(TraceRecorder& recorder, std::string_view name,
             std::string_view key0 = {}, std::uint64_t value0 = 0,
             std::string_view key1 = {}, std::uint64_t value1 = 0) {
    if (recorder.enabled()) open(&recorder, name, key0, value0, key1, value1);
  }

  /// Traces into the global recorder.
  explicit TraceScope(std::string_view name, std::string_view key0 = {},
                      std::uint64_t value0 = 0, std::string_view key1 = {},
                      std::uint64_t value1 = 0)
      : TraceScope(TraceRecorder::global(), name, key0, value0, key1, value1) {}

  /// Span form: traces `name` into the global recorder and adds the scope's
  /// duration to `span`, a handle resolved once (hot paths resolve it when
  /// their owner is constructed, not per scope).
  TraceScope(MetricsRegistry::Span& span, std::string_view name,
             std::string_view key0 = {}, std::uint64_t value0 = 0,
             std::string_view key1 = {}, std::uint64_t value1 = 0) {
    if (span.enabled()) {
      span_ = &span;
      TraceRecorder& recorder = TraceRecorder::global();
      open(recorder.enabled() ? &recorder : nullptr, name, key0, value0, key1,
           value1);
    }
  }

  TraceScope(const TraceScope&) = delete;
  TraceScope& operator=(const TraceScope&) = delete;

  /// Attaches an arg to the closing event — for quantities only known at
  /// completion (a received payload's size).
  void set_end_arg(std::string_view key, std::uint64_t value) noexcept {
    end_key_ = key;
    end_value_ = value;
  }

  ~TraceScope() {
    if (recorder_ != nullptr || span_ != nullptr) close();
  }

 private:
  /// Reads the start clock and, with a recorder, records the begin event.
  void open(TraceRecorder* recorder, std::string_view name,
            std::string_view key0, std::uint64_t value0, std::string_view key1,
            std::uint64_t value1);
  /// Reads the end clock once for both the end event and the span.
  void close();

  TraceRecorder* recorder_ = nullptr;
  MetricsRegistry::Span* span_ = nullptr;
  std::chrono::steady_clock::time_point begin_{};
  std::string_view name_;
  std::string_view end_key_;
  std::uint64_t end_value_ = 0;
};

}  // namespace extdict::util
