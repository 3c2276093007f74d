#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <string_view>

#include "util/json.hpp"
#include "util/sync.hpp"

namespace extdict::util {

/// Fixed-layout latency/value histogram: log-spaced buckets covering twelve
/// decades ([1e-9, 1e3), ten buckets per decade — nanoseconds to a quarter
/// hour when the unit is seconds), plus exact count/sum/min/max. The bucket
/// layout is a compile-time constant, so two histograms always merge
/// bucket-for-bucket and `to_json` is schema-stable.
///
/// Concurrency contract (same spirit as the registry's counters): `record`
/// is wait-free-ish — relaxed atomic adds on the bucket cells and CAS loops
/// for min/max/sum — and safe from any number of threads. `merge_from`,
/// `quantile`, and `to_json` take racy-but-coherent snapshots: call them
/// after quiescing writers when exact totals matter (benches join their
/// clients first).
class Histogram {
 public:
  /// Ten log-spaced buckets per decade across [1e-9, 1e3).
  static constexpr int kBucketsPerDecade = 10;
  static constexpr int kDecades = 12;
  static constexpr int kBucketCount = kBucketsPerDecade * kDecades;
  static constexpr double kFirstLower = 1e-9;

  Histogram() = default;
  Histogram(const Histogram&) = delete;
  Histogram& operator=(const Histogram&) = delete;

  /// Records one observation. Non-positive values land in the first bucket,
  /// values past the last bound in the last — count/sum/min/max stay exact
  /// either way, only the quantile estimate saturates.
  void record(double value) noexcept;

  /// Upper bound of bucket `i` (the lower bound of bucket 0 is kFirstLower).
  [[nodiscard]] static double bucket_upper(int i) noexcept;

  /// Estimated q-quantile (q in [0, 1]): log-interpolated position inside
  /// the bucket holding the ceil(q·count)-th observation, clamped to the
  /// exact observed [min, max]. Returns 0 when empty.
  [[nodiscard]] double quantile(double q) const noexcept;

  /// Adds `other`'s cells into this histogram (bucket-for-bucket; counts and
  /// sums add, min/max combine).
  void merge_from(const Histogram& other) noexcept;

  void reset() noexcept;

  [[nodiscard]] std::uint64_t count() const noexcept {
    return count_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] double sum() const noexcept {
    return sum_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] double min() const noexcept;
  [[nodiscard]] double max() const noexcept;

  /// Deterministic snapshot:
  ///   {"count": n, "sum": s, "min": m, "max": M,
  ///    "p50": ..., "p90": ..., "p95": ..., "p99": ...,
  ///    "buckets": [{"le": upper, "count": c}, ...]}   (non-empty buckets
  /// only, ascending by bound; quantities are 0 while empty).
  [[nodiscard]] Json to_json() const;

 private:
  std::array<std::atomic<std::uint64_t>, kBucketCount> buckets_{};
  std::atomic<std::uint64_t> count_{0};
  std::atomic<double> sum_{0.0};
  std::atomic<double> min_{0.0};  // valid only while count_ > 0
  std::atomic<double> max_{0.0};
};

/// Point-in-time level with a high-water mark: the live-telemetry complement
/// to the registry's monotonic counters. Counters answer "how many ever";
/// gauges answer "how many right now" (queue depth, in-flight requests,
/// cache residency) — quantities that go *down* as well as up.
///
/// Concurrency contract: `set`/`add`/`sub` are relaxed atomics, safe from
/// any number of threads; `value()`/`peak()` are racy-but-coherent reads.
/// The peak is maintained with a CAS-max on every mutation, so after all
/// writers return it is the exact high-water mark of the serialized value
/// sequence each writer observed (concurrent add/sub interleavings may
/// transiently overshoot — the peak records what the atomic actually held).
class Gauge {
 public:
  Gauge() = default;
  Gauge(const Gauge&) = delete;
  Gauge& operator=(const Gauge&) = delete;

  void set(std::int64_t v) noexcept;
  void add(std::int64_t delta) noexcept;
  void sub(std::int64_t delta) noexcept { add(-delta); }

  [[nodiscard]] std::int64_t value() const noexcept {
    return value_.load(std::memory_order_relaxed);
  }
  /// Highest value ever held (0 if the gauge never went positive).
  [[nodiscard]] std::int64_t peak() const noexcept {
    return peak_.load(std::memory_order_relaxed);
  }

  void reset() noexcept {
    value_.store(0, std::memory_order_relaxed);
    peak_.store(0, std::memory_order_relaxed);
  }

  /// Deterministic snapshot: {"value": v, "peak": p}.
  [[nodiscard]] Json to_json() const;

 private:
  std::atomic<std::int64_t> value_{0};
  std::atomic<std::int64_t> peak_{0};
};

/// RAII in-flight tracker: `add(delta)` on construction, `sub(delta)` on
/// destruction. The canonical use is a scope-long `GaugeGuard guard(busy);`
/// around a worker's processing section — the gauge then counts concurrent
/// scopes, exception-safe by construction.
class GaugeGuard {
 public:
  explicit GaugeGuard(Gauge& gauge, std::int64_t delta = 1)
      : gauge_(gauge), delta_(delta) {
    gauge_.add(delta_);
  }
  GaugeGuard(const GaugeGuard&) = delete;
  GaugeGuard& operator=(const GaugeGuard&) = delete;
  ~GaugeGuard() { gauge_.sub(delta_); }

 private:
  Gauge& gauge_;
  std::int64_t delta_;
};

/// Time-windowed quantiles over a ring of `kSlots` Histogram epochs, plus an
/// always-on cumulative view. `record` lands in both the cumulative
/// histogram and the slot owning `now / slot_millis`; a slot is lazily
/// reclaimed (CAS on its epoch stamp, then reset) the first time a recorder
/// touches it in a new epoch. `window_quantile` merges every slot whose
/// epoch falls inside the live window of the last `kSlots` slot-periods, so
/// it answers "p99 over roughly the last kSlots × slot_millis ms" instead of
/// "p99 since process start".
///
/// Concurrency contract: everything is relaxed atomics (TSan-clean, no
/// locks). Records racing a slot rotation may land in the freshly cleared
/// slot or lose their bucket increment *in the window view only* — the
/// cumulative histogram records first and is always exact. Readers merging
/// the window see racy-but-coherent per-slot snapshots, same as
/// Histogram::to_json.
///
/// The `_at(..., now_ms)` overloads take the clock as a parameter — that is
/// the deterministic test hook; the plain overloads use a steady clock.
class WindowedHistogram {
 public:
  /// Live window = kSlots slots of slot_millis each (default: last ~5 s).
  static constexpr int kSlots = 5;
  static constexpr std::int64_t kDefaultSlotMillis = 1000;

  explicit WindowedHistogram(
      std::int64_t slot_millis = kDefaultSlotMillis) noexcept;
  WindowedHistogram(const WindowedHistogram&) = delete;
  WindowedHistogram& operator=(const WindowedHistogram&) = delete;

  void record(double value) noexcept { record_at(value, now_millis()); }
  void record_at(double value, std::int64_t now_ms) noexcept;

  /// Estimated q-quantile over the live window (0 when the window is empty —
  /// same clamp as Histogram::quantile on an empty histogram).
  [[nodiscard]] double window_quantile(double q) const noexcept {
    return window_quantile_at(q, now_millis());
  }
  [[nodiscard]] double window_quantile_at(double q,
                                          std::int64_t now_ms) const noexcept;

  [[nodiscard]] std::uint64_t window_count() const noexcept {
    return window_count_at(now_millis());
  }
  [[nodiscard]] std::uint64_t window_count_at(
      std::int64_t now_ms) const noexcept;

  /// The since-construction view (exact; never loses a record).
  [[nodiscard]] const Histogram& cumulative() const noexcept {
    return cumulative_;
  }

  [[nodiscard]] std::int64_t slot_millis() const noexcept {
    return slot_millis_;
  }

  void reset() noexcept;

  /// Deterministic snapshot:
  ///   {"slot_ms": ..., "slots": kSlots,
  ///    "window": {"count": n, "p50": ..., "p90": ..., "p99": ...},
  ///    "cumulative": Histogram::to_json()}.
  [[nodiscard]] Json to_json() const { return to_json_at(now_millis()); }
  [[nodiscard]] Json to_json_at(std::int64_t now_ms) const;

  /// Milliseconds on the process-wide steady clock (exposed so callers can
  /// feed a consistent `now` into several `_at` calls).
  [[nodiscard]] static std::int64_t now_millis() noexcept;

 private:
  struct Slot {
    std::atomic<std::int64_t> epoch{-1};  // now_ms / slot_millis, -1 = empty
    Histogram hist;
  };

  /// Merges every slot with epoch in [current - kSlots + 1, current] into
  /// `out`.
  void merge_window_at(Histogram& out, std::int64_t now_ms) const noexcept;

  std::int64_t slot_millis_;
  std::array<Slot, kSlots> slots_;
  Histogram cumulative_;
};

/// Process-wide observability registry: named monotonic counters, live
/// gauges, phase spans and histograms, with deterministic JSON emission.
///
/// This is the measurement half of the model-vs-measurement loop: the
/// analytic cost model (core/cost_model.hpp) predicts FLOPs/words/time, the
/// emulated cluster meters them exactly (dist::CostCounters), and the
/// registry is where both the rolled-up counters and the wall-clock phase
/// spans land so `bench/run_benchmarks` can emit them side by side.
///
/// Concurrency contract:
///   * every operation is safe from any number of threads — the name maps
///     are guarded by a leaf `util::Mutex`, the cells themselves are
///     std::atomics (relaxed; the registry publishes totals, not orderings);
///   * the resolvers (`counter()`, `span()`, `gauge()`, `distribution()`)
///     return handles that stay valid for the registry's lifetime (cells are
///     never erased, `reset()` only zeroes them). Hot paths resolve once, at
///     construction, and then record with no lock and no map lookup;
///   * recording through a counter, span or distribution handle honours
///     `set_enabled(false)` exactly as the name-keyed `add`, `update_max`,
///     `record_span` and `observe` do — those are resolve-then-record
///     shorthands for cold paths. The switch is what the
///     instrumentation-overhead bench toggles. Gauges are the exception: a
///     gauge is never gated, so RAII +/- pairs stay balanced across a
///     mid-run toggle.
class MetricsRegistry {
 public:
  /// Monotonic counter cell.
  class Counter {
   public:
    explicit Counter(const std::atomic<bool>& enabled) noexcept
        : enabled_(enabled) {}

    /// value += delta; no-op while the registry is disabled.
    void add(std::uint64_t delta) noexcept {
      if (enabled_.load(std::memory_order_relaxed)) {
        value_.fetch_add(delta, std::memory_order_relaxed);
      }
    }
    /// value = max(value, v); no-op while disabled. For high-water
    /// quantities (peak memory) that summing would distort.
    void update_max(std::uint64_t v) noexcept;

    [[nodiscard]] std::uint64_t value() const noexcept {
      return value_.load(std::memory_order_relaxed);
    }
    void reset() noexcept { value_.store(0, std::memory_order_relaxed); }

   private:
    const std::atomic<bool>& enabled_;
    std::atomic<std::uint64_t> value_{0};
  };

  /// Phase-span cell: completed-phase count and total wall time. Phase
  /// scopes record through `TraceScope`'s span form (util/trace.hpp).
  class Span {
   public:
    explicit Span(const std::atomic<bool>& enabled) noexcept
        : enabled_(enabled) {}

    [[nodiscard]] bool enabled() const noexcept {
      return enabled_.load(std::memory_order_relaxed);
    }
    /// One completed phase of `seconds` (negative clamps to zero); no-op
    /// while disabled.
    void record(double seconds) noexcept;
    /// One completed phase of `nanos`, ungated: for scopes that latched
    /// `enabled()` when they opened.
    void add_nanos(std::uint64_t nanos) noexcept {
      count_.fetch_add(1, std::memory_order_relaxed);
      nanos_.fetch_add(nanos, std::memory_order_relaxed);
    }

    [[nodiscard]] std::uint64_t count() const noexcept {
      return count_.load(std::memory_order_relaxed);
    }
    [[nodiscard]] double seconds() const noexcept;
    void reset() noexcept {
      count_.store(0, std::memory_order_relaxed);
      nanos_.store(0, std::memory_order_relaxed);
    }

   private:
    const std::atomic<bool>& enabled_;
    std::atomic<std::uint64_t> count_{0};
    std::atomic<std::uint64_t> nanos_{0};
  };

  /// Histogram cell: one WindowedHistogram, so every observation feeds the
  /// live window and the cumulative view together. `observe` is a no-op
  /// while the registry is disabled; the inherited `record` is ungated.
  class Distribution : public WindowedHistogram {
   public:
    explicit Distribution(const std::atomic<bool>& enabled) noexcept
        : enabled_(enabled) {}

    void observe(double value) noexcept {
      if (enabled_.load(std::memory_order_relaxed)) record(value);
    }

   private:
    const std::atomic<bool>& enabled_;
  };

  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  /// Resolves (creating on first use) the counter cell for `name`.
  [[nodiscard]] Counter& counter(std::string_view name) EXTDICT_EXCLUDES(mu_);
  /// counter(name).add(delta).
  void add(std::string_view name, std::uint64_t delta) EXTDICT_EXCLUDES(mu_);
  /// counter(name).update_max(v).
  void update_max(std::string_view name, std::uint64_t v) EXTDICT_EXCLUDES(mu_);
  /// Current value (0 for a name never touched).
  [[nodiscard]] std::uint64_t value(std::string_view name) const
      EXTDICT_EXCLUDES(mu_);

  /// Resolves (creating on first use) the span cell for `name`.
  [[nodiscard]] Span& span(std::string_view name) EXTDICT_EXCLUDES(mu_);
  /// span(name).record(seconds).
  void record_span(std::string_view name, double seconds)
      EXTDICT_EXCLUDES(mu_);
  [[nodiscard]] double span_seconds(std::string_view name) const
      EXTDICT_EXCLUDES(mu_);
  [[nodiscard]] std::uint64_t span_count(std::string_view name) const
      EXTDICT_EXCLUDES(mu_);

  /// Resolves (creating on first use) the gauge cell for `name`. Gauges are
  /// never gated (see the class comment).
  [[nodiscard]] Gauge& gauge(std::string_view name) EXTDICT_EXCLUDES(mu_);

  /// Resolves (creating on first use) the histogram cell for `name`.
  [[nodiscard]] Distribution& distribution(std::string_view name)
      EXTDICT_EXCLUDES(mu_);
  /// distribution(name).observe(value).
  void observe(std::string_view name, double value) EXTDICT_EXCLUDES(mu_);
  /// The cumulative view of distribution(name).
  [[nodiscard]] const Histogram& histogram(std::string_view name)
      EXTDICT_EXCLUDES(mu_);

  void set_enabled(bool on) noexcept {
    enabled_.store(on, std::memory_order_relaxed);
  }
  [[nodiscard]] bool enabled() const noexcept {
    return enabled_.load(std::memory_order_relaxed);
  }

  /// Zeroes every cell. Names (and outstanding references) stay valid; the
  /// snapshot sequence is NOT reset — it stays monotone across resets so
  /// dump consumers can order documents and detect the reset (counters
  /// going backwards under a larger snapshot_seq).
  void reset() EXTDICT_EXCLUDES(mu_);

  /// Deterministic snapshot:
  ///   {"enabled": bool, "snapshot_seq": n,
  ///    "counters": {name: value, ...},
  ///    "gauges": {name: {"value": v, "peak": p}, ...},
  ///    "spans": {name: {"count": n, "seconds": s}, ...},
  ///    "histograms": {name: Histogram::to_json() of the cumulative view},
  ///    "window_quantiles": {name: WindowedHistogram::to_json(), ...}}
  /// Names are emitted in lexicographic order. `snapshot_seq` increments on
  /// every call (monotone across `reset()`), so two calls on identical state
  /// differ only in that field.
  [[nodiscard]] Json to_json() const EXTDICT_EXCLUDES(mu_);

  /// Flat telemetry record for the periodic snapshotter — cheaper and
  /// schema-leaner than `to_json`:
  ///   {"counters": {name: value, ...},
  ///    "gauges": {name: value, ...},
  ///    "window_quantiles": {name: {"count": n, "p50": ..., "p90": ...,
  ///                               "p99": ..., "cumulative_count": N,
  ///                               "cumulative_p50": ...,
  ///                               "cumulative_p99": ...}, ...}}
  /// Names in lexicographic order; does not bump `snapshot_seq` (the
  /// snapshotter numbers its own records).
  [[nodiscard]] Json telemetry_sample() const EXTDICT_EXCLUDES(mu_);

  /// The library-wide registry every subsystem reports into.
  [[nodiscard]] static MetricsRegistry& global();

 private:
  template <typename Cell>
  using CellMap = std::map<std::string, std::unique_ptr<Cell>, std::less<>>;

  std::atomic<bool> enabled_{true};
  // Leaf lock (policy: util/sync.hpp): guards the name maps only; cell
  // updates go through the atomics without taking it.
  mutable Mutex mu_;
  // std::map: node stability keeps cell references valid as names register.
  CellMap<Counter> counters_ EXTDICT_GUARDED_BY(mu_);
  CellMap<Span> spans_ EXTDICT_GUARDED_BY(mu_);
  CellMap<Gauge> gauges_ EXTDICT_GUARDED_BY(mu_);
  CellMap<Distribution> distributions_ EXTDICT_GUARDED_BY(mu_);
  // Monotone dump ordinal (to_json bumps it; survives reset()).
  mutable std::atomic<std::uint64_t> snapshot_seq_{0};
};

/// A component's own always-on total paired with its registry counter,
/// resolved once: `add` bumps both. The local total backs the component's
/// `stats()` and ignores the registry switch; the counter honours it.
class Tally {
 public:
  explicit Tally(MetricsRegistry::Counter& metric) noexcept : metric_(metric) {}

  void add(std::uint64_t delta) noexcept {
    local_.fetch_add(delta, std::memory_order_relaxed);
    metric_.add(delta);
  }
  [[nodiscard]] std::uint64_t value() const noexcept {
    return local_.load(std::memory_order_relaxed);
  }

 private:
  std::atomic<std::uint64_t> local_{0};
  MetricsRegistry::Counter& metric_;
};

}  // namespace extdict::util
