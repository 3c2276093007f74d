#include "util/metrics.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>

namespace extdict::util {

namespace {

constexpr double kNanosPerSecond = 1e9;

// CAS-loop add/min/max on atomic<double> (fetch_add on floating atomics is
// C++20 but spotty across standard libraries; the loop is portable).
void atomic_add(std::atomic<double>& cell, double delta) noexcept {
  double seen = cell.load(std::memory_order_relaxed);
  while (!cell.compare_exchange_weak(seen, seen + delta,
                                     std::memory_order_relaxed)) {
  }
}

void atomic_min(std::atomic<double>& cell, double v) noexcept {
  double seen = cell.load(std::memory_order_relaxed);
  while (v < seen &&
         !cell.compare_exchange_weak(seen, v, std::memory_order_relaxed)) {
  }
}

void atomic_max(std::atomic<double>& cell, double v) noexcept {
  double seen = cell.load(std::memory_order_relaxed);
  while (v > seen &&
         !cell.compare_exchange_weak(seen, v, std::memory_order_relaxed)) {
  }
}

void atomic_max_i64(std::atomic<std::int64_t>& cell, std::int64_t v) noexcept {
  std::int64_t seen = cell.load(std::memory_order_relaxed);
  while (v > seen &&
         !cell.compare_exchange_weak(seen, v, std::memory_order_relaxed)) {
  }
}

// Find-or-create in a registry name map; the caller holds the registry lock.
template <typename Cell, typename... Args>
Cell& resolve_cell(
    std::map<std::string, std::unique_ptr<Cell>, std::less<>>& cells,
    std::string_view name, Args&... args) {
  const auto it = cells.find(name);
  if (it != cells.end()) return *it->second;
  return *cells.emplace(std::string(name), std::make_unique<Cell>(args...))
              .first->second;
}

// Lookup without creation (nullptr for a name never touched); the caller
// holds the registry lock.
template <typename Cell>
const Cell* find_cell(
    const std::map<std::string, std::unique_ptr<Cell>, std::less<>>& cells,
    std::string_view name) {
  const auto it = cells.find(name);
  return it == cells.end() ? nullptr : it->second.get();
}

}  // namespace

// -- Histogram ----------------------------------------------------------------

void Histogram::record(double value) noexcept {
  int bucket = 0;
  if (value >= kFirstLower) {
    bucket = static_cast<int>(
        kBucketsPerDecade * (std::log10(value) - std::log10(kFirstLower)));
    bucket = std::clamp(bucket, 0, kBucketCount - 1);
  }
  buckets_[static_cast<std::size_t>(bucket)].fetch_add(
      1, std::memory_order_relaxed);
  // First observation seeds min/max; racing seeders then CAS toward the true
  // extremes, so the pair is exact once every writer has returned.
  if (count_.fetch_add(1, std::memory_order_relaxed) == 0) {
    min_.store(value, std::memory_order_relaxed);
    max_.store(value, std::memory_order_relaxed);
  } else {
    atomic_min(min_, value);
    atomic_max(max_, value);
  }
  atomic_add(sum_, value);
}

double Histogram::bucket_upper(int i) noexcept {
  return kFirstLower *
         std::pow(10.0, static_cast<double>(i + 1) / kBucketsPerDecade);
}

double Histogram::quantile(double q) const noexcept {
  const std::uint64_t n = count();
  if (n == 0) return 0.0;
  q = std::clamp(q, 0.0, 1.0);
  const auto rank = std::max<std::uint64_t>(
      1, static_cast<std::uint64_t>(std::ceil(q * static_cast<double>(n))));
  std::uint64_t seen = 0;
  double estimate = max();
  for (int i = 0; i < kBucketCount; ++i) {
    const std::uint64_t c =
        buckets_[static_cast<std::size_t>(i)].load(std::memory_order_relaxed);
    if (c == 0) continue;
    if (seen + c >= rank) {
      // Log-interpolate inside the bucket by the rank's fraction of it.
      // Bucket 0 also absorbs every underflow observation (`record` clamps
      // values below kFirstLower into it), so its true lower edge is the
      // smallest value seen, not kFirstLower — interpolating from
      // kFirstLower would overestimate low quantiles whenever sub-range
      // values were recorded.
      const double lower =
          i == 0 ? std::min(min(), kFirstLower) : bucket_upper(i - 1);
      const double upper = bucket_upper(i);
      const double frac =
          static_cast<double>(rank - seen) / static_cast<double>(c);
      if (lower > 0) {
        estimate = lower * std::pow(upper / lower, frac);
      } else {
        // Log interpolation needs a positive base; with zero/negative
        // observations fall back to linear inside the bucket.
        estimate = lower + (upper - lower) * frac;
      }
      break;
    }
    seen += c;
  }
  return std::clamp(estimate, min(), max());
}

void Histogram::merge_from(const Histogram& other) noexcept {
  std::uint64_t merged = 0;
  for (int i = 0; i < kBucketCount; ++i) {
    const std::uint64_t c = other.buckets_[static_cast<std::size_t>(i)].load(
        std::memory_order_relaxed);
    if (c == 0) continue;
    buckets_[static_cast<std::size_t>(i)].fetch_add(c,
                                                    std::memory_order_relaxed);
    merged += c;
  }
  if (merged == 0) return;
  if (count_.fetch_add(merged, std::memory_order_relaxed) == 0) {
    min_.store(other.min(), std::memory_order_relaxed);
    max_.store(other.max(), std::memory_order_relaxed);
  } else {
    atomic_min(min_, other.min());
    atomic_max(max_, other.max());
  }
  atomic_add(sum_, other.sum());
}

void Histogram::reset() noexcept {
  for (auto& b : buckets_) b.store(0, std::memory_order_relaxed);
  count_.store(0, std::memory_order_relaxed);
  sum_.store(0.0, std::memory_order_relaxed);
  min_.store(0.0, std::memory_order_relaxed);
  max_.store(0.0, std::memory_order_relaxed);
}

double Histogram::min() const noexcept {
  return count() == 0 ? 0.0 : min_.load(std::memory_order_relaxed);
}

double Histogram::max() const noexcept {
  return count() == 0 ? 0.0 : max_.load(std::memory_order_relaxed);
}

Json Histogram::to_json() const {
  Json j = Json::object();
  j["count"] = count();
  j["sum"] = sum();
  j["min"] = min();
  j["max"] = max();
  j["p50"] = quantile(0.50);
  j["p90"] = quantile(0.90);
  j["p95"] = quantile(0.95);
  j["p99"] = quantile(0.99);
  Json buckets = Json::array();
  for (int i = 0; i < kBucketCount; ++i) {
    const std::uint64_t c =
        buckets_[static_cast<std::size_t>(i)].load(std::memory_order_relaxed);
    if (c == 0) continue;
    Json b = Json::object();
    b["le"] = bucket_upper(i);
    b["count"] = c;
    buckets.push_back(std::move(b));
  }
  j["buckets"] = std::move(buckets);
  return j;
}

// -- Gauge --------------------------------------------------------------------

void Gauge::set(std::int64_t v) noexcept {
  value_.store(v, std::memory_order_relaxed);
  atomic_max_i64(peak_, v);
}

void Gauge::add(std::int64_t delta) noexcept {
  const std::int64_t now =
      value_.fetch_add(delta, std::memory_order_relaxed) + delta;
  if (delta > 0) atomic_max_i64(peak_, now);
}

Json Gauge::to_json() const {
  Json j = Json::object();
  j["value"] = value();
  j["peak"] = peak();
  return j;
}

// -- WindowedHistogram --------------------------------------------------------

WindowedHistogram::WindowedHistogram(std::int64_t slot_millis) noexcept
    : slot_millis_(slot_millis > 0 ? slot_millis : kDefaultSlotMillis) {}

std::int64_t WindowedHistogram::now_millis() noexcept {
  return std::chrono::duration_cast<std::chrono::milliseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

void WindowedHistogram::record_at(double value, std::int64_t now_ms) noexcept {
  // Cumulative view first: it never loses an observation, whatever the
  // rotation below does.
  cumulative_.record(value);
  const std::int64_t epoch = now_ms / slot_millis_;
  Slot& slot = slots_[static_cast<std::size_t>(
      epoch % static_cast<std::int64_t>(kSlots))];
  std::int64_t seen = slot.epoch.load(std::memory_order_relaxed);
  if (seen != epoch) {
    // First touch of this slot in a new epoch: the CAS winner clears the
    // stale contents. A record racing the clear may be partially lost from
    // the window (documented; the cumulative view above is exact).
    if (slot.epoch.compare_exchange_strong(seen, epoch,
                                           std::memory_order_relaxed)) {
      slot.hist.reset();
    }
  }
  slot.hist.record(value);
}

void WindowedHistogram::merge_window_at(Histogram& out,
                                        std::int64_t now_ms) const noexcept {
  const std::int64_t current = now_ms / slot_millis_;
  const std::int64_t oldest = current - static_cast<std::int64_t>(kSlots) + 1;
  for (const Slot& slot : slots_) {
    const std::int64_t epoch = slot.epoch.load(std::memory_order_relaxed);
    if (epoch >= oldest && epoch <= current) out.merge_from(slot.hist);
  }
}

double WindowedHistogram::window_quantile_at(double q,
                                             std::int64_t now_ms) const
    noexcept {
  Histogram merged;
  merge_window_at(merged, now_ms);
  return merged.quantile(q);  // 0 when the window is empty
}

std::uint64_t WindowedHistogram::window_count_at(std::int64_t now_ms) const
    noexcept {
  Histogram merged;
  merge_window_at(merged, now_ms);
  return merged.count();
}

void WindowedHistogram::reset() noexcept {
  for (Slot& slot : slots_) {
    slot.epoch.store(-1, std::memory_order_relaxed);
    slot.hist.reset();
  }
  cumulative_.reset();
}

Json WindowedHistogram::to_json_at(std::int64_t now_ms) const {
  Histogram merged;
  merge_window_at(merged, now_ms);
  Json window = Json::object();
  window["count"] = merged.count();
  window["p50"] = merged.quantile(0.50);
  window["p90"] = merged.quantile(0.90);
  window["p99"] = merged.quantile(0.99);
  Json j = Json::object();
  j["slot_ms"] = slot_millis_;
  j["slots"] = kSlots;
  j["window"] = std::move(window);
  j["cumulative"] = cumulative_.to_json();
  return j;
}

// -- MetricsRegistry ----------------------------------------------------------

void MetricsRegistry::Counter::update_max(std::uint64_t v) noexcept {
  if (!enabled_.load(std::memory_order_relaxed)) return;
  std::uint64_t seen = value_.load(std::memory_order_relaxed);
  while (seen < v &&
         !value_.compare_exchange_weak(seen, v, std::memory_order_relaxed)) {
  }
}

void MetricsRegistry::Span::record(double seconds) noexcept {
  if (!enabled()) return;
  const double clamped = seconds > 0 ? seconds : 0;
  add_nanos(
      static_cast<std::uint64_t>(std::llround(clamped * kNanosPerSecond)));
}

double MetricsRegistry::Span::seconds() const noexcept {
  return static_cast<double>(nanos_.load(std::memory_order_relaxed)) /
         kNanosPerSecond;
}

MetricsRegistry::Counter& MetricsRegistry::counter(std::string_view name) {
  const MutexLock lock(mu_);
  return resolve_cell(counters_, name, enabled_);
}

void MetricsRegistry::add(std::string_view name, std::uint64_t delta) {
  if (enabled()) counter(name).add(delta);
}

void MetricsRegistry::update_max(std::string_view name, std::uint64_t v) {
  if (enabled()) counter(name).update_max(v);
}

std::uint64_t MetricsRegistry::value(std::string_view name) const {
  const MutexLock lock(mu_);
  const Counter* cell = find_cell(counters_, name);
  return cell == nullptr ? 0 : cell->value();
}

MetricsRegistry::Span& MetricsRegistry::span(std::string_view name) {
  const MutexLock lock(mu_);
  return resolve_cell(spans_, name, enabled_);
}

void MetricsRegistry::record_span(std::string_view name, double seconds) {
  if (enabled()) span(name).record(seconds);
}

double MetricsRegistry::span_seconds(std::string_view name) const {
  const MutexLock lock(mu_);
  const Span* cell = find_cell(spans_, name);
  return cell == nullptr ? 0.0 : cell->seconds();
}

std::uint64_t MetricsRegistry::span_count(std::string_view name) const {
  const MutexLock lock(mu_);
  const Span* cell = find_cell(spans_, name);
  return cell == nullptr ? 0 : cell->count();
}

Gauge& MetricsRegistry::gauge(std::string_view name) {
  const MutexLock lock(mu_);
  return resolve_cell(gauges_, name);
}

MetricsRegistry::Distribution& MetricsRegistry::distribution(
    std::string_view name) {
  const MutexLock lock(mu_);
  return resolve_cell(distributions_, name, enabled_);
}

void MetricsRegistry::observe(std::string_view name, double value) {
  if (enabled()) distribution(name).observe(value);
}

const Histogram& MetricsRegistry::histogram(std::string_view name) {
  return distribution(name).cumulative();
}

void MetricsRegistry::reset() {
  const MutexLock lock(mu_);
  for (auto& [name, cell] : counters_) cell->reset();
  for (auto& [name, cell] : spans_) cell->reset();
  for (auto& [name, cell] : gauges_) cell->reset();
  for (auto& [name, cell] : distributions_) cell->reset();
  // snapshot_seq_ deliberately survives: consumers order dumps by it and
  // detect the reset from counters moving backwards.
}

Json MetricsRegistry::to_json() const {
  const MutexLock lock(mu_);
  Json counters = Json::object();
  for (const auto& [name, cell] : counters_) counters[name] = cell->value();
  Json gauges = Json::object();
  for (const auto& [name, cell] : gauges_) gauges[name] = cell->to_json();
  Json spans = Json::object();
  for (const auto& [name, cell] : spans_) {
    Json entry = Json::object();
    entry["count"] = cell->count();
    entry["seconds"] = cell->seconds();
    spans[name] = std::move(entry);
  }
  Json histograms = Json::object();
  Json windowed = Json::object();
  for (const auto& [name, cell] : distributions_) {
    histograms[name] = cell->cumulative().to_json();
    windowed[name] = cell->to_json();
  }
  Json out = Json::object();
  out["enabled"] = enabled();
  out["snapshot_seq"] =
      snapshot_seq_.fetch_add(1, std::memory_order_relaxed) + 1;
  out["counters"] = std::move(counters);
  out["gauges"] = std::move(gauges);
  out["spans"] = std::move(spans);
  out["histograms"] = std::move(histograms);
  out["window_quantiles"] = std::move(windowed);
  return out;
}

Json MetricsRegistry::telemetry_sample() const {
  const MutexLock lock(mu_);
  Json counters = Json::object();
  for (const auto& [name, cell] : counters_) counters[name] = cell->value();
  Json gauges = Json::object();
  for (const auto& [name, cell] : gauges_) gauges[name] = cell->value();
  Json windowed = Json::object();
  for (const auto& [name, cell] : distributions_) {
    const std::int64_t now_ms = WindowedHistogram::now_millis();
    Json entry = Json::object();
    entry["count"] = cell->window_count_at(now_ms);
    entry["p50"] = cell->window_quantile_at(0.50, now_ms);
    entry["p90"] = cell->window_quantile_at(0.90, now_ms);
    entry["p99"] = cell->window_quantile_at(0.99, now_ms);
    const Histogram& cumulative = cell->cumulative();
    entry["cumulative_count"] = cumulative.count();
    entry["cumulative_p50"] = cumulative.quantile(0.50);
    entry["cumulative_p99"] = cumulative.quantile(0.99);
    windowed[name] = std::move(entry);
  }
  Json out = Json::object();
  out["counters"] = std::move(counters);
  out["gauges"] = std::move(gauges);
  out["window_quantiles"] = std::move(windowed);
  return out;
}

MetricsRegistry& MetricsRegistry::global() {
  static MetricsRegistry registry;
  return registry;
}

}  // namespace extdict::util
