#include "util/trace.hpp"

#include <algorithm>
#include <map>
#include <string>

namespace extdict::util {

namespace {

/// TLS registration: each thread caches (recorder, buffer) pairs it has
/// written to. The id disambiguates a stack-allocated recorder whose address
/// gets reused after destruction (tests) — a stale entry then misses and the
/// thread registers a fresh buffer with the new recorder.
struct TlsEntry {
  const void* recorder = nullptr;
  std::uint64_t id = 0;
  void* buffer = nullptr;
};

using Clock = std::chrono::steady_clock;

std::uint64_t nanos(Clock::duration d) {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(d).count());
}

thread_local std::vector<TlsEntry> tls_entries;
thread_local std::int32_t tls_rank = TraceRecorder::kHostPid;

std::atomic<std::uint64_t> next_recorder_id{1};

}  // namespace

/// One thread's bounded event ring. Single writer (the owning thread);
/// `size` is released after each write so a post-join reader sees complete
/// events. Overflow drops the new event — older events are never clobbered.
struct TraceRecorder::ThreadBuffer {
  ThreadBuffer(std::size_t capacity, std::int32_t rank_at_creation,
               std::size_t registration_seq)
      : events(capacity), rank(rank_at_creation), seq(registration_seq) {}

  std::vector<Event> events;
  std::atomic<std::size_t> size{0};
  std::atomic<std::uint64_t> dropped{0};
  std::int32_t rank;
  std::size_t seq;
};

TraceRecorder::TraceRecorder()
    : epoch_(std::chrono::steady_clock::now()),
      id_(next_recorder_id.fetch_add(1, std::memory_order_relaxed)) {}

TraceRecorder::~TraceRecorder() = default;

void TraceRecorder::set_capacity(std::size_t events_per_thread) {
  const MutexLock lock(mu_);
  capacity_ = events_per_thread;
}

void TraceRecorder::set_thread_rank(std::int32_t rank) {
  tls_rank = rank;
  // Preallocate the buffer now (rank startup), so the first metered phase
  // does not pay the registration. Only when events would actually land.
  if (enabled()) (void)thread_buffer();
}

std::int32_t TraceRecorder::thread_rank() noexcept { return tls_rank; }

TraceRecorder::ThreadBuffer& TraceRecorder::thread_buffer() {
  for (const TlsEntry& entry : tls_entries) {
    if (entry.recorder == this && entry.id == id_) {
      return *static_cast<ThreadBuffer*>(entry.buffer);
    }
  }
  ThreadBuffer* buffer = nullptr;
  {
    const MutexLock lock(mu_);
    buffers_.push_back(
        std::make_unique<ThreadBuffer>(capacity_, tls_rank, buffers_.size()));
    buffer = buffers_.back().get();
  }
  for (TlsEntry& entry : tls_entries) {
    if (entry.recorder == this) {  // stale id: recorder address was reused
      entry = TlsEntry{this, id_, buffer};
      return *buffer;
    }
  }
  tls_entries.push_back(TlsEntry{this, id_, buffer});
  return *buffer;
}

void TraceRecorder::record(EventKind kind,
                           std::chrono::steady_clock::time_point at,
                           std::string_view name, std::string_view key0,
                           std::uint64_t value0, std::string_view key1,
                           std::uint64_t value1) {
  ThreadBuffer& buffer = thread_buffer();
  const std::size_t i = buffer.size.load(std::memory_order_relaxed);
  if (i >= buffer.events.size()) {
    buffer.dropped.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  Event& e = buffer.events[i];
  e.kind = kind;
  e.ts_ns = nanos(at - epoch_);
  e.name = name;
  e.key0 = key0;
  e.key1 = key1;
  e.value0 = value0;
  e.value1 = value1;
  buffer.size.store(i + 1, std::memory_order_release);
}

void TraceRecorder::instant(std::string_view name, std::string_view key0,
                            std::uint64_t value0) {
  if (!enabled()) return;
  record(EventKind::kInstant, Clock::now(), name, key0, value0);
}

void TraceRecorder::counter(std::string_view name, std::uint64_t value) {
  if (!enabled()) return;
  record(EventKind::kCounter, Clock::now(), name, "value", value);
}

std::uint64_t TraceRecorder::recorded_events() const {
  const MutexLock lock(mu_);
  std::uint64_t total = 0;
  for (const auto& buffer : buffers_) {
    total += buffer->size.load(std::memory_order_acquire);
  }
  return total;
}

std::uint64_t TraceRecorder::dropped_events() const {
  const MutexLock lock(mu_);
  std::uint64_t total = 0;
  for (const auto& buffer : buffers_) {
    total += buffer->dropped.load(std::memory_order_relaxed);
  }
  return total;
}

std::vector<std::pair<std::int32_t, std::uint64_t>>
TraceRecorder::rank_event_counts() const {
  const MutexLock lock(mu_);
  std::map<std::int32_t, std::uint64_t> counts;
  for (const auto& buffer : buffers_) {
    const std::size_t size = buffer->size.load(std::memory_order_acquire);
    if (size > 0) counts[buffer->rank] += size;
  }
  return {counts.begin(), counts.end()};
}

void TraceRecorder::set_metadata(std::string_view key, Json value) {
  const MutexLock lock(mu_);
  for (auto& [existing, v] : metadata_) {
    if (existing == key) {
      v = std::move(value);
      return;
    }
  }
  metadata_.emplace_back(std::string(key), std::move(value));
}

void TraceRecorder::clear() {
  const MutexLock lock(mu_);
  for (auto& buffer : buffers_) {
    buffer->size.store(0, std::memory_order_relaxed);
    buffer->dropped.store(0, std::memory_order_relaxed);
  }
}

Json TraceRecorder::to_chrome_json() const {
  const MutexLock lock(mu_);

  // Snapshot sizes once so the emitted arrays and the otherData totals agree
  // even if a stray writer is still live.
  std::vector<std::size_t> sizes(buffers_.size());
  std::uint64_t recorded = 0, dropped = 0;
  for (std::size_t b = 0; b < buffers_.size(); ++b) {
    sizes[b] = buffers_[b]->size.load(std::memory_order_acquire);
    recorded += sizes[b];
    dropped += buffers_[b]->dropped.load(std::memory_order_relaxed);
  }

  Json events = Json::array();

  // Lane metadata first: one process per rank (pid == rank; untagged threads
  // share the kHostPid lane), one named thread per buffer.
  std::map<std::int32_t, std::uint64_t> rank_counts;
  for (std::size_t b = 0; b < buffers_.size(); ++b) {
    if (sizes[b] > 0) rank_counts[buffers_[b]->rank] += sizes[b];
  }
  for (const auto& [rank, count] : rank_counts) {
    Json name_args = Json::object();
    name_args["name"] = rank == kHostPid
                            ? std::string("host")
                            : "rank " + std::to_string(rank);
    Json name_ev = Json::object();
    name_ev["name"] = "process_name";
    name_ev["ph"] = "M";
    name_ev["pid"] = static_cast<std::int64_t>(rank);
    name_ev["tid"] = 0;
    name_ev["args"] = std::move(name_args);
    events.push_back(std::move(name_ev));

    Json sort_args = Json::object();
    sort_args["sort_index"] = static_cast<std::int64_t>(rank);
    Json sort_ev = Json::object();
    sort_ev["name"] = "process_sort_index";
    sort_ev["ph"] = "M";
    sort_ev["pid"] = static_cast<std::int64_t>(rank);
    sort_ev["tid"] = 0;
    sort_ev["args"] = std::move(sort_args);
    events.push_back(std::move(sort_ev));
  }
  for (std::size_t b = 0; b < buffers_.size(); ++b) {
    if (sizes[b] == 0) continue;
    Json args = Json::object();
    args["name"] = "worker " + std::to_string(buffers_[b]->seq);
    Json ev = Json::object();
    ev["name"] = "thread_name";
    ev["ph"] = "M";
    ev["pid"] = static_cast<std::int64_t>(buffers_[b]->rank);
    ev["tid"] = static_cast<std::uint64_t>(buffers_[b]->seq);
    ev["args"] = std::move(args);
    events.push_back(std::move(ev));
  }

  for (std::size_t b = 0; b < buffers_.size(); ++b) {
    const ThreadBuffer& buffer = *buffers_[b];
    for (std::size_t i = 0; i < sizes[b]; ++i) {
      const Event& e = buffer.events[i];
      Json ev = Json::object();
      ev["name"] = e.name;
      switch (e.kind) {
        case EventKind::kBegin: ev["ph"] = "B"; break;
        case EventKind::kEnd: ev["ph"] = "E"; break;
        case EventKind::kInstant: ev["ph"] = "i"; break;
        case EventKind::kCounter: ev["ph"] = "C"; break;
      }
      ev["ts"] = static_cast<double>(e.ts_ns) / 1e3;  // Chrome: microseconds
      ev["pid"] = static_cast<std::int64_t>(buffer.rank);
      ev["tid"] = static_cast<std::uint64_t>(buffer.seq);
      if (e.kind == EventKind::kInstant) ev["s"] = "t";  // thread-scoped
      if (!e.key0.empty() || !e.key1.empty()) {
        Json args = Json::object();
        if (!e.key0.empty()) args[e.key0] = e.value0;
        if (!e.key1.empty()) args[e.key1] = e.value1;
        ev["args"] = std::move(args);
      }
      events.push_back(std::move(ev));
    }
  }

  Json other = Json::object();
  for (const auto& [key, value] : metadata_) other[key] = value;
  other["recorded_events"] = recorded;
  other["dropped_events"] = dropped;
  Json rank_events = Json::object();
  for (const auto& [rank, count] : rank_counts) {
    rank_events[std::to_string(rank)] = count;
  }
  other["rank_events"] = std::move(rank_events);

  Json doc = Json::object();
  doc["displayTimeUnit"] = "ms";
  doc["otherData"] = std::move(other);
  doc["traceEvents"] = std::move(events);
  return doc;
}

void TraceScope::open(TraceRecorder* recorder, std::string_view name,
                      std::string_view key0, std::uint64_t value0,
                      std::string_view key1, std::uint64_t value1) {
  begin_ = Clock::now();
  if (recorder == nullptr) return;
  recorder_ = recorder;
  name_ = name;
  recorder->record(TraceRecorder::EventKind::kBegin, begin_, name, key0,
                   value0, key1, value1);
}

void TraceScope::close() {
  const Clock::time_point end = Clock::now();
  if (span_ != nullptr) span_->add_nanos(nanos(end - begin_));
  if (recorder_ != nullptr) {
    recorder_->record(TraceRecorder::EventKind::kEnd, end, name_, end_key_,
                      end_value_);
  }
}

TraceRecorder& TraceRecorder::global() {
  static TraceRecorder recorder;
  return recorder;
}

}  // namespace extdict::util
