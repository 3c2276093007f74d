#pragma once

#include <atomic>
#include <cstdint>
#include <list>
#include <memory>
#include <optional>
#include <span>
#include <unordered_map>
#include <vector>

#include "la/types.hpp"
#include "sparsecoding/omp.hpp"
#include "util/metrics.hpp"
#include "util/sync.hpp"

namespace extdict::serve {

using la::Index;
using la::Real;

/// Full identity of a cached encode: the exact signal bits, the dictionary
/// epoch the code was computed against, and the effective stopping rule.
/// Two keys are equal only if all four components match bit-for-bit — the
/// hash picks the shard and bucket, equality always re-checks the whole key
/// (a hash collision can cost a miss, never return the wrong code).
struct EncodeCacheKey {
  std::vector<Real> signal;
  std::uint64_t dict_epoch = 0;
  Real tolerance = 0;   ///< effective ε (server default already applied)
  Index max_atoms = 0;  ///< effective cap (server default already applied)

  [[nodiscard]] std::uint64_t hash() const noexcept;
  [[nodiscard]] bool operator==(const EncodeCacheKey& other) const noexcept;
};

/// Point-in-time cache accounting. hits + misses == lookups; entries is the
/// current resident count (≤ capacity); resident_bytes is the summed payload
/// footprint (signal + sparse-code entries) of everything resident.
struct EncodeCacheStats {
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
  std::uint64_t insertions = 0;
  std::uint64_t evictions = 0;
  std::uint64_t entries = 0;
  std::uint64_t resident_bytes = 0;
};

/// Sharded, content-addressed LRU cache of sparse codes, dist-clang style:
/// the key is hash(signal bits) · dict-epoch · (ε, max_atoms), the value is
/// the finished SparseCode. `ExtDictServer::submit` consults it before
/// enqueueing; workers insert after each successful batch encode.
///
/// Sharding: a key's hash picks one of `shards` independent LRU maps, each
/// behind its own leaf `util::Mutex`, so concurrent clients on different
/// shards never contend. Within a shard, lookups move the entry to the LRU
/// front and insertion evicts from the back once the shard is full.
///
/// Accounting is exact: the struct's own atomics (always on, queried via
/// `stats()`), the `serve.cache.*` counters, and the occupancy gauges
/// (`serve.cache.entries`, `serve.cache.resident_bytes` — live levels for
/// the telemetry snapshotter) in `MetricsRegistry::global()` are all updated
/// on every lookup/insert/evict, through cells resolved at construction.
/// Accounting happens after the shard lock is released.
class EncodeCache {
 public:
  /// `capacity` is the total entry budget across all shards (rounded up to
  /// at least one entry per shard); `shards` is clamped to [1, capacity].
  explicit EncodeCache(std::size_t capacity, std::size_t shards = 8);

  /// Returns the resident entries/bytes levels to the global occupancy
  /// gauges (the cache's contents die with it).
  ~EncodeCache();

  EncodeCache(const EncodeCache&) = delete;
  EncodeCache& operator=(const EncodeCache&) = delete;

  /// Returns the cached code and refreshes its LRU position, or nullopt.
  [[nodiscard]] std::optional<sparsecoding::SparseCode> lookup(
      const EncodeCacheKey& key);

  /// Inserts (or refreshes) `key → code`, evicting the shard's LRU tail if
  /// full. A concurrent duplicate insert updates the existing entry in
  /// place rather than double-counting it.
  void insert(const EncodeCacheKey& key, const sparsecoding::SparseCode& code);

  [[nodiscard]] EncodeCacheStats stats() const noexcept;
  [[nodiscard]] std::size_t capacity() const noexcept { return capacity_; }
  [[nodiscard]] std::size_t shard_count() const noexcept {
    return shards_.size();
  }

 private:
  struct Entry {
    EncodeCacheKey key;
    sparsecoding::SparseCode code;
  };
  struct Shard {
    util::Mutex mu;
    // Front = most recently used. The index maps the key hash to LRU nodes;
    // a multimap because distinct keys may share a hash.
    std::list<Entry> lru EXTDICT_GUARDED_BY(mu);
    std::unordered_multimap<std::uint64_t, std::list<Entry>::iterator> index
        EXTDICT_GUARDED_BY(mu);
    std::size_t capacity = 0;  // immutable after construction
  };

  [[nodiscard]] Shard& shard_for(std::uint64_t hash) const noexcept {
    return *shards_[static_cast<std::size_t>(hash) % shards_.size()];
  }

  /// Payload footprint of one resident entry (key signal + code entries).
  [[nodiscard]] static std::uint64_t entry_bytes(const Entry& entry) noexcept;

  std::size_t capacity_;
  // unique_ptr: Shard owns a Mutex and is therefore pinned in memory.
  std::vector<std::unique_ptr<Shard>> shards_;

  util::Tally hits_, misses_, insertions_, evictions_;
  std::atomic<std::uint64_t> entries_{0};
  std::atomic<std::int64_t> resident_bytes_{0};
  util::Gauge& entries_gauge_;
  util::Gauge& resident_bytes_gauge_;
};

}  // namespace extdict::serve
