#include "serve/encode_cache.hpp"

#include <algorithm>
#include <cstring>

#include "util/hash.hpp"
#include "util/metrics.hpp"

namespace extdict::serve {

std::uint64_t EncodeCacheKey::hash() const noexcept {
  std::uint64_t h = util::hash_reals(signal);
  h = util::hash_mix(h, dict_epoch);
  h = util::hash_real(h, tolerance);
  h = util::hash_mix(h, static_cast<std::uint64_t>(max_atoms));
  return h;
}

bool EncodeCacheKey::operator==(const EncodeCacheKey& other) const noexcept {
  if (dict_epoch != other.dict_epoch || max_atoms != other.max_atoms ||
      signal.size() != other.signal.size()) {
    return false;
  }
  // Bitwise compares throughout: the cache's contract is "the exact same
  // request", so -0.0 vs 0.0 or differently-signed NaNs are different keys
  // (operator== on double would also reject every NaN-bearing key from
  // ever hitting, including against itself).
  if (std::memcmp(&tolerance, &other.tolerance, sizeof(tolerance)) != 0) {
    return false;
  }
  return signal.empty() ||
         std::memcmp(signal.data(), other.signal.data(),
                     signal.size() * sizeof(Real)) == 0;
}

EncodeCache::EncodeCache(std::size_t capacity, std::size_t shards)
    : capacity_(std::max<std::size_t>(capacity, 1)),
      hits_(util::MetricsRegistry::global().counter("serve.cache.hits")),
      misses_(util::MetricsRegistry::global().counter("serve.cache.misses")),
      insertions_(
          util::MetricsRegistry::global().counter("serve.cache.insertions")),
      evictions_(
          util::MetricsRegistry::global().counter("serve.cache.evictions")),
      entries_gauge_(
          util::MetricsRegistry::global().gauge("serve.cache.entries")),
      resident_bytes_gauge_(
          util::MetricsRegistry::global().gauge("serve.cache.resident_bytes")) {
  const std::size_t n = std::clamp<std::size_t>(shards, 1, capacity_);
  const std::size_t per_shard = (capacity_ + n - 1) / n;  // ceil
  shards_.reserve(n);
  for (std::size_t s = 0; s < n; ++s) {
    shards_.push_back(std::make_unique<Shard>());
    shards_.back()->capacity = per_shard;
  }
}

EncodeCache::~EncodeCache() {
  // The occupancy gauges are process-global but this cache's entries die
  // with it: return the levels so a later server starts from zero instead
  // of inheriting a phantom footprint.
  entries_gauge_.sub(
      static_cast<std::int64_t>(entries_.load(std::memory_order_relaxed)));
  resident_bytes_gauge_.sub(resident_bytes_.load(std::memory_order_relaxed));
}

std::uint64_t EncodeCache::entry_bytes(const Entry& entry) noexcept {
  return entry.key.signal.size() * sizeof(Real) +
         entry.code.entries.size() *
             sizeof(decltype(entry.code.entries)::value_type);
}

std::optional<sparsecoding::SparseCode> EncodeCache::lookup(
    const EncodeCacheKey& key) {
  const std::uint64_t h = key.hash();
  Shard& shard = shard_for(h);
  std::optional<sparsecoding::SparseCode> found;
  {
    const util::MutexLock lock(shard.mu);
    const auto [first, last] = shard.index.equal_range(h);
    for (auto it = first; it != last; ++it) {
      if (it->second->key == key) {  // collision-safe: full-key compare
        shard.lru.splice(shard.lru.begin(), shard.lru, it->second);
        found = it->second->code;
        break;
      }
    }
  }
  (found.has_value() ? hits_ : misses_).add(1);
  return found;
}

void EncodeCache::insert(const EncodeCacheKey& key,
                         const sparsecoding::SparseCode& code) {
  const std::uint64_t h = key.hash();
  Shard& shard = shard_for(h);
  bool inserted = false;
  bool evicted = false;
  std::int64_t bytes_delta = 0;
  {
    const util::MutexLock lock(shard.mu);
    const auto [first, last] = shard.index.equal_range(h);
    auto existing = last;
    for (auto it = first; it != last; ++it) {
      if (it->second->key == key) {
        existing = it;
        break;
      }
    }
    if (existing != last) {
      // Duplicate insert (two batches raced on the same miss): refresh.
      bytes_delta -= static_cast<std::int64_t>(entry_bytes(*existing->second));
      existing->second->code = code;
      bytes_delta += static_cast<std::int64_t>(entry_bytes(*existing->second));
      shard.lru.splice(shard.lru.begin(), shard.lru, existing->second);
    } else {
      if (shard.lru.size() >= shard.capacity) {
        // Evict the LRU tail; find its index node among its hash's bucket.
        const auto victim = std::prev(shard.lru.end());
        const auto [vfirst, vlast] = shard.index.equal_range(victim->key.hash());
        for (auto it = vfirst; it != vlast; ++it) {
          if (it->second == victim) {
            shard.index.erase(it);
            break;
          }
        }
        bytes_delta -= static_cast<std::int64_t>(entry_bytes(*victim));
        shard.lru.pop_back();
        evicted = true;
      }
      shard.lru.push_front(Entry{key, code});
      bytes_delta += static_cast<std::int64_t>(entry_bytes(shard.lru.front()));
      shard.index.emplace(h, shard.lru.begin());
      inserted = true;
    }
  }
  if (inserted) {
    insertions_.add(1);
    if (!evicted) {
      entries_.fetch_add(1, std::memory_order_relaxed);
      entries_gauge_.add(1);
    }
  }
  if (evicted) evictions_.add(1);
  if (bytes_delta != 0) {
    resident_bytes_.fetch_add(bytes_delta, std::memory_order_relaxed);
    resident_bytes_gauge_.add(bytes_delta);
  }
}

EncodeCacheStats EncodeCache::stats() const noexcept {
  EncodeCacheStats s;
  s.hits = hits_.value();
  s.misses = misses_.value();
  s.insertions = insertions_.value();
  s.evictions = evictions_.value();
  s.entries = entries_.load(std::memory_order_relaxed);
  const std::int64_t bytes = resident_bytes_.load(std::memory_order_relaxed);
  s.resident_bytes = bytes > 0 ? static_cast<std::uint64_t>(bytes) : 0;
  return s;
}

}  // namespace extdict::serve
