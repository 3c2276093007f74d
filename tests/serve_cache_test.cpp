// EncodeCache contracts: content addressing discriminates every key
// component (signal bits, dictionary epoch, effective ε, effective
// max_atoms), a bit-identical resubmission hits and returns the exact
// Batch-OMP code, LRU eviction and the hit/miss/evict accounting are exact,
// and the server-level fast path keeps every ServerStats identity.

#include "serve/encode_cache.hpp"

#include <gtest/gtest.h>

#include <cstring>
#include <future>
#include <vector>

#include "la/random.hpp"
#include "serve/server.hpp"
#include "sparsecoding/batch_omp.hpp"
#include "util/hash.hpp"

namespace extdict::serve {
namespace {

using la::Matrix;
using la::Rng;
using la::Vector;
using sparsecoding::BatchOmp;
using sparsecoding::OmpConfig;
using sparsecoding::SparseCode;

Vector test_signal(Index m, unsigned seed) {
  Rng rng(seed);
  Vector x(m);
  rng.fill_gaussian(x);
  return x;
}

EncodeCacheKey key_of(const Vector& signal, std::uint64_t epoch,
                      Real tolerance, Index max_atoms) {
  EncodeCacheKey key;
  key.signal = signal;
  key.dict_epoch = epoch;
  key.tolerance = tolerance;
  key.max_atoms = max_atoms;
  return key;
}

SparseCode code_with(Index atom, Real value) {
  SparseCode code;
  code.entries.emplace_back(atom, value);
  code.iterations = 1;
  return code;
}

TEST(EncodeCacheKey, DiscriminatesEveryComponent) {
  const Vector signal = test_signal(16, 3);
  const EncodeCacheKey base = key_of(signal, 1, 0.1, 4);

  EXPECT_TRUE(base == key_of(signal, 1, 0.1, 4));

  Vector other = signal;
  other[7] = std::nextafter(other[7], 2.0);  // one ulp: a different signal
  EXPECT_FALSE(base == key_of(other, 1, 0.1, 4));
  EXPECT_FALSE(base == key_of(signal, 2, 0.1, 4));  // different epoch
  EXPECT_FALSE(base == key_of(signal, 1, 0.05, 4)); // different ε
  EXPECT_FALSE(base == key_of(signal, 1, 0.1, 5));  // different cap
}

TEST(EncodeCacheKey, EqualKeysHashEqual) {
  const Vector signal = test_signal(24, 5);
  EXPECT_EQ(key_of(signal, 3, 0.2, 6).hash(), key_of(signal, 3, 0.2, 6).hash());
  // Not a correctness requirement, but the components must actually feed
  // the hash or every epoch/config variant lands in one bucket chain.
  EXPECT_NE(key_of(signal, 3, 0.2, 6).hash(), key_of(signal, 4, 0.2, 6).hash());
  EXPECT_NE(key_of(signal, 3, 0.2, 6).hash(), key_of(signal, 3, 0.1, 6).hash());
}

TEST(EncodeCache, MissThenHitWithExactAccounting) {
  EncodeCache cache(8, 2);
  const Vector signal = test_signal(16, 7);
  const EncodeCacheKey key = key_of(signal, 0, 0.1, 4);

  EXPECT_FALSE(cache.lookup(key).has_value());
  cache.insert(key, code_with(3, 1.5));
  const auto hit = cache.lookup(key);
  ASSERT_TRUE(hit.has_value());
  ASSERT_EQ(hit->entries.size(), 1u);
  EXPECT_EQ(hit->entries[0].first, 3);
  EXPECT_EQ(hit->entries[0].second, 1.5);

  const EncodeCacheStats s = cache.stats();
  EXPECT_EQ(s.hits, 1u);
  EXPECT_EQ(s.misses, 1u);
  EXPECT_EQ(s.insertions, 1u);
  EXPECT_EQ(s.evictions, 0u);
  EXPECT_EQ(s.entries, 1u);
}

TEST(EncodeCache, KeyVariantsMissIndependently) {
  EncodeCache cache(16, 1);
  const Vector signal = test_signal(16, 9);
  cache.insert(key_of(signal, 0, 0.1, 4), code_with(0, 1.0));

  // Same signal under any other epoch / stopping rule must miss.
  EXPECT_FALSE(cache.lookup(key_of(signal, 1, 0.1, 4)).has_value());
  EXPECT_FALSE(cache.lookup(key_of(signal, 0, 0.2, 4)).has_value());
  EXPECT_FALSE(cache.lookup(key_of(signal, 0, 0.1, 8)).has_value());
  EXPECT_TRUE(cache.lookup(key_of(signal, 0, 0.1, 4)).has_value());
}

TEST(EncodeCache, LruEvictsOldestAndRefreshesOnHit) {
  EncodeCache cache(2, 1);  // one shard, two entries
  const Vector a = test_signal(8, 1), b = test_signal(8, 2),
               c = test_signal(8, 3);
  cache.insert(key_of(a, 0, 0.1, 2), code_with(0, 1.0));
  cache.insert(key_of(b, 0, 0.1, 2), code_with(1, 1.0));
  // Touch `a` so `b` becomes the LRU tail, then overflow with `c`.
  EXPECT_TRUE(cache.lookup(key_of(a, 0, 0.1, 2)).has_value());
  cache.insert(key_of(c, 0, 0.1, 2), code_with(2, 1.0));

  EXPECT_TRUE(cache.lookup(key_of(a, 0, 0.1, 2)).has_value());
  EXPECT_FALSE(cache.lookup(key_of(b, 0, 0.1, 2)).has_value());  // evicted
  EXPECT_TRUE(cache.lookup(key_of(c, 0, 0.1, 2)).has_value());

  const EncodeCacheStats s = cache.stats();
  EXPECT_EQ(s.evictions, 1u);
  EXPECT_EQ(s.entries, 2u);
  EXPECT_EQ(s.insertions, 3u);
}

TEST(EncodeCache, DuplicateInsertRefreshesInPlace) {
  EncodeCache cache(4, 1);
  const Vector a = test_signal(8, 4);
  cache.insert(key_of(a, 0, 0.1, 2), code_with(0, 1.0));
  cache.insert(key_of(a, 0, 0.1, 2), code_with(0, 2.0));
  const auto hit = cache.lookup(key_of(a, 0, 0.1, 2));
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(hit->entries[0].second, 2.0);
  EXPECT_EQ(cache.stats().entries, 1u);   // refreshed, not duplicated
  EXPECT_EQ(cache.stats().insertions, 1u);
}

// -- Server-level fast path ---------------------------------------------------

TEST(ServerCache, RepeatHitsMatchDirectBatchOmp) {
  const Index m = 16, l = 48;
  Rng rng(21);
  const Matrix dict = rng.gaussian_matrix(m, l, true);
  const OmpConfig omp{.tolerance = 0.0, .max_atoms = 4};
  ExtDictServer server(dict, {.max_batch = 4,
                              .workers = 1,
                              .omp = omp,
                              .cache_capacity = 64});
  const BatchOmp direct(dict, omp);

  const Vector signal = test_signal(m, 31);
  const SparseCode want = direct.encode(signal);

  // First submission: a miss, batch-encoded.
  EncodeResult first = server.submit(signal).get();
  EXPECT_FALSE(first.cache_hit);
  EXPECT_EQ(first.dict_epoch, 0u);

  // Bit-identical resubmission: a hit, and the code is the direct encode.
  EncodeResult second = server.submit(signal).get();
  EXPECT_TRUE(second.cache_hit);
  EXPECT_EQ(second.dict_epoch, 0u);
  EXPECT_EQ(second.batch_columns, 0);
  ASSERT_EQ(second.code.entries.size(), want.entries.size());
  for (std::size_t k = 0; k < want.entries.size(); ++k) {
    EXPECT_EQ(second.code.entries[k].first, want.entries[k].first);
    EXPECT_NEAR(second.code.entries[k].second, want.entries[k].second, 1e-12);
  }
  EXPECT_NEAR(second.code.residual_norm, want.residual_norm, 1e-12);

  server.stop();
  const ServerStats s = server.stats();
  EXPECT_EQ(s.submitted, 2u);
  EXPECT_EQ(s.cache_hits, 1u);
  EXPECT_EQ(s.served, 1u);
  EXPECT_EQ(s.submitted,
            s.accepted + s.invalid + s.rejected + s.stopped + s.cache_hits);
  EXPECT_EQ(server.cache_stats().hits, 1u);
  EXPECT_EQ(server.cache_stats().misses, 1u);
}

// Serial submit -> wait round trips make the hit count exact: a repeated
// signal can only miss if its first occurrence has not been inserted yet,
// which waiting rules out. So R requests over a P-signal pool score exactly
// R - P hits and P misses, and only the P misses reach Batch-OMP.
TEST(ServerCache, SerialRepeatsHitExactlyRequestsMinusPool) {
  const Index m = 16, l = 48;
  Rng rng(25);
  const Matrix dict = rng.gaussian_matrix(m, l, true);
  constexpr std::uint64_t kPool = 8, kRequests = 64;
  ExtDictServer server(dict, {.max_batch = 8,
                              .max_delay_us = 50,
                              .workers = 2,
                              .omp = {.tolerance = 0.0, .max_atoms = 4},
                              // 8 shards of kPool entries: no eviction.
                              .cache_capacity = 8 * kPool});
  std::vector<Vector> pool;
  for (std::uint64_t p = 0; p < kPool; ++p) {
    pool.push_back(test_signal(m, 61 + static_cast<unsigned>(p)));
  }

  for (std::uint64_t i = 0; i < kRequests; ++i) {
    EXPECT_EQ(server.submit(pool[i % kPool]).get().cache_hit, i >= kPool);
  }
  server.stop();

  const ServerStats s = server.stats();
  EXPECT_EQ(s.submitted, kRequests);
  EXPECT_EQ(s.cache_hits, kRequests - kPool);
  EXPECT_EQ(s.served, kPool);
  EXPECT_EQ(server.cache_stats().hits, kRequests - kPool);
  EXPECT_EQ(server.cache_stats().misses, kPool);
}

TEST(ServerCache, PerRequestOverridesKeySeparately) {
  const Index m = 16, l = 48;
  Rng rng(22);
  const Matrix dict = rng.gaussian_matrix(m, l, true);
  ExtDictServer server(dict, {.max_batch = 1,
                              .workers = 1,
                              .omp = {.tolerance = 0.0, .max_atoms = 4},
                              .cache_capacity = 64});
  const Vector signal = test_signal(m, 33);

  // Warm the cache under the default rule, then ask for a different cap:
  // must NOT hit (different effective key), and its own repeat must hit.
  (void)server.submit(signal).get();
  EncodeResult override_first =
      server.submit(signal, {.max_atoms = 2}).get();
  EXPECT_FALSE(override_first.cache_hit);
  EXPECT_EQ(override_first.code.nnz(), 2);
  EncodeResult override_repeat =
      server.submit(signal, {.max_atoms = 2}).get();
  EXPECT_TRUE(override_repeat.cache_hit);
  EXPECT_EQ(override_repeat.code.nnz(), 2);

  // An explicit override equal to the server default is the same stopping
  // rule, hence the same key: it hits the default-rule entry.
  EncodeResult same_rule =
      server.submit(signal, {.tolerance = 0.0, .max_atoms = 4}).get();
  EXPECT_TRUE(same_rule.cache_hit);
  server.stop();
}

TEST(ServerCache, ExtensionFlipsEpochAndInvalidatesOldEntries) {
  const Index m = 16, l = 32;
  Rng rng(23);
  const Matrix dict = rng.gaussian_matrix(m, l, true);
  const OmpConfig omp{.tolerance = 0.0, .max_atoms = 4};
  auto registry = std::make_shared<DictRegistry>(dict, omp);
  ExtDictServer server(registry, {.max_batch = 1,
                                  .workers = 1,
                                  .omp = omp,
                                  .cache_capacity = 64});
  const Vector signal = test_signal(m, 41);

  (void)server.submit(signal).get();
  EXPECT_TRUE(server.submit(signal).get().cache_hit);

  // Extend: same signal now keys to the new epoch → miss, re-encode, and
  // the fresh entry hits with the new epoch id.
  registry->extend(rng.gaussian_matrix(m, 4, true));
  EncodeResult after = server.submit(signal).get();
  EXPECT_FALSE(after.cache_hit);
  EXPECT_EQ(after.dict_epoch, 1u);
  EXPECT_TRUE(server.submit(signal).get().cache_hit);

  server.stop();
  const ServerStats s = server.stats();
  EXPECT_EQ(s.cache_hits, 2u);
  EXPECT_EQ(s.submitted,
            s.accepted + s.invalid + s.rejected + s.stopped + s.cache_hits);
}

TEST(ServerCache, DisabledCacheNeverHits) {
  const Index m = 8, l = 16;
  Rng rng(24);
  ExtDictServer server(rng.gaussian_matrix(m, l, true),
                       {.max_batch = 1, .workers = 1, .omp = {}});
  // cache_capacity defaults to 0: caching off.
  const Vector signal = test_signal(m, 51);
  (void)server.submit(signal).get();
  EXPECT_FALSE(server.submit(signal).get().cache_hit);
  server.stop();
  EXPECT_EQ(server.stats().cache_hits, 0u);
  EXPECT_EQ(server.cache_stats().hits, 0u);
  EXPECT_EQ(server.cache_stats().misses, 0u);
}

}  // namespace
}  // namespace extdict::serve
