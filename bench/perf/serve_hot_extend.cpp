// serve_hot_extend: read-mostly traffic with writes alongside. An
// in-process ExtDictServer serves a shared DictRegistry (first 1024
// light-field columns, M = 1600) with a 2048-entry encode cache. Three
// closed-loop clients (submit, wait) draw signals by Zipf(1) rank from 8192
// held-out columns, so cache hits dominate; one extender appends 32 unseen
// atoms after every 4000 completed requests, and each epoch flip makes every
// cached code stale. A change that speeds hits at the cost of extension (or the
// reverse) shows here. The network is bypassed.

#include <atomic>
#include <map>
#include <random>
#include <thread>

#include "la/random.hpp"
#include "perf.hpp"
#include "serve/dict_registry.hpp"
#include "serve/server.hpp"
#include "util/sync.hpp"
#include "util/trace.hpp"

namespace perf {

namespace {

namespace serve = extdict::serve;

struct HotShape {
  Index views, patch, scene, atoms, pool, extensions;
  std::uint64_t warmup_requests;
  std::uint64_t extend_every;  ///< completed requests between extensions
};

constexpr Index kAtomsPerExtension = 32;
constexpr int kClients = 3;
constexpr std::uint64_t kSampleEvery = 64;
constexpr std::size_t kCacheCapacity = 2048;
// Per-client request cap of the traced window: ~4 trace events per request
// on the client's lane must fit the ring.
constexpr std::uint64_t kTracedRequestsPerClient = 25000;
constexpr std::size_t kTraceCapacity = std::size_t{1} << 17;

/// A served code kept for the correctness gate.
struct Sample {
  Index column = 0;
  std::uint64_t epoch = 0;
  extdict::sparsecoding::SparseCode code;
};

/// Per-client tallies of one window (each client owns one; merged after
/// the join).
struct ClientLog {
  std::vector<double> latency_ms;
  std::vector<double> queue_s, encode_s;  ///< requests that ran the solver
  double busy_s = 0;  ///< Σ batch encode window / batch width
  std::uint64_t attempted = 0, failed = 0;
};

class ServeHotExtend final : public Workload {
 public:
  explicit ServeHotExtend(const Options& options)
      : options_(options),
        shape_(options.smoke ? HotShape{3, 4, 48, 96, 512, 8, 500, 500}
                             : HotShape{5, 8, 96, 1024, 8192, 32, 5000, 4000}) {}

  void setup() override {
    server_.reset();
    const Index extension_atoms = shape_.extensions * kAtomsPerExtension;
    const Matrix data =
        light_field(shape_.views, shape_.patch, shape_.scene,
                    shape_.atoms + shape_.pool + extension_atoms, options_.seed);
    dictionary_ = column_range(data, 0, shape_.atoms);
    pool_ = column_range(data, shape_.atoms, shape_.pool);
    extension_ = column_range(data, shape_.atoms + shape_.pool, extension_atoms);

    // Zipf(s = 1) over pool ranks; a seeded permutation maps rank -> column.
    zipf_cdf_.assign(static_cast<std::size_t>(shape_.pool), 0);
    double total = 0;
    for (Index r = 0; r < shape_.pool; ++r) {
      total += 1.0 / static_cast<double>(r + 1);
      zipf_cdf_[static_cast<std::size_t>(r)] = total;
    }
    for (double& c : zipf_cdf_) c /= total;
    extdict::la::Rng rng(options_.seed + 1);
    rank_to_column_ = rng.permutation(shape_.pool);
    start_server();
  }

  Phase measure(double seconds, bool traced) override {
    if (window_ > 0) start_server();  // every window starts at epoch 0
    ++window_;
    const TraceCapacity capacity(traced, kTraceCapacity);

    {
      const extdict::util::MutexLock lock(mu_);
      pending_.clear();
    }
    std::atomic<std::uint64_t> completed{0};
    std::atomic<bool> timing{false}, stop{false};
    std::vector<ClientLog> logs(kClients);
    std::vector<std::thread> clients;
    for (int c = 0; c < kClients; ++c) {
      clients.emplace_back([&, c] {
        client_loop(c, traced, completed, timing, stop, logs[static_cast<std::size_t>(c)]);
      });
    }
    while (completed.load() < shape_.warmup_requests) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    const serve::EncodeCacheStats cache_before = server_->cache_stats();
    const serve::ServerStats server_before = server_->stats();
    const auto t0 = Clock::now();
    timing.store(true);
    extend_ms_.clear();
    live_epochs_max_ = 1;
    std::thread extender([&] { extender_loop(completed, stop); });

    // The window ends on time, or early once every traced client hit its cap.
    while (seconds_since(t0) < seconds && clients_done_.load() < kClients) {
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
    stop.store(true);
    {
      const extdict::util::MutexLock lock(mu_);
      cv_.notify_all();
    }
    for (auto& t : clients) t.join();
    const double window_s = seconds_since(t0);
    extender.join();
    clients_done_.store(0);

    const serve::EncodeCacheStats cache_after = server_->cache_stats();
    const serve::ServerStats server_after = server_->stats();
    server_->stop(serve::StopMode::kDrain);
    const std::string violation = server_identity_violation(server_->stats());
    if (!violation.empty()) identity_violation_ = violation;

    Phase phase;
    ClientLog all;
    for (ClientLog& log : logs) {
      all.latency_ms.insert(all.latency_ms.end(), log.latency_ms.begin(), log.latency_ms.end());
      all.queue_s.insert(all.queue_s.end(), log.queue_s.begin(), log.queue_s.end());
      all.encode_s.insert(all.encode_s.end(), log.encode_s.begin(), log.encode_s.end());
      all.busy_s += log.busy_s;
      all.attempted += log.attempted;
      all.failed += log.failed;
    }
    failed_total_ += all.failed;
    phase.attempted = all.attempted;
    phase.failed = all.failed;
    phase.latencies_ms = all.latency_ms;
    phase.throughput = static_cast<double>(all.attempted - all.failed) / window_s;

    const double lookups = static_cast<double>(
        (cache_after.hits + cache_after.misses) - (cache_before.hits + cache_before.misses));
    const double hit_ratio =
        lookups > 0 ? static_cast<double>(cache_after.hits - cache_before.hits) / lookups : 0;
    const auto batches = static_cast<double>(server_after.batches - server_before.batches);
    Metrics& m = window_layers_;
    m = Metrics();
    m.set("serve.queue.p50_ms", quantile(all.queue_s, 0.5) * 1e3, "ms");
    m.set("serve.queue.p99_ms", quantile(all.queue_s, 0.99) * 1e3, "ms");
    m.set("serve.encode.p50_ms", quantile(all.encode_s, 0.5) * 1e3, "ms");
    m.set("serve.encode.p99_ms", quantile(all.encode_s, 0.99) * 1e3, "ms");
    m.set("serve.batch_cols.mean",
          batches > 0 ? static_cast<double>(server_after.columns_encoded -
                                            server_before.columns_encoded) / batches
                      : 0,
          "count");
    m.set("serve.busy_frac",
          all.busy_s / (server_->config().workers * window_s), "ratio");
    m.set("serve.cache.hit_ratio", hit_ratio, "ratio");
    m.set("serve.cache.evictions",
          static_cast<double>(cache_after.evictions - cache_before.evictions), "count");
    m.set("serve.registry.live_epochs_max", static_cast<double>(live_epochs_max_), "count");
    m.set("serve.registry.extend_ms", median(extend_ms_), "ms");
    split_pct_ = serve_split_residual_pct(all.queue_s, all.encode_s);

    phase.info["window_s"] = window_s;
    phase.info["extensions"] = extend_ms_.size();
    phase.info["final_atoms"] = registry_->atom_count();
    phase.info["cache_hit_ratio"] = hit_ratio;
    return phase;
  }

  void verify(Gates& gates) override {
    gates.check("server_identities", identity_violation_.empty(),
                identity_violation_.empty() ? "ServerStats books balance"
                                            : identity_violation_);
    gates.check("no_failed_futures", failed_total_ == 0,
                std::to_string(failed_total_) + " futures resolved with an error");
    gates.check("sampled_codes_match_pinned_epoch",
                verified_ > 0 && mismatched_ == 0,
                std::to_string(mismatched_) + " of " + std::to_string(verified_) +
                    " sampled codes differ from BatchOmp::encode on their epoch (" +
                    std::to_string(unverifiable_) + " arrived after their epoch was released)");
    gate_encode_flops(dictionary_, paper_server_config(0).omp, pool_, 64, gates);
  }

  void observe_layers(const Phase& /*traced*/, Metrics& layers,
                      Gates& /*gates*/) override {
    layers.merge_missing(window_layers_);
    layers.set("split.residual_pct", split_pct_, "%");
  }

  [[nodiscard]] LayerInputs layer_inputs() const override {
    return LayerInputs{&dictionary_, nullptr, &pool_, &pool_,
                       paper_server_config(0).omp};
  }

 private:
  void start_server() {
    server_.reset();
    const serve::ServerConfig config = paper_server_config(kCacheCapacity);
    registry_ = std::make_shared<serve::DictRegistry>(dictionary_, config.omp);
    server_ = std::make_unique<serve::ExtDictServer>(registry_, config);
  }

  void client_loop(int c, bool traced, std::atomic<std::uint64_t>& completed,
                   const std::atomic<bool>& timing, const std::atomic<bool>& stop,
                   ClientLog& log) {
    std::mt19937_64 rng(options_.seed * 0x9e3779b97f4a7c15ULL +
                        static_cast<std::uint64_t>(c) + 1);
    std::uniform_real_distribution<double> uniform(0, 1);
    while (!stop.load(std::memory_order_relaxed)) {
      const auto rank = static_cast<std::size_t>(
          std::lower_bound(zipf_cdf_.begin(), zipf_cdf_.end(), uniform(rng)) -
          zipf_cdf_.begin());
      const Index column =
          rank_to_column_[std::min(rank, rank_to_column_.size() - 1)];
      const bool timed = timing.load(std::memory_order_relaxed);
      const auto t0 = Clock::now();
      serve::EncodeResult result;
      bool ok = true;
      {
        const extdict::util::TraceScope span("perf.serve.request");
        try {
          result = server_->submit(pool_.col(column)).get();
        } catch (const std::exception&) {
          ok = false;
        }
      }
      const double latency_ms = seconds_since(t0) * 1e3;
      completed.fetch_add(1, std::memory_order_relaxed);
      if (!timed) continue;
      ++log.attempted;
      if (!ok) {
        ++log.failed;
        continue;
      }
      log.latency_ms.push_back(latency_ms);
      if (!result.cache_hit) {
        log.queue_s.push_back(result.queue_seconds);
        log.encode_s.push_back(result.encode_seconds);
        if (result.batch_columns > 0) log.busy_s += result.encode_seconds / result.batch_columns;
      }
      if (log.attempted % kSampleEvery == 0) {
        const extdict::util::MutexLock lock(mu_);
        pending_.push_back(Sample{column, result.dict_epoch, std::move(result.code)});
      }
      if (traced && log.attempted >= kTracedRequestsPerClient) {
        clients_done_.fetch_add(1);
        return;
      }
    }
  }

  // Extends after every `extend_every` completions and, on each wake-up,
  // checks the sampled codes against the epochs it published (the serving
  // one and its predecessor).
  void extender_loop(const std::atomic<std::uint64_t>& completed,
                     const std::atomic<bool>& stop) {
    std::map<std::uint64_t, std::shared_ptr<const serve::DictEpoch>> epochs;
    epochs[0] = registry_->current();
    const auto omp = server_->config().omp;
    std::uint64_t next_at = completed.load() + shape_.extend_every;
    Index next = 0;
    for (;;) {
      std::vector<Sample> batch;
      {
        const extdict::util::MutexLock lock(mu_);
        const auto deadline = Clock::now() + std::chrono::milliseconds(1);
        while (!stop.load() && completed.load() < next_at &&
               cv_.wait_until(mu_, deadline) == std::cv_status::no_timeout) {
        }
        batch.swap(pending_);
      }
      for (const Sample& s : batch) {
        const auto it = epochs.find(s.epoch);
        if (it == epochs.end()) {
          ++unverifiable_;
          continue;
        }
        ++verified_;
        if (!same_code(it->second->coder.encode(pool_.col(s.column), omp), s.code, 1e-12)) {
          ++mismatched_;
        }
      }
      if (stop.load()) return;
      if (completed.load() < next_at) continue;
      next_at += shape_.extend_every;
      // Hold only the serving epoch while reading the registry's count, so
      // it shows what the server itself still pins.
      const std::uint64_t serving = registry_->current_epoch();
      std::erase_if(epochs, [&](const auto& e) { return e.first != serving; });
      live_epochs_max_ = std::max(live_epochs_max_, registry_->live_epochs());
      if (next + kAtomsPerExtension > extension_.cols()) continue;
      const Matrix atoms = column_range(extension_, next, kAtomsPerExtension);
      next += kAtomsPerExtension;
      std::uint64_t id = 0;
      extend_ms_.push_back(time_seconds([&] { id = registry_->extend(atoms); }) * 1e3);
      epochs[id] = registry_->current();
    }
  }

  Options options_;
  HotShape shape_;
  Matrix dictionary_, pool_, extension_;
  std::vector<double> zipf_cdf_;
  std::vector<Index> rank_to_column_;
  std::shared_ptr<serve::DictRegistry> registry_;
  std::unique_ptr<serve::ExtDictServer> server_;
  int window_ = 0;

  extdict::util::Mutex mu_;
  extdict::util::CondVar cv_;  // wakes the extender at the end of a window
  std::vector<Sample> pending_ EXTDICT_GUARDED_BY(mu_);
  std::atomic<int> clients_done_{0};

  // Extender-owned during a window, read after the join.
  std::vector<double> extend_ms_;
  std::size_t live_epochs_max_ = 1;
  std::uint64_t verified_ = 0, mismatched_ = 0, unverifiable_ = 0;

  Metrics window_layers_;
  double split_pct_ = 0;
  std::string identity_violation_;
  std::uint64_t failed_total_ = 0;
};

}  // namespace

std::unique_ptr<Workload> make_serve_hot_extend(const Options& options) {
  return std::make_unique<ServeHotExtend>(options);
}

}  // namespace perf
