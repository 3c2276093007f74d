#include "perf.hpp"

#include <sys/resource.h>

#include <numeric>
#include <stdexcept>

#include "core/cost_model.hpp"
#include "data/lightfield.hpp"
#include "dist/platform.hpp"
#include "la/random.hpp"
#include "sparsecoding/batch_omp.hpp"
#include "util/metrics.hpp"
#include "util/trace.hpp"

namespace perf {

TraceCapacity::TraceCapacity(bool traced, std::size_t events) : traced_(traced) {
  if (traced_) extdict::util::TraceRecorder::global().set_capacity(events);
}

TraceCapacity::~TraceCapacity() {
  if (traced_) {
    extdict::util::TraceRecorder::global().set_capacity(
        extdict::util::TraceRecorder::kDefaultCapacity);
  }
}

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

double Phase::latency_ms(double q) const {
  if (slices.empty()) return quantile(latencies_ms, q);
  std::vector<std::vector<double>> by_slice(
      static_cast<std::size_t>(*std::max_element(slices.begin(), slices.end())) + 1);
  for (std::size_t i = 0; i < latencies_ms.size(); ++i) {
    by_slice[static_cast<std::size_t>(slices[i])].push_back(latencies_ms[i]);
  }
  std::vector<double> per_slice;
  for (const std::vector<double>& s : by_slice) {
    if (!s.empty()) per_slice.push_back(quantile(s, q));
  }
  return median(per_slice);
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // Linux: KiB
}

void Metrics::set(const std::string& name, double value, const std::string& unit) {
  for (Entry& e : entries_) {
    if (e.name == name) {
      e.value = value;
      e.unit = unit;
      return;
    }
  }
  entries_.push_back(Entry{name, value, unit});
}

bool Metrics::has(const std::string& name) const {
  return std::any_of(entries_.begin(), entries_.end(),
                     [&](const Entry& e) { return e.name == name; });
}

double Metrics::get(const std::string& name) const {
  for (const Entry& e : entries_) {
    if (e.name == name) return e.value;
  }
  throw std::out_of_range("no metric " + name);
}

void Metrics::merge_missing(const Metrics& other) {
  for (const Entry& e : other.entries_) {
    if (!has(e.name)) entries_.push_back(e);
  }
}

Json Metrics::to_json() const {
  Json j = Json::object();
  for (const Entry& e : entries_) {
    Json m = Json::object();
    m["value"] = e.value;
    m["unit"] = e.unit;
    j[e.name] = std::move(m);
  }
  return j;
}

void Gates::check(const std::string& name, bool ok, const std::string& detail) {
  gates_.push_back(Gate{name, ok, detail});
}

bool Gates::all_ok() const {
  return std::all_of(gates_.begin(), gates_.end(),
                     [](const Gate& g) { return g.ok; });
}

Json Gates::to_json() const {
  Json j = Json::array();
  for (const Gate& g : gates_) {
    Json e = Json::object();
    e["name"] = g.name;
    e["ok"] = g.ok;
    e["detail"] = g.detail;
    j.push_back(std::move(e));
  }
  return j;
}

Matrix light_field(Index views, Index patch, Index scene_size, Index columns,
                   std::uint64_t seed) {
  // Several scenes, shuffled together: how sparse a scene's patches code
  // varies from scene to scene, and a mix keeps that from swinging the
  // workload's cost with the seed.
  // The scenes are generated in parallel, because a single thread's speed
  // swings from run to run on a shared machine and set-up time is a metric.
  // Each writes its columns straight to their shuffled places, so no second
  // copy of the matrix is ever resident.
  constexpr Index kScenes = 16;
  extdict::la::Rng rng(seed);
  const std::vector<Index> order = rng.permutation(columns);
  std::vector<Index> slot(order.size());  // scene-major column k -> slot[k]
  for (Index i = 0; i < columns; ++i) slot[static_cast<std::size_t>(order[i])] = i;
  Matrix mixed(views * views * patch * patch, columns);
  Matrix* out = &mixed;
  const Index* to = slot.data();
#pragma omp parallel for schedule(dynamic) default(none) \
    shared(out, to, views, patch, scene_size, columns, seed)
  for (Index s = 0; s < kScenes; ++s) {
    extdict::data::LightFieldConfig config;
    config.views = views;
    config.patch = patch;
    config.scene_size = scene_size;
    const Index first = s * columns / kScenes;
    config.num_patches = (s + 1) * columns / kScenes - first;
    config.seed = seed * kScenes + static_cast<std::uint64_t>(s);
    const Matrix scene = extdict::data::make_light_field(config).a;
    for (Index j = 0; j < scene.cols(); ++j) {
      std::copy(scene.col(j).begin(), scene.col(j).end(), out->col(to[first + j]).begin());
    }
  }
  return mixed;
}

Matrix column_range(const Matrix& m, Index first, Index count) {
  std::vector<Index> idx(static_cast<std::size_t>(count));
  std::iota(idx.begin(), idx.end(), first);
  return m.select_columns(idx);
}

extdict::serve::ServerConfig paper_server_config(std::size_t cache_capacity) {
  extdict::serve::ServerConfig config;
  config.omp.tolerance = 0.05;
  config.omp.max_atoms = 32;
  config.max_batch = 32;
  config.max_delay_us = 200;
  config.workers = 2;
  config.queue_capacity = 1024;
  config.backpressure = extdict::serve::BackpressurePolicy::kBlock;
  config.cache_capacity = cache_capacity;
  return config;
}

void gate_encode_flops(const Matrix& dictionary,
                       const extdict::sparsecoding::OmpConfig& omp,
                       const Matrix& signals, Index count, Gates& gates) {
  const extdict::sparsecoding::BatchOmp coder(dictionary, omp);
  Index exact = 0;
  const Index n = std::min(count, signals.cols());
  for (Index j = 0; j < n; ++j) {
    const auto code = coder.encode(signals.col(j));
    if (code.flops == coder.encode_flops(code.iterations)) ++exact;
  }
  gates.check("batch_omp_flops_match_model", exact == n,
              std::to_string(exact) + "/" + std::to_string(n) +
                  " encodes metered exactly encode_flops(k)");
}

void gate_dist_gram_flops(const extdict::core::DistGramResult& result,
                          const Matrix& dictionary, const CscMatrix& codes,
                          Gates& gates) {
  const auto model = static_cast<std::uint64_t>(
      2.0 * kRanks *
      extdict::core::transformed_update_cost(
          dictionary.rows(), dictionary.cols(), codes.nnz(), codes.cols(), kRanks,
          extdict::dist::PlatformSpec::idataplex({1, kRanks}))
          .flops_per_proc);
  const std::uint64_t metered = result.update_flops_per_iteration();
  gates.check("dist_gram_flops_match_model", metered == model,
              std::to_string(metered) + " metered vs " + std::to_string(model) +
                  " modelled (2 x Eq. 2 work)");
}

bool same_code(const extdict::sparsecoding::SparseCode& a,
               const extdict::sparsecoding::SparseCode& b, double tolerance) {
  if (a.entries.size() != b.entries.size()) return false;
  for (std::size_t i = 0; i < a.entries.size(); ++i) {
    if (a.entries[i].first != b.entries[i].first ||
        std::abs(a.entries[i].second - b.entries[i].second) > tolerance) {
      return false;
    }
  }
  return true;
}

namespace {

double mean(const std::vector<double>& v) {
  if (v.empty()) return 0;
  return std::accumulate(v.begin(), v.end(), 0.0) / static_cast<double>(v.size());
}

}  // namespace

double serve_split_residual_pct(const std::vector<double>& queue_s,
                                const std::vector<double>& encode_s) {
  auto& metrics = extdict::util::MetricsRegistry::global();
  const auto& q = metrics.histogram("serve.latency.queue_seconds");
  const auto& e = metrics.histogram("serve.latency.encode_seconds");
  if (q.count() == 0 || e.count() == 0) return 100;
  const double q_in = q.sum() / static_cast<double>(q.count());
  const double e_in = e.sum() / static_cast<double>(e.count());
  return 100 * std::max(std::abs(mean(queue_s) - q_in) / q_in,
                        std::abs(mean(encode_s) - e_in) / e_in);
}

std::string server_identity_violation(const extdict::serve::ServerStats& s) {
  if (s.submitted != s.accepted + s.invalid + s.rejected + s.stopped + s.cache_hits) {
    return "submitted != accepted + invalid + rejected + stopped + cache_hits";
  }
  if (s.accepted != s.served + s.encode_failed + s.shed + s.discarded) {
    return "accepted != served + encode_failed + shed + discarded";
  }
  if (s.columns_encoded != s.served + s.encode_failed) {
    return "columns_encoded != served + encode_failed";
  }
  return {};
}

}  // namespace perf
