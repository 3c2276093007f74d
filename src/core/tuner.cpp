#include "core/tuner.hpp"

#include <stdexcept>

#include "util/metrics.hpp"
#include "util/timer.hpp"
#include "util/trace.hpp"

namespace extdict::core {

double objective_value(Objective objective, Index m, Index l, Real alpha,
                       Index n, const dist::PlatformSpec& platform) {
  const UpdateCost cost = predicted_update_cost(
      m, l, alpha, n, platform.topology.total(), platform);
  switch (objective) {
    case Objective::kTime:
      return cost.time_cost;
    case Objective::kEnergy:
      return cost.energy_cost;
    case Objective::kMemory:
      return static_cast<double>(cost.memory_words_per_proc);
  }
  throw std::logic_error("objective_value: unknown objective");
}

TunerResult tune(const Matrix& a, const dist::PlatformSpec& platform,
                 const TunerConfig& config) {
  const util::TraceScope phase(
      util::MetricsRegistry::global().span("tuner.tune"), "tuner.tune");
  util::Timer timer;
  TunerResult result;
  if (config.subset_sizes.empty()) {
    result.profile = estimate_alpha_profile(a, config.profile);
  } else {
    result.profile = estimate_alpha_profile_subsets(
        a, config.profile, config.subset_sizes, config.convergence_threshold);
  }

  double best = 0;
  for (const AlphaPoint& point : result.profile.points) {
    if (!point.feasible) continue;
    const double value = objective_value(config.objective, a.rows(), point.l,
                                         point.alpha_mean, a.cols(), platform);
    result.costs.emplace_back(point.l, value);
    if (result.best_l < 0 || value < best) {
      best = value;
      result.best_l = point.l;
    }
  }
  if (result.best_l < 0) {
    throw std::runtime_error(
        "tune: no feasible dictionary size in the grid (all below L_min)");
  }
  result.best_cost = best;
  result.tuning_ms = timer.elapsed_ms();
  util::MetricsRegistry::global().add(
      "tuner.grid_points_evaluated", result.costs.size());
  return result;
}

}  // namespace extdict::core
