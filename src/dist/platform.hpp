#pragma once

#include <string>
#include <vector>

#include "dist/cost.hpp"
#include "dist/topology.hpp"
#include "la/types.hpp"

namespace extdict::dist {

/// Calibrated machine model that converts the simulator's exact counters
/// (FLOPs, words by locality, messages) into modelled runtime and energy —
/// the role the paper's R_bf ratios play in Equations (2) and (3).
///
/// Defaults emulate the paper's IBM iDataPlex nodes (Intel Xeon X5660,
/// 2.8 GHz, QDR InfiniBand): per-core ~3 GFLOP/s sustained on dense
/// matrix-vector work, tens of GB/s shared-memory bandwidth inside a node
/// and a few GB/s across nodes. The *ratios* are what shape every figure,
/// so the modelled milliseconds are the emulated cluster's, not this host's.
struct PlatformSpec {
  std::string name;
  Topology topology;

  double flops_per_second = 3.0e9;        ///< per core, sustained
  double intra_words_per_second = 2.0e9;  ///< words through shared memory
  double inter_words_per_second = 2.5e8;  ///< words across the interconnect
  double message_latency_seconds = 2.0e-7;  ///< scaled with the dataset
  ///< downscaling so the latency-to-volume ratio matches the paper's
  ///< regime (real QDR ~2 us, datasets here ~10-100x smaller)

  double joules_per_flop = 0.5e-9;
  double joules_per_intra_word = 4.0e-9;
  double joules_per_inter_word = 60.0e-9;

  /// Paper's R_bf^time: the time of moving one word relative to one FLOP
  /// (uses the slower, inter-node channel when the topology spans nodes).
  [[nodiscard]] double r_time_bf() const noexcept {
    const double word_time = topology.nodes > 1 ? 1.0 / inter_words_per_second
                                                : 1.0 / intra_words_per_second;
    return word_time * flops_per_second;
  }

  /// Paper's R_bf^energy analogue.
  [[nodiscard]] double r_energy_bf() const noexcept {
    const double word_energy =
        topology.nodes > 1 ? joules_per_inter_word : joules_per_intra_word;
    return word_energy / joules_per_flop;
  }

  /// Modelled runtime of a measured SPMD region: the slowest rank's compute
  /// plus communication service time.
  [[nodiscard]] double modeled_seconds(const RunStats& stats) const;

  /// Modelled energy: total work across ranks.
  [[nodiscard]] double modeled_joules(const RunStats& stats) const;

  /// Platform preset emulating the paper's cluster at a given shape.
  [[nodiscard]] static PlatformSpec idataplex(Topology topo);

};

/// The paper's four evaluation platforms (1x1, 1x4, 2x8, 8x8).
[[nodiscard]] std::vector<PlatformSpec> paper_platforms();

}  // namespace extdict::dist
