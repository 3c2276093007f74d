#include "dist/platform.hpp"

#include <algorithm>
#include <vector>

namespace extdict::dist {

double PlatformSpec::modeled_seconds(const RunStats& stats) const {
  double worst = 0;
  for (const auto& c : stats.per_rank) {
    const double compute = static_cast<double>(c.flops) / flops_per_second;
    const double comm =
        static_cast<double>(c.words_sent_intra + c.words_recv_intra) /
            intra_words_per_second +
        static_cast<double>(c.words_sent_inter + c.words_recv_inter) /
            inter_words_per_second +
        static_cast<double>(c.messages_sent + c.messages_recv) *
            message_latency_seconds;
    worst = std::max(worst, compute + comm);
  }
  return worst;
}

double PlatformSpec::modeled_joules(const RunStats& stats) const {
  double total = 0;
  for (const auto& c : stats.per_rank) {
    total += static_cast<double>(c.flops) * joules_per_flop;
    // Each transfer is counted on both endpoints; halve to charge the wire
    // once.
    total += 0.5 *
             (static_cast<double>(c.words_sent_intra + c.words_recv_intra) *
                  joules_per_intra_word +
              static_cast<double>(c.words_sent_inter + c.words_recv_inter) *
                  joules_per_inter_word);
  }
  return total;
}

PlatformSpec PlatformSpec::idataplex(Topology topo) {
  PlatformSpec spec;
  spec.name = "idataplex-" + topo.name();
  spec.topology = topo;
  return spec;
}

std::vector<PlatformSpec> paper_platforms() {
  std::vector<PlatformSpec> specs;
  specs.reserve(std::size(kPaperPlatforms));
  for (const Topology& topo : kPaperPlatforms) {
    specs.push_back(PlatformSpec::idataplex(topo));
  }
  return specs;
}

}  // namespace extdict::dist
