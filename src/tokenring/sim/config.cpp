#include "tokenring/sim/config.hpp"

#include <utility>

#include "tokenring/analysis/ttrt.hpp"
#include "tokenring/common/checks.hpp"
#include "tokenring/sim/pdp_sim.hpp"
#include "tokenring/sim/ttp_sim.hpp"

namespace tokenring::sim {

void Simulation::start_run() {
  TR_EXPECTS_MSG(!ran_,
                 "a Simulation runs once; build another with make_simulator "
                 "for a second run");
  ran_ = true;
}

std::unique_ptr<Simulation> make_simulator(msg::MessageSet set,
                                           const SimConfig& config) {
  if (config.protocol == Protocol::kPdp) {
    return std::make_unique<PdpSimulation>(std::move(set), config);
  }
  SimConfig cfg = config;
  // Fill the TTP parameters the paper derives from the message set when
  // the caller leaves them unset.
  if (cfg.ttrt <= 0.0) {
    TR_EXPECTS_MSG(!set.empty(),
                   "an FDDI ring without streams needs an explicit ttrt");
    cfg.ttrt = analysis::select_ttrt(set, cfg.ttp.ring, cfg.bandwidth);
  }
  if (cfg.sync_bandwidth_per_stream.empty() && !set.empty()) {
    cfg.sync_bandwidth_per_stream.reserve(set.size());
    for (const auto& s : set.streams()) {
      cfg.sync_bandwidth_per_stream.push_back(
          analysis::ttp_local_bandwidth(s, cfg.ttp, cfg.bandwidth, cfg.ttrt)
              .value_or(0.0));
    }
  }
  return std::make_unique<TtpSimulation>(std::move(set), std::move(cfg));
}

SimMetrics run_simulation(const msg::MessageSet& set, const SimConfig& config) {
  return make_simulator(set, config)->run();
}

}  // namespace tokenring::sim
